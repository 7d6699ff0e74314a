"""The per-outcome no-arbitrage check that `market.check_na` replaced.

It solves one boxed LP per support outcome, max gain at that outcome over
H in [-1, 1]^d (H free, written as two nonnegative columns per asset by
`free_columns.standard_form`, the box as rows) with nonnegative gains on
the support, and reports the first outcome with a positive optimum.
`market.check_na` now decides the verdict with one LP for a full-support
martingale measure and reads the arbitrage off that LP's dual; this copy
is the slow reference of the verdict in the differential test in
`test_na_differential.py`.
"""

from fractions import Fraction

from free_columns import merged, standard_form
from robust_ftap.errors import CertificateError
from robust_ftap.lp_core import GE, LE, Constraint, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_check_na(m):
    """(True, None) under no-arbitrage, else (False, (H, strict outcome))."""
    if m.d == 0:
        return True, None
    base = [Constraint(m.delta_s(o), GE, 0) for o in m.support]
    for j in range(m.d):
        unit = [ONE if k == j else ZERO for k in range(m.d)]
        base += [Constraint(unit, GE, -1), Constraint(unit, LE, 1)]
    H = range(m.d)
    for o in m.support:
        sol = solve_lp(standard_form(m.delta_s(o), "max", base, free=H))
        if sol.status != "Optimal":
            raise CertificateError(f"the boxed LP at {o} is {sol.status}")
        if sol.value > 0:
            return False, (merged(sol.primal, H), o)
    return True, None
