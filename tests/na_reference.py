"""The per-outcome no-arbitrage check that `market.check_na` replaced.

It solves one boxed LP per support outcome, max gain at that outcome over
H in [-1, 1]^d (H free, the box as rows) with nonnegative gains on the
support, and reports the first outcome with a positive optimum.
`market.check_na` now decides the verdict with one LP for a full-support
martingale measure and reads the arbitrage off that LP's dual; this copy
is the slow reference of the verdict in the differential test in
`test_na_differential.py`.
"""

from fractions import Fraction

from robust_ftap.lp_core import GE, LE, Constraint, LinearProgram, solve_lp

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
    for o in m.support:
        sol = solve_lp(LinearProgram(m.delta_s(o), "max", base))
        assert sol.status == "Optimal", sol.status
        if sol.value > 0:
            return False, (sol.primal, o)
    return True, None
