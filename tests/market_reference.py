"""The row-per-outcome market LPs that `market.py` replaced.

`market._max_charge` now substitutes q_o = s_o + t on the charged
outcomes, and `market.superhedge` maximizes E_q[f]; both solve on the d+1
equality rows of the martingale system.  Before, the charging LP carried
one row q_o >= t per charged outcome and the bound t <= 1, and the
superhedge LP was the primal min x subject to x + H . dS_o >= f(o), one
row per support outcome.  These copies are the slow references of the
differential test in `test_na_differential.py`.  Their free variables
(t of the charging LP, x and H of the superhedge LP) are each two
nonnegative columns (`free_columns.standard_form`).
"""

from fractions import Fraction

from free_columns import standard_form
from robust_ftap.lp_core import EQ, GE, LE, Constraint

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_charging_lp(m, charged):
    """max t over (q on the support, t free) subject to sum q = 1,
    E_q[increments] = 0, q_o >= t for every charged outcome o, q >= 0 and
    t <= 1; a positive optimum is a martingale measure charging every
    outcome in `charged`, the first n entries of the primal."""
    support = m.support
    n = len(support)
    cons = [Constraint([ONE] * n + [ZERO], EQ, 1)]
    for i in range(m.d):
        cons.append(
            Constraint([m.delta_s(o)[i] for o in support] + [ZERO], EQ, 0)
        )
    for o in charged:
        row = [ONE if s == o else ZERO for s in support] + [-ONE]
        cons.append(Constraint(row, GE, 0))
    cons.append(Constraint([ZERO] * n + [ONE], LE, 1))
    return standard_form([ZERO] * n + [ONE], "max", cons, free=[n])


def reference_superhedge_lp(m, f):
    """min x over (x, H), both free, subject to x + H . dS_o >= f(o) on the
    support; the optimum is the superhedging price, its dual the attaining
    measure."""
    cons = [
        Constraint((ONE,) + m.delta_s(o), GE, f.value_at(o)) for o in m.support
    ]
    return standard_form([ONE] + [ZERO] * m.d, "min", cons, free=range(m.d + 1))
