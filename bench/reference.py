"""Reference computations made apart from the program.

Event masses are integers over one common denominator, and events are
bitmasks over the support, so a whole scan is one subset-sum table per
measure (each mask adds its lowest outcome to a smaller mask).  The
checks here import nothing from ``robust_ftap``; they are the benchmark's
judge of the program's outputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

F = Fraction
NONE_QUALIFYING = F(2)  # the program's "no event qualifies" value


class EventTable:
    """Masses of every subset of ``support`` under each measure, as integer
    numerators over ``self.den``."""

    def __init__(self, measures: Sequence[Sequence[Fraction]], support: Sequence[int]):
        self.den = lcm(*(F(x).denominator for m in measures for x in m)) or 1
        self.n = len(support)
        self.sums = []
        for m in measures:
            nums = [int(F(m[i]) * self.den) for i in support]
            table = [0] * (1 << self.n)
            for mask in range(1, 1 << self.n):
                low = mask & -mask
                table[mask] = table[mask ^ low] + nums[low.bit_length() - 1]
            self.sums.append(table)

    def scale(self, x: Fraction) -> Fraction:
        return F(x) * self.den


def full_support(measures: Sequence[Sequence[Fraction]]) -> list[int]:
    n = len(measures[0])
    return [i for i in range(n) if any(m[i] > 0 for m in measures)]


def _tables(P, Q):
    support = full_support(P)
    t = EventTable(list(P) + list(Q), support)
    return t, t.sums[: len(P)], t.sums[len(P):]


def moduli(P, Q, eps) -> tuple[Fraction, Fraction]:
    """(primal, dual) modulus at eps; 2 stands for "no event qualifies".

    Primal: min over events A with max_P P(A) >= eps of max_Q Q(A).
    Dual: min over events A with min_Q Q(A) >= eps of min_P P(A).
    """
    t, ps, qs = _tables(P, Q)
    e = t.scale(eps)
    primal = dual = None
    for mask in range(1 << t.n):
        if max(p[mask] for p in ps) >= e:
            v = max(q[mask] for q in qs)
            if primal is None or v < primal:
                primal = v
        if min(q[mask] for q in qs) >= e:
            v = min(p[mask] for p in ps)
            if dual is None or v < dual:
                dual = v
    return tuple(NONE_QUALIFYING if v is None else F(v, t.den) for v in (primal, dual))


def hypothesis_primal(P, Q, eps, delta) -> tuple[bool, Fraction]:
    """(every event with some P-mass >= eps has some Q-mass >= delta,
    least best Q-mass over those events)."""
    worst = moduli(P, Q, eps)[0]
    return worst >= delta, worst


def hypothesis_dual(P, Q, eps, delta) -> tuple[bool, Optional[Fraction]]:
    """(every event with some P-mass < delta has some Q-mass < eps,
    largest least Q-mass over those events)."""
    t, ps, qs = _tables(P, Q)
    d = t.scale(delta)
    e = t.scale(eps)
    holds, worst = True, None
    for mask in range(1 << t.n):
        if not min(p[mask] for p in ps) < d:
            continue
        v = min(q[mask] for q in qs)
        if worst is None or v > worst:
            worst = v
        if not v < e:
            holds = False
    return holds, None if worst is None else F(worst, t.den)


def mixture(vectors, weights) -> list[Fraction]:
    return [sum((w * v[i] for v, w in zip(vectors, weights)), F(0)) for i in range(len(vectors[0]))]


def is_probability(v) -> bool:
    return all(x >= 0 for x in v) and sum(v) == 1


def primal_witness_ok(p, q_star, support, eps, bound) -> bool:
    """Every event over the support with p-mass >= 2 eps has q*-mass >= bound."""
    t = EventTable([p, q_star], support)
    thr, b = t.scale(2 * eps), t.scale(bound)
    pt, qt = t.sums
    return all(qt[m] >= b for m in range(1 << t.n) if pt[m] >= thr)


def dual_witness_ok(p, q_star, support, eps, delta) -> bool:
    """Every event with p-mass < eps*delta has q*-mass < 2 eps."""
    t = EventTable([p, q_star], support)
    thr, b = t.scale(eps * delta), t.scale(2 * eps)
    pt, qt = t.sums
    return all(qt[m] < b for m in range(1 << t.n) if pt[m] < thr)


def cover_min(q, p, need) -> Fraction:
    """min sum q_i h_i over h in [0,1]^n with sum p_i h_i >= need (greedy
    fractional covering; the primal test-function game against fixed q)."""
    items = sorted((i for i in range(len(p)) if p[i] > 0), key=lambda i: q[i] / p[i])
    value, left = F(0), F(need)
    for i in items:
        if left <= 0:
            break
        h = min(F(1), left / p[i])
        value += h * q[i]
        left -= h * p[i]
    return value


def pack_max(q, p, budget) -> Fraction:
    """max sum q_i h_i over h in [0,1]^n with sum p_i h_i <= budget (greedy
    fractional knapsack; the dual test-function game against fixed q)."""
    value = sum((q[i] for i in range(len(p)) if p[i] == 0), F(0))
    left = F(budget)
    items = sorted((i for i in range(len(p)) if p[i] > 0), key=lambda i: q[i] / p[i], reverse=True)
    for i in items:
        if left <= 0:
            break
        h = min(F(1), left / p[i])
        value += h * q[i]
        left -= h * p[i]
    return value


# one-period markets ----------------------------------------------------------


def increments(s0, s1) -> list[list[Fraction]]:
    return [[x - y for x, y in zip(row, s0)] for row in s1]


def gain(H, row) -> Fraction:
    return sum((h * x for h, x in zip(H, row)), F(0))


def is_martingale(q, ds, support) -> bool:
    """q is a probability vector carried by the support with zero expected
    increments."""
    if not is_probability(q) or any(q[i] for i in range(len(q)) if i not in support):
        return False
    d = len(ds[0]) if ds else 0
    return all(sum((q[i] * ds[i][k] for i in support), F(0)) == 0 for k in range(d))


def rank(rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def is_vertex(q, ds) -> bool:
    """A martingale measure is a vertex of the martingale polytope exactly
    when the constraint columns [1; increments] on its support are
    independent."""
    cols = [i for i in range(len(q)) if q[i] > 0]
    d = len(ds[0]) if ds else 0
    rows = [[F(1)] * len(cols)] + [[ds[i][k] for i in cols] for k in range(d)]
    return rank(rows) == len(cols)
