"""Reference event scans over ``frozenset`` events.

These are the subset scans that ``robust_ftap`` ran before its integer
event kernel (``robust_ftap.events``): every event of the quasi-sure
support is built as a ``frozenset`` in size-then-lexicographic order and
priced with ``ProbabilityMeasure.__call__``.  They are kept only as the
slow reference path of the differential tests, so each is the old code
with its name made public; the scanners solve one LP per qualifying event,
with no pruning.  ``best`` is the same loop written once for any value,
condition and direction, the reference of the kernel's own scan.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

from robust_ftap.errors import EnumerationCapExceeded
from robust_ftap.halmos_savage import NO_QUALIFYING_SET
from robust_ftap.large_market import Aa1Witness, Aa2Witness, _feasible_strategy
from robust_ftap.measures import AmbiguitySet, quasi_sure_support

ONE = Fraction(1)


def support_subsets(support: tuple[str, ...], cap: int):
    if len(support) > cap:
        raise EnumerationCapExceeded(len(support), cap)
    n = len(support)
    for size in range(n + 1):
        for combo in combinations(support, size):
            yield frozenset(combo)


def sorted_support(P: AmbiguitySet) -> tuple[str, ...]:
    sup = quasi_sure_support(P)
    return tuple(o for o in P.space.outcomes if o in sup)


def best(pick, value, qualifies, support, cap=20):
    """pick (min or max) of value(A) over the events with qualifies(A),
    and the first such event in size-then-lexicographic order."""
    found: Optional[tuple[Fraction, frozenset]] = None
    for A in support_subsets(support, cap):
        if not qualifies(A):
            continue
        v = value(A)
        if found is None or pick(v, found[0]) != found[0]:
            found = (v, A)
    return found


def check_hypothesis_primal(inst, max_enum=20):
    support = sorted_support(inst.P)
    holds = True
    worst: frozenset[str] = frozenset()
    worst_val: Optional[Fraction] = None
    for A in support_subsets(support, max_enum):
        p_max = max(v(A) for v in inst.P.vertices)
        if p_max < inst.epsilon:
            continue
        q_max = max(v(A) for v in inst.Q.vertices)
        if worst_val is None or q_max < worst_val:
            worst_val = q_max
            worst = A
        if q_max < inst.delta:
            holds = False
    return holds, worst


def check_hypothesis_dual(inst, max_enum=20):
    support = sorted_support(inst.P)
    holds = True
    worst: frozenset[str] = frozenset()
    worst_val: Optional[Fraction] = None
    for A in support_subsets(support, max_enum):
        p_min = min(v(A) for v in inst.P.vertices)
        if not (p_min < inst.delta):
            continue
        q_min = min(v(A) for v in inst.Q.vertices)
        if worst_val is None or q_min > worst_val:
            worst_val = q_min
            worst = A
        if not (q_min < inst.epsilon):
            holds = False
    return holds, worst


def hs_modulus(P, Q, epsilon, max_enum=20):
    epsilon = Fraction(epsilon)
    support = sorted_support(P)
    best: Optional[Fraction] = None
    for A in support_subsets(support, max_enum):
        if max(v(A) for v in P.vertices) < epsilon:
            continue
        q_max = max(v(A) for v in Q.vertices)
        if best is None or q_max < best:
            best = q_max
    return NO_QUALIFYING_SET if best is None else best


def indicator_restricted_value(inst, vertex_p, max_enum=20):
    support = sorted_support(inst.P)
    best: Optional[Fraction] = None
    for A in support_subsets(support, max_enum):
        if vertex_p(A) < 2 * inst.epsilon:
            continue
        q_max = max(v(A) for v in inst.Q.vertices)
        if best is None or q_max < best:
            best = q_max
    return best


def dual_modulus(P, Q, epsilon, max_enum=20):
    support = sorted_support(P)
    best: Optional[Fraction] = None
    for A in support_subsets(support, max_enum):
        q_min = min(v(A) for v in Q.vertices)
        if q_min < epsilon:
            continue
        p_min = min(v(A) for v in P.vertices)
        if best is None or p_min < best:
            best = p_min
    return NO_QUALIFYING_SET if best is None else best


def _best_vertex(P, event):
    best = P.vertices[0]
    best_val = best(event)
    for v in P.vertices[1:]:
        val = v(event)
        if val > best_val:
            best, best_val = v, val
    return best, best_val


def scan_aa1(seq, alpha_grid, c_schedule, max_enum=20):
    c_schedule = [Fraction(c) for c in c_schedule]
    if not c_schedule:
        return None
    for alpha in (Fraction(a) for a in alpha_grid):
        indices, strategies, bounds, measures = [], [], [], []
        next_market = 1
        for c_k in c_schedule:
            slot = None
            for n in range(next_market, len(seq) + 1):
                m = seq.markets[n - 1]
                for event in support_subsets(m.support, max_enum):
                    vertex, p_val = _best_vertex(m.P, event)
                    if p_val < alpha:
                        continue
                    H = _feasible_strategy(m, event, alpha, c_k)
                    if H is not None:
                        slot = (n, H, vertex)
                        break
                if slot:
                    break
            if slot is None:
                break
            n, H, vertex = slot
            indices.append(n)
            strategies.append(H)
            bounds.append(c_k)
            measures.append(vertex)
            next_market = n + 1
        else:
            return Aa1Witness(
                indices=tuple(indices),
                strategies=tuple(strategies),
                bounds=tuple(bounds),
                alpha=alpha,
                measures=tuple(measures),
            )
    return None


def scan_aa2(seq, alpha_grid, target_levels, max_enum=20):
    target_levels = [Fraction(t) for t in target_levels]
    for alpha in (Fraction(a) for a in alpha_grid):
        indices, strategies, measures, attained = [], [], [], []
        next_market = 1
        for level in target_levels:
            slot = None
            for n in range(next_market, len(seq) + 1):
                m = seq.markets[n - 1]
                for event in support_subsets(m.support, max_enum):
                    vertex, p_val = _best_vertex(m.P, event)
                    if p_val < level:
                        continue
                    H = _feasible_strategy(m, event, alpha, ONE)
                    if H is None:
                        continue
                    gain_event = frozenset(
                        o for o in m.support if m.gain(H, o) >= alpha
                    )
                    p_attained = vertex(gain_event)
                    if p_attained >= level:
                        slot = (n, H, vertex, p_attained)
                        break
                if slot:
                    break
            if slot is None:
                break
            n, H, vertex, p_attained = slot
            indices.append(n)
            strategies.append(H)
            measures.append(vertex)
            attained.append(p_attained)
            next_market = n + 1
        else:
            if indices:
                return Aa2Witness(
                    indices=tuple(indices),
                    strategies=tuple(strategies),
                    alpha=alpha,
                    measures=tuple(measures),
                    attained=tuple(attained),
                )
    return None
