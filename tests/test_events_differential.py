"""Differential tests of the integer event kernel against the frozenset
scans it replaced (`frozenset_events`).

Both enumerate the same events and break ties by the same order (size,
then lexicographic in support order), so every value, verdict and
tie-break event must be exactly equal.  The masses are drawn from small
integer weights, so that many events tie.  Each test runs at the
default 6-bit low block and also at 10 and 3 bits, so that supports of 4
to 10 outcomes take the kernel's multi-block path as well as its
single-block one; supports of 11 to 13 outcomes, the size of the
benchmark's ambiguity pairs, are scanned in many blocks at every width,
most of which the kernel skips: it visits the blocks best bound first,
stops at the first whose bound cannot beat the best found so far, and
evaluates a block only when one of its entries passes the side test and
beats that best.  Supports of more than twice the width also walk the
subset sums of the bits above the blocks in an outer loop.
"""

import functools
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import frozenset_events as ref
from robust_ftap import events as events_module
from robust_ftap import large_market
from robust_ftap.errors import EnumerationCapExceeded
from robust_ftap.events import GE, LT, EventSpace, support_events
from robust_ftap.halmos_savage import (
    HsInstance,
    check_hypothesis_dual,
    check_hypothesis_primal,
    dual_modulus,
    hs_modulus,
    indicator_restricted_value,
)
from robust_ftap.large_market import MarketSequence, scan_aa1, scan_aa2
from robust_ftap.market import Market
from robust_ftap.measures import AmbiguitySet, ProbabilityMeasure, SampleSpace, mix

F = Fraction

LOW_BITS = [10, 6, 3]
LEVELS = [F(k, 8) for k in range(0, 10)]


@contextmanager
def low_bits(bits):
    with mock.patch.object(events_module, "LOW_BITS", bits):
        yield


def _measure(space, weights):
    total = sum(weights)
    return ProbabilityMeasure(space, [F(w, total) for w in weights])


@st.composite
def pairs(draw, min_n=1, max_n=10):
    """(P, Q) on min_n to max_n outcomes, every Q-vertex dominated by P;
    the support is every outcome when min_n > 1."""
    n = draw(st.integers(min_n, max_n) | st.integers(max_n - 2, max_n))
    space = SampleSpace([f"o{i}" for i in range(n)])
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    first = st.lists(st.integers(1, 3), min_size=n, max_size=n) if min_n > 1 else weights
    p_rows = [draw(first)] + draw(st.lists(weights, max_size=2))
    support = [i for i in range(n) if any(row[i] for row in p_rows)]
    q_rows = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=len(support), max_size=len(support))
            .filter(any),
            min_size=1,
            max_size=3,
        )
    )
    P = AmbiguitySet(space, [_measure(space, row) for row in p_rows])
    Q = []
    for row in q_rows:
        full = [0] * n
        for i, w in zip(support, row):
            full[i] = w
        Q.append(_measure(space, full))
    return P, AmbiguitySet(space, Q)


levels = st.sampled_from(LEVELS[1:8])  # in (0, 1)


@pytest.mark.parametrize("bits", LOW_BITS)
@settings(max_examples=60, deadline=None)
@given(pair=pairs(), epsilon=levels, delta=levels, level=st.sampled_from(LEVELS))
def test_hs_scans_match_frozenset_scans(bits, pair, epsilon, delta, level):
    P, Q = pair
    event(f"{len(ref.sorted_support(P))} support outcomes")
    inst = HsInstance(P, Q, epsilon, delta)
    with low_bits(bits):
        assert check_hypothesis_primal(inst) == ref.check_hypothesis_primal(inst)
        assert check_hypothesis_dual(inst) == ref.check_hypothesis_dual(inst)
        for e in (epsilon, delta, level):
            if e <= 0:  # a modulus is defined at levels in (0, infinity) only
                for modulus in (hs_modulus, dual_modulus):
                    with pytest.raises(ValueError, match="must be positive, not 0"):
                        modulus(P, Q, e)
                continue
            assert hs_modulus(P, Q, e) == ref.hs_modulus(P, Q, e)
            assert dual_modulus(P, Q, e, 20) == ref.dual_modulus(P, Q, e)
        for vp in P.vertices:
            assert indicator_restricted_value(inst, vp) == (
                ref.indicator_restricted_value(inst, vp)
            )


def _envelopes(events, P, Q, agg):
    """The side (over P) and value (over Q) envelopes of agg = (side, value)."""
    side_agg, value_agg = agg
    side = events.upper(P.vertices) if side_agg is max else events.lower(P.vertices)
    value = events.upper(Q.vertices) if value_agg is max else events.lower(Q.vertices)
    return side, value


def _qualifies(P, side_agg, op, t):
    def qualifies(A):
        mass = side_agg(v(A) for v in P.vertices)
        return mass >= t if op == GE else mass < t

    return qualifies


def _kernel_best(P, Q, pick, agg, op, t):
    events = support_events(P, 20)
    side, value = _envelopes(events, P, Q, agg)
    got = events.best(pick, value, (side, op, t))
    return None if got is None else (got.value, got.event)


def _reference_best(P, Q, pick, agg, op, t):
    return ref.best(
        pick, lambda A: agg[1](v(A) for v in Q.vertices), _qualifies(P, agg[0], op, t),
        ref.sorted_support(P),
    )


@pytest.mark.parametrize("bits", LOW_BITS)
@settings(max_examples=100, deadline=None)
@given(
    pair=pairs(),
    pick=st.sampled_from([min, max]),
    agg=st.sampled_from([(max, max), (min, min), (max, min), (min, max)]),
    op=st.sampled_from([GE, LT]),
    t=st.sampled_from(LEVELS),
)
def test_kernel_best_matches_brute_force(bits, pair, pick, agg, op, t):
    P, Q = pair
    with low_bits(bits):
        assert _kernel_best(P, Q, pick, agg, op, t) == _reference_best(P, Q, pick, agg, op, t)
        # the ordered scan lists the qualifying events in the same order
        events = support_events(P, 20)
        side, _ = _envelopes(events, P, Q, agg)
        qualifies = _qualifies(P, agg[0], op, t)
        assert [events.event(m) for m in events.where(side, op, t)] == [
            A for A in ref.support_subsets(ref.sorted_support(P), 20) if qualifies(A)
        ]


def test_twelve_outcomes_take_two_high_bits():
    # at a 10-bit low block, 12 outcomes stream 4 blocks
    space = SampleSpace([f"o{i}" for i in range(12)])
    P = AmbiguitySet(space, [_measure(space, [1, 2, 0, 3, 1, 1, 2, 0, 1, 3, 1, 2]),
                             _measure(space, [2, 1, 1, 0, 1, 3, 1, 1, 0, 1, 2, 1])])
    Q = AmbiguitySet(space, [_measure(space, [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1])])
    inst = HsInstance(P, Q, F(1, 4), F(1, 3))
    with low_bits(10):
        assert check_hypothesis_primal(inst) == ref.check_hypothesis_primal(inst)
        assert check_hypothesis_dual(inst) == ref.check_hypothesis_dual(inst)
        assert hs_modulus(P, Q, F(3, 8)) == ref.hs_modulus(P, Q, F(3, 8))


@settings(max_examples=12, deadline=None)
@given(
    pair=pairs(min_n=11, max_n=13),
    pick=st.sampled_from([min, max]),
    agg=st.sampled_from([(max, max), (min, min), (max, min), (min, max)]),
    op=st.sampled_from([GE, LT]),
    t=st.sampled_from(LEVELS),
)
def test_hs_sized_supports_match_brute_force(pair, pick, agg, op, t):
    # 2**11 to 2**13 events with masses full of ties, in 32 to 1024
    # blocks: one frozenset scan against the kernel at every width
    P, Q = pair
    want = _reference_best(P, Q, pick, agg, op, t)
    for bits in LOW_BITS:
        with low_bits(bits):
            assert _kernel_best(P, Q, pick, agg, op, t) == want


def _count_blocks(monkeypatch):
    """Counts the blocks that `best` tests (computes the mask of their
    entries that pass the side test and beat the best) and evaluates
    (finds the best among those entries); every other block is skipped."""
    counter = {"tested": 0, "evaluated": 0}

    def counting(name, key):
        original = getattr(events_module, name)

        def counted(*args):
            counter[key] += 1
            return original(*args)

        monkeypatch.setattr(events_module, name, counted)

    counting("_block_entries", "tested")
    counting("_pick_in", "evaluated")
    return counter


@pytest.mark.parametrize("bits", LOW_BITS)
@pytest.mark.parametrize("pick", [min, max])
@pytest.mark.parametrize(
    "op,t,skipped",
    # P puts 1/66 on each of o0..o5 and 10/66 on each of o6..o11.  At a
    # 6-bit low block the high bits are o6..o11, so the side test fails
    # on the whole of every block with at most 2 of them for >= 30/66
    # (1 + 6 + 15 = 22 blocks), and with 3 or more for < 25/66 (42 blocks)
    [(GE, F(30, 66), 22), (LT, F(25, 66), 42)],
)
def test_blocks_failing_the_side_test(monkeypatch, bits, pick, op, t, skipped):
    space = SampleSpace([f"o{i}" for i in range(12)])
    P = AmbiguitySet(space, [_measure(space, [1] * 6 + [10] * 6)])
    Q = AmbiguitySet(space, [_measure(space, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]),
                             _measure(space, [2] * 6 + [1] * 6)])
    agg = (max, min)
    counter = _count_blocks(monkeypatch)
    with low_bits(bits):
        got = _kernel_best(P, Q, pick, agg, op, t)
    assert got is not None
    assert got == _reference_best(P, Q, pick, agg, op, t)
    if bits == 6:
        # a block whose side bound fails is dropped before any test
        assert 0 < counter["evaluated"] <= counter["tested"] <= 64 - skipped


# (tested, evaluated) blocks per (pick, bits).  At 10 and 6 bits every
# block's value bound beats the best, so all 4 and all 64 blocks are
# tested: for min the bound is the Q-mass of the block's high outcomes
# alone, at most 6/66, and for max it is that of the event adding all of
# o0..o5, 1.  At 3 bits (low o0..o2, blocks over o3..o5, 64 settings of
# o6..o11 outside them) the first setting, none of o6..o11, holds the
# best.  For min its first block gives it and the walk stops, at every
# setting, before the block of all of o3..o5, whose bound ties the best's
# Q-mass with a later event: 64 * 7 tested.  For max (Q charges o0..o5
# only) the blocks come in the order of their count of o3..o5, 3 down
# to 0, and 4 of them improve the best in turn, down to {o0, o1, o2}.  At
# the other 63 settings the walk stops before the block of none of
# o3..o5, whose bound is the event o0..o2 plus the setting, and the side
# bound drops the block of all of them at the 7 settings of 5 or 6
# outcomes: 8 + 63 * 7 - 7 = 442 tested
PASSING_COUNTS = {
    (min, 10): (4, 1), (min, 6): (64, 1), (min, 3): (448, 1),
    (max, 10): (4, 1), (max, 6): (64, 1), (max, 3): (442, 4),
}


@pytest.mark.parametrize("bits", LOW_BITS)
@pytest.mark.parametrize(
    "pick,op,t,q_weights",
    # P puts 10/66 on each of o0..o5 and 1/66 on each of o6..o11, so at a
    # 6-bit low block every block holds an event of P-mass >= 30/66 and
    # one of P-mass < 35/66: every block passes the side test.  At every
    # width the best is in the first block: {o0, o1, o2}, of Q-mass 30/66
    # for min and 30/60 for max.  No entry of another block beats it: with
    # pick min an entry of P-mass >= 30/66 has Q = P >= 31/66, and with
    # pick max (Q charges o0..o5 only) an entry of P-mass < 35/66 holds at
    # most three of o0..o5 and comes later in order than {o0, o1, o2}
    [(min, GE, F(30, 66), [10] * 6 + [1] * 6), (max, LT, F(35, 66), [10] * 6 + [0] * 6)],
)
def test_blocks_passing_the_side_test_without_a_better_entry(
    monkeypatch, bits, pick, op, t, q_weights
):
    space = SampleSpace([f"o{i}" for i in range(12)])
    P = AmbiguitySet(space, [_measure(space, [10] * 6 + [1] * 6)])
    Q = AmbiguitySet(space, [_measure(space, q_weights)])
    counter = _count_blocks(monkeypatch)
    with low_bits(bits):
        got = _kernel_best(P, Q, pick, (max, max), op, t)
    assert got == _reference_best(P, Q, pick, (max, max), op, t)
    assert got[1] == {"o0", "o1", "o2"}
    assert (counter["tested"], counter["evaluated"]) == PASSING_COUNTS[pick, bits]


def test_blocks_that_cannot_beat_the_best_are_never_tested(monkeypatch):
    # P puts 1/66 on each of o0..o5 and 10/66 on each of o6..o11, Q is
    # uniform, and the scan is min Q(A) over P(A) >= 32/66.  At a 6-bit low
    # block, block h (its outcomes among o6..o11) has side bound
    # P(h) + 6/66, so the 22 blocks with at most 2 of them are dropped, and
    # value bound Q(h) with the key of h.  The 20 blocks of 3 come first,
    # in event order.  The first, {o6, o7, o8}, gives the best
    # {o0, o1, o6, o7, o8} of Q-mass 5/12, which no entry of the other 19
    # beats: beating it needs at most one of o0..o5, which falls short of
    # the side test.  The first block of 4, {o6, o7, o8, o9}, holds the
    # event of its high outcomes alone, of Q-mass 4/12, the best.  Every
    # block left (14 of 4, 6 of 5 and 1 of 6 outcomes) has a bound that
    # cannot beat it, so the walk stops there: 21 blocks tested, 2 of
    # them evaluated, where a walk without the bounds tests all 64
    space = SampleSpace([f"o{i}" for i in range(12)])
    P = AmbiguitySet(space, [_measure(space, [1] * 6 + [10] * 6)])
    Q = AmbiguitySet(space, [_measure(space, [1] * 12)])
    counter = _count_blocks(monkeypatch)
    with low_bits(6):
        got = _kernel_best(P, Q, min, (max, max), GE, F(32, 66))
    assert got == _reference_best(P, Q, min, (max, max), GE, F(32, 66))
    assert got == (F(4, 12), {"o6", "o7", "o8", "o9"})
    assert (counter["tested"], counter["evaluated"]) == (21, 2)


def _seeded_pair(n, seed):
    # three P-vertices with integer weights 0 to 4 (the first positive
    # everywhere) and two Q-vertices mixing them with weights 1 to 3
    rng = random.Random(seed)
    space = SampleSpace([f"o{i}" for i in range(n)])
    rows = [[rng.randint(1, 4) for _ in range(n)]]
    rows += [[rng.randint(0, 4) for _ in range(n)] for _ in range(2)]
    P = [_measure(space, row) for row in rows]
    Q = [mix(P, [F(w, 6) for w in rng.choice([(1, 2, 3), (3, 2, 1), (2, 3, 1)])])
         for _ in range(2)]
    return AmbiguitySet(space, P), AmbiguitySet(space, Q)


def test_hypothesis_scans_test_and_evaluate_few_blocks(monkeypatch):
    # the regression signal of the block walk on one benchmark-sized pair:
    # of the 64 blocks of each scan, the primal scan (min Q over P >= eps)
    # and the dual scan (min Q over P < delta) test and evaluate these many
    P, Q = _seeded_pair(12, 2026)
    inst = HsInstance(P, Q, F(1, 4), F(1, 3))
    counter = _count_blocks(monkeypatch)
    counts = []
    for check in (check_hypothesis_primal, check_hypothesis_dual):
        counter.update(tested=0, evaluated=0)
        assert check(inst) == getattr(ref, check.__name__)(inst)
        counts.append((counter["tested"], counter["evaluated"]))
    assert counts == [(11, 4), (54, 4)]


def test_a_twenty_outcome_scan_keeps_its_tables_small():
    # at the default cap, 2**20 events in 2**8 settings of the high bits
    # of 64 blocks of 64 entries: each measure's tables hold 2 * 2**6 + 2**8
    # integers, where a table of every event would take tens of MiB
    P, Q = _seeded_pair(20, 2026)
    tracemalloc.start()
    try:
        hs_modulus(P, Q, F(1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _threshold_pair():
    # P weights 1, 2, 3 over 12 outcomes (total 24): every level k/24 is
    # the exact P-mass of events in many blocks, so an entry sits at
    # threshold - offset in most of them, and the Q-masses (weights 1 and
    # 2, with one equal-weight measure) tie across blocks visited out of
    # the order of events
    space = SampleSpace([f"o{i}" for i in range(12)])
    P = AmbiguitySet(space, [_measure(space, [1, 2, 3] * 4),
                             _measure(space, [3, 2, 1] * 4)])
    Q = AmbiguitySet(space, [_measure(space, [1] * 12),
                             _measure(space, [2, 1] * 6)])
    return P, Q


THRESHOLD_CASES = [
    (pick, agg, op, t)
    for agg in [(max, max), (min, min), (max, min), (min, max)]
    for t in (F(5, 24), F(12, 24), F(19, 24))
    for pick in (min, max)
    for op in (GE, LT)
]


@functools.cache
def _threshold_references():
    P, Q = _threshold_pair()
    return [_reference_best(P, Q, *case) for case in THRESHOLD_CASES]


@pytest.mark.parametrize("bits", [3, 6, 10])
def test_entries_at_the_threshold_and_ties_with_the_best(bits):
    P, Q = _threshold_pair()
    with low_bits(bits):
        got = [_kernel_best(P, Q, *case) for case in THRESHOLD_CASES]
    for case, g, want in zip(THRESHOLD_CASES, got, _threshold_references()):
        assert g == want, case


def _zero_high_pair(n):
    # Q charges o0..o5 only, so at a 6-bit low block every high weight
    # of a max scan, numerator * scale - key, is negative (and some are at
    # 3 and 10 bits); P charges every outcome with weights 1 to 3.  At 14
    # outcomes and 6 bits, o12 and o13 lie above the blocks of o6..o11, so
    # the outer loop visits their 4 subset sums
    space = SampleSpace([f"o{i}" for i in range(n)])
    P = AmbiguitySet(space, [_measure(space, [1 + i % 3 for i in range(n)]),
                             _measure(space, [3 - i % 3 for i in range(n)])])
    Q = AmbiguitySet(space, [_measure(space, [1, 2, 3, 1, 2, 3] + [0] * (n - 6)),
                             _measure(space, [2, 1, 1, 2, 0, 1] + [0] * (n - 6))])
    return P, Q


ZERO_HIGH_CASES = [
    (max, agg, op, t)
    for agg in [(max, max), (min, min), (max, min), (min, max)]
    for t in (F(1, 4), F(5, 8))
    for op in (GE, LT)
]


@functools.cache
def _zero_high_references(n):
    # each event's P- and Q-masses priced once by the frozenset events,
    # then the frozenset scan per case
    P, Q = _zero_high_pair(n)
    support = ref.sorted_support(P)
    masses = {
        A: ([v(A) for v in P.vertices], [v(A) for v in Q.vertices])
        for A in ref.support_subsets(support, 20)
    }
    references = []
    for pick, (side_agg, value_agg), op, t in ZERO_HIGH_CASES:
        def qualifies(A):
            mass = side_agg(masses[A][0])
            return mass >= t if op == GE else mass < t

        references.append(
            ref.best(pick, lambda A: value_agg(masses[A][1]), qualifies, support)
        )
    return references


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("bits", [3, 6, 10])
def test_max_over_outcomes_of_zero_value_mass(monkeypatch, n, bits):
    P, Q = _zero_high_pair(n)
    settings = []
    tables = EventSpace._tables

    def counted(self, weights, const):
        low, middle, outer = tables(self, weights, const)
        settings.append(len(outer))
        return low, middle, outer

    monkeypatch.setattr(EventSpace, "_tables", counted)
    with low_bits(bits):
        got = [_kernel_best(P, Q, *case) for case in ZERO_HIGH_CASES]
    for case, g, want in zip(ZERO_HIGH_CASES, got, _zero_high_references(n)):
        assert g == want, case
    # each scan walks 2**(n - 2 * bits) settings of the bits above its
    # blocks, one per outer subset sum of every measure
    assert set(settings) == {2 ** max(n - 2 * bits, 0)}


def test_a_scan_over_no_labels_finds_the_empty_event():
    space = SampleSpace(["a"])
    events = EventSpace(space, [], 20)
    U = events.upper([_measure(space, [1])])
    assert [events.best(pick, U, (U, GE, 0)) for pick in (min, max)] == [(0, frozenset())] * 2


def test_ties_pick_the_first_event_in_order():
    # uniform masses: every event of a size ties, so the first of the
    # smallest (or largest) qualifying size must win
    space = SampleSpace(["a", "b", "c", "d", "e"])
    U = _measure(space, [1] * 5)
    for bits in LOW_BITS:
        with low_bits(bits):
            events = EventSpace(space, space.outcomes, 20)
            u = events.mass(U)
            assert events.best(min, u, (u, GE, F(2, 5))) == (F(2, 5), {"a", "b"})
            assert events.best(max, u, (u, LT, F(3, 5))) == (F(2, 5), {"a", "b"})
            assert events.best(max, u, (u, GE, 0)).event == set(space.outcomes)
            assert events.best(min, u, (u, LT, F(1, 5))) == (0, frozenset())
            assert events.best(min, u, (u, GE, 2)) is None


def test_order_is_combinations_order():
    labels = [f"o{i}" for i in range(7)]
    events = EventSpace(SampleSpace(labels), labels, 20)
    want = [frozenset(c) for k in range(8) for c in combinations(labels, k)]
    assert [events.event(m) for m in events.masks()] == want


def test_cap_reports_refused_events():
    space = SampleSpace(["a", "b", "c"])
    P = AmbiguitySet(space, [_measure(space, [1, 1, 1])])
    with pytest.raises(EnumerationCapExceeded) as info:
        hs_modulus(P, P, F(1, 2), max_enum=2)
    assert str(info.value) == "enumeration over 3 outcomes exceeds cap 2 (8 events refused)"
    assert info.value.events == 8


# ---------------------------------------------------------------------------
# the pruned asymptotic-arbitrage scanners against the unpruned scans


def _na_market(space, deltas_head, q_weights, vertices):
    """A one-asset market whose increments have zero mean under q."""
    total = sum(q_weights)
    q = [F(w, total) for w in q_weights]
    head = sum(qi * d for qi, d in zip(q, deltas_head))
    deltas = list(deltas_head) + [-head / q[-1]]
    P = AmbiguitySet(space, [_measure(space, v) for v in vertices])
    return Market(space, [0], [[d] for d in deltas], P)


@st.composite
def sequences(draw):
    n = draw(st.integers(2, 5))
    space = SampleSpace([f"o{i}" for i in range(n)])
    markets = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
        q_weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        # the first P-vertex charges every outcome, so that NA holds on
        # the quasi-sure support
        vertices = [draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))]
        vertices += draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
                max_size=2,
            )
        )
        markets.append(_na_market(space, head, q_weights, vertices))
    return MarketSequence(markets)


def _count_lps(monkeypatch):
    counter = {"lps": 0}
    solve = large_market.solve_lp

    def counted(lp):
        counter["lps"] += 1
        return solve(lp)

    monkeypatch.setattr(large_market, "solve_lp", counted)
    return counter


ALPHAS = [F(1, 4), F(1, 2), F(1)]


@settings(max_examples=60, deadline=None)
@given(seq=sequences(), c0=st.sampled_from([F(1), F(2)]))
def test_pruned_scans_match_unpruned(seq, c0):
    schedule = [c0, c0 / 2, c0 / 3]
    levels = [F(1, 4), F(1, 2), F(2, 3)]
    aa1 = scan_aa1(seq, ALPHAS, schedule)
    aa2 = scan_aa2(seq, ALPHAS, levels)
    assert aa1 == ref.scan_aa1(seq, ALPHAS, schedule)
    assert aa2 == ref.scan_aa2(seq, ALPHAS, levels)
    event(f"aa1 witness: {aa1 is not None}, aa2 witness: {aa2 is not None}")


def test_pruning_saves_lps(monkeypatch):
    # increments (1, -1) under the uniform law: no H gains 1/10 on an event
    # while losing at most 1/20 elsewhere.  Each market needs the LPs of
    # {u} and {d} only; {u, d} and every larger alpha are pruned.
    space = SampleSpace(["u", "d"])
    seq = MarketSequence([_na_market(space, [1], [1, 1], [[1, 1]])] * 3)
    alphas = [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)]
    schedule = [F(1, 20), F(1, 30), F(1, 40)]
    counter = _count_lps(monkeypatch)
    assert scan_aa1(seq, alphas, schedule) is None
    assert counter["lps"] == 3 * 2
    counter["lps"] = 0
    assert ref.scan_aa1(seq, alphas, schedule) is None
    assert counter["lps"] == 3 * 3 * 5


def _loaded_package_modules(*modules):
    """The robust_ftap modules in sys.modules of a fresh interpreter that
    imports ``modules``."""
    code = (
        f"import sys, {', '.join(modules)}; "
        "print(*(m for m in sys.modules if m.startswith('robust_ftap.')))"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


# the LP engine and every module that imports it
LP_MODULES = ("robust_ftap.lp_core", "robust_ftap.market", "robust_ftap.halmos_savage",
              "robust_ftap.large_market", "robust_ftap.cli")


def test_kernel_imports_no_lp_engine():
    # the event kernel, the claims and the measures form an LP-free core: a
    # checker built on them loads no simplex
    loaded = _loaded_package_modules(
        "robust_ftap.events", "robust_ftap.claims", "robust_ftap.measures"
    )
    assert "robust_ftap.lp_core" not in loaded


def test_codec_imports_no_lp_engine():
    # inputs and certificates parse without the solvers or the front-end
    loaded = _loaded_package_modules("robust_ftap.codec")
    assert "robust_ftap.codec" in loaded
    assert not set(LP_MODULES) & set(loaded)
