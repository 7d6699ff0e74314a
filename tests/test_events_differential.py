"""Differential tests of the integer event kernel against the frozenset
scans it replaced (`frozenset_events`).

Both enumerate the same events and break ties by the same order (size,
then lexicographic in support order), so every value, verdict and
tie-break event must be exactly equal.  The masses are drawn from small
integer weights, so that many events tie.  Each test runs at the
default 6-bit low block and also at 10 and 3 bits, so that supports of 4
to 10 outcomes take the kernel's multi-block (Gray-code) path as well as
its single-block one; supports of 11 to 13 outcomes, the size of the
benchmark's ambiguity pairs, are scanned in many blocks at every width,
most of which the kernel skips by their bounds.
"""

import os
import subprocess
import sys
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
    hs_modulus,
    indicator_restricted_value,
)
from robust_ftap.large_market import MarketSequence, _dual_modulus, scan_aa1, scan_aa2
from robust_ftap.market import Market
from robust_ftap.measures import AmbiguitySet, ProbabilityMeasure, SampleSpace

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
            assert hs_modulus(P, Q, e) == ref.hs_modulus(P, Q, e)
            assert _dual_modulus(P, Q, e, 20) == ref.dual_modulus(P, Q, e)
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


def _count_streamed(monkeypatch):
    """Counts the blocks that `best` streams rather than skips."""
    counter = {"blocks": 0}
    shifted = events_module._shifted

    def counted(offsets, lows):
        counter["blocks"] += 1
        return shifted(offsets, lows)

    monkeypatch.setattr(events_module, "_shifted", counted)
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
    counter = _count_streamed(monkeypatch)
    with low_bits(bits):
        got = _kernel_best(P, Q, pick, agg, op, t)
    assert got is not None
    assert got == _reference_best(P, Q, pick, agg, op, t)
    # each streamed block shifts the side and the value tables once
    if bits == 6:
        assert 0 < counter["blocks"] // 2 <= 64 - skipped


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
