"""Differential and count tests of the one-LP no-arbitrage decision.

`market.check_na` decides no-arbitrage with one LP for a martingale
measure charging the whole quasi-sure support and reads the arbitrage off
that LP's checked dual.  On hypothesis-drawn markets (no assets, redundant
assets, arbitrage, and markets whose martingale measures all miss part of
the support) the verdict must equal that of the per-outcome search of
`na_reference.reference_check_na`; under no-arbitrage the returned
measure must be a full-support martingale measure, and otherwise H must
gain >= 0 on the support and > 0 first at its strict outcome (an
arbitrage is not unique, so H itself may differ from the reference's).
Every market LP is built on the d+1 equality rows of the martingale
system; on the same markets the charging LPs of `check_na` and of each
P-vertex and the superhedge LP must agree with the row-per-outcome LPs
of `market_reference` that they replaced.  The count tests pin the LPs a
market costs, one paid once, and their shape and pivots on a golden
market.
"""

import json
import os
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from market_reference import reference_charging_lp, reference_superhedge_lp
from na_reference import reference_check_na
from robust_ftap import lp_core, market
from robust_ftap.cli import load_market
from robust_ftap.codec import load_payoff
from robust_ftap.large_market import MarketSequence
from robust_ftap.market import (
    Market,
    check_ftap,
    check_na,
    find_dominating_martingale,
    full_support_martingale,
    martingale_polytope,
    superhedge,
)
from robust_ftap.measures import (
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
)

F = Fraction

small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
KINDS = ("drawn", "no assets", "redundant", "arbitrage", "martingale, none full")


@st.composite
def markets(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2 if kind == "martingale, none full" else 1, 6))
    d = 0 if kind == "no assets" else draw(st.integers(1, 3))
    cols = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(d)]
    if kind in ("drawn", "redundant") and draw(st.booleans()):
        # centred columns: the uniform law is a martingale measure
        cols = [[x - sum(col) / n for x in col] for col in cols]
    space = SampleSpace([f"o{k}" for k in range(n)])
    if kind == "drawn":
        # P-vertices on drawn supports: outcomes outside them are ignored
        vertices = []
        for _ in range(draw(st.integers(1, 3))):
            weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            if not any(weights):
                weights[draw(st.integers(0, n - 1))] = 1
            vertices.append([F(w, sum(weights)) for w in weights])
    else:
        vertices = [[F(1, n)] * n]
    if kind == "redundant":
        a, b = draw(small), draw(small)
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        cols.append([a * x + b * y for x, y in zip(cols[i], cols[j])])
    if kind in ("arbitrage", "martingale, none full"):
        # asset 0 never falls and rises somewhere: H = e_0 is an arbitrage
        rise = draw(st.integers(0, n - 1))
        cols[0] = [abs(x) for x in cols[0]]
        cols[0][rise] = draw(st.integers(1, 3))
    if kind == "martingale, none full":
        # another outcome is flat: its point mass is a martingale measure
        flat = draw(st.integers(0, n - 2))
        flat += flat >= rise
        for col in cols:
            col[flat] = F(0)
    P = AmbiguitySet(space, [ProbabilityMeasure(space, v) for v in vertices])
    s1 = [[col[k] for col in cols] for k in range(n)]
    return kind, Market(space, [0] * len(cols), s1, P)


@settings(max_examples=300, deadline=None)
@given(markets())
def test_matches_per_outcome_search(drawn):
    kind, m = drawn
    holds, witness = check_na(m)
    want_holds, want_witness = reference_check_na(m)
    event(f"{kind}: {'NA' if holds else 'arbitrage'}")
    assert holds == want_holds
    q = full_support_martingale(m)
    if holds:
        assert witness is None
        assert q.support == set(m.support)
        for i in range(m.d):
            assert sum(q.mass_of(o) * m.delta_s(o)[i] for o in m.support) == 0
    else:
        assert q is None and want_witness is not None
        gains = [m.gain(witness.H, o) for o in m.support]
        assert all(g >= 0 for g in gains)
        first = next(k for k, g in enumerate(gains) if g > 0)
        assert witness.strict_outcome == m.support[first]
    if kind in ("arbitrage", "martingale, none full"):
        assert not holds
    if kind == "martingale, none full":
        assert martingale_polytope(m).vertices


@settings(max_examples=300, deadline=None)
@given(markets(), st.data())
def test_matches_row_per_outcome_lps(drawn, data):
    kind, m = drawn
    holds, _ = check_na(m)
    # the full support (check_na), then each P-vertex's support
    # (find_dominating_martingale): same status and t*, and q, like the
    # reference's, is a martingale measure charging the charged outcomes
    # (an optimal q is not unique, so its other masses may differ)
    qs = [full_support_martingale(m)] + [
        find_dominating_martingale(m, vp) for vp in m.P.vertices
    ]
    supports = [m.support] + [
        [o for o in m.support if vp.mass_of(o) > 0] for vp in m.P.vertices
    ]
    for charged, q in zip(supports, qs):
        want = lp_core.solve_lp(reference_charging_lp(m, charged))
        got, _ = market._max_charge(m, charged)
        assert got.status == want.status
        if got.status == "Infeasible":
            assert q is None
            continue
        assert got.value == want.value
        if want.value == 0:
            assert q is None
            continue
        assert min(q.mass_of(o) for o in charged) == want.value
        want_q = m.measure(want.primal[:len(m.support)])
        assert set(charged) <= q.support & want_q.support
        assert q.support <= set(m.support)
        m.martingale_claims(q, "q")
    if not holds:
        return
    f = BoundedFunction(
        m.space, data.draw(st.lists(small, min_size=m.space.size, max_size=m.space.size))
    )
    cert = superhedge(m, f)
    want = lp_core.solve_lp(reference_superhedge_lp(m, f))
    assert want.status == "Optimal" and cert.price == want.value
    for o in m.support:
        assert f.value_at(o) <= cert.price + m.gain(cert.H, o)
    assert cert.attaining_q.expectation(f) == cert.price


def _fresh_na_market():
    space = SampleSpace(["u", "m", "d"])
    P = AmbiguitySet(space, [ProbabilityMeasure(space, ["1/3", "1/3", "1/3"])])
    return Market(space, [1], [[2], [1], [0]], P)


@pytest.fixture
def counted(monkeypatch):
    """Counts the LPs solved in `market`; vertex enumeration must not run."""
    calls = {"lp": 0}
    solve = market.solve_lp

    def solve_counted(lp):
        calls["lp"] += 1
        return solve(lp)

    def refuse(*args):
        raise AssertionError("vertex enumeration called")

    monkeypatch.setattr(market, "solve_lp", solve_counted)
    monkeypatch.setattr(market, "enumerate_basic_feasible", refuse)
    return calls


def test_check_na_solves_one_lp_once(counted):
    m = _fresh_na_market()
    assert check_na(m) == (True, None)
    assert counted["lp"] == 1
    assert check_na(m) == (True, None)
    assert full_support_martingale(m).mass == (F(1, 3), F(1, 3), F(1, 3))
    MarketSequence([m, m])
    assert counted["lp"] == 1


def test_superhedge_solves_one_lp_per_call(counted):
    m = _fresh_na_market()
    check_na(m)
    counted["lp"] = 0
    for values in ([1, 0, 0], [0, 1, 0], [3, 0, 3]):
        superhedge(m, BoundedFunction(m.space, values))
    assert counted["lp"] == 3


def test_verdict_is_stored_on_the_market(counted):
    m, twin = _fresh_na_market(), _fresh_na_market()
    check_na(m)
    # equal markets compare and hash alike, filled cache or not, but share
    # no verdict: nothing is kept outside the market object
    assert m == twin and hash(m) == hash(twin)
    check_na(twin)
    assert counted["lp"] == 2


def test_arbitrage_market_pays_the_search_once(counted):
    space = SampleSpace(["u", "d"])
    P = AmbiguitySet(space, [ProbabilityMeasure(space, ["1/2", "1/2"])])
    # increments (1, 0): t* = 0, H from the dual; increments (1, 1): no
    # martingale measure at all, H from the Farkas multipliers
    for s1 in ([[2], [1]], [[2], [2]]):
        counted["lp"] = 0
        m = Market(space, [1], s1, P)
        holds, witness = check_na(m)
        assert not holds and witness.strict_outcome == "u"
        # the full-support LP alone, whose dual names H
        assert counted["lp"] == 1
        assert check_na(m) == (False, witness)
        assert counted["lp"] == 1


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_market_lps_are_the_martingale_system(monkeypatch):
    """check_ftap and superhedge on market_two_assets.json, which holds NA,
    solve two LPs: check_na's and the superhedge's; then the two P-vertices
    of find_dominating_martingale.  Each LP has exactly the d+1 martingale
    rows, all equalities, over the support's masses (and t for a charging
    LP); the simplex pivots of each are pinned, the superhedge's as those
    of its phase 1, which it runs on the market's martingale LP and keeps
    there for later payoffs, plus those of its phase 2."""
    m = load_market(_golden("market_two_assets.json"))
    f = load_payoff(_golden("payoff_two_assets.json"), m.space)
    solved, pivots = [], [0]
    solve, pivot = market.solve_lp, lp_core._Tableau.pivot

    def solve_counted(lp):
        # the pivots since the last LP, phase 1 included
        sol = solve(lp)
        solved.append((lp, pivots[0]))
        pivots[0] = 0
        return sol

    def pivot_counted(tab, r, j):
        pivots[0] += 1
        pivot(tab, r, j)

    monkeypatch.setattr(market, "solve_lp", solve_counted)
    monkeypatch.setattr(lp_core._Tableau, "pivot", pivot_counted)
    assert check_ftap(m)[0]
    superhedge(m, f)
    assert len(solved) == 2
    for vp in m.P.vertices:
        assert find_dominating_martingale(m, vp) is not None
    assert len(solved) == 2 + len(m.P.vertices)
    for lp, _ in solved:
        assert [row.relation for row in lp.constraints] == ["="] * (m.d + 1)
        assert [row.rhs for row in lp.constraints] == [1] + [0] * m.d
    size = len(m.support)
    assert [lp.num_vars for lp, _ in solved] == [size + 1, size] + [size + 1] * len(m.P.vertices)
    assert [n for _, n in solved] == [4, 4, 4, 4]
