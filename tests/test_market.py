"""One-period market layer: no-arbitrage, martingale vertices, FTAP
equivalence and superhedging duality."""

import random
from fractions import Fraction

import pytest

from robust_ftap import lp_core, market
from robust_ftap.errors import EnumerationCapExceeded, NaViolated
from robust_ftap.market import (
    Market,
    charging_claims,
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

W2 = SampleSpace(["u", "d"])
W3 = SampleSpace(["u", "m", "d"])


def pm(space, *mass):
    return ProbabilityMeasure(space, mass)


def market_from_deltas(space, deltas, vertices=None):
    """One-asset market with the given increment per outcome."""
    if vertices is None:
        vertices = [[F(1, space.size)] * space.size]
    P = AmbiguitySet(space, [pm(space, *v) for v in vertices])
    return Market(space, [0], [[d] for d in deltas], P)


class TestCheckNa:
    def test_balanced_increments(self):
        m = market_from_deltas(W2, [1, F(-1, 2)])
        holds, witness = check_na(m)
        assert holds and witness is None

    def test_one_sided_increments(self):
        m = market_from_deltas(W2, [1, 0])
        holds, witness = check_na(m)
        assert not holds
        assert witness.strict_outcome == "u"
        assert m.gain(witness.H, "u") > 0
        assert all(m.gain(witness.H, o) >= 0 for o in m.support)

    def test_no_assets(self):
        space = W2
        P = AmbiguitySet(space, [pm(space, F(1, 2), F(1, 2))])
        m = Market(space, [], [[], []], P)
        assert check_na(m) == (True, None)

    def test_zero_increments(self):
        m = market_from_deltas(W2, [0, 0])
        assert check_na(m)[0]

    def test_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 4)
            space = SampleSpace([f"o{i}" for i in range(n)])
            deltas = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            m = market_from_deltas(space, deltas)
            c = F(rng.randint(1, 7), rng.randint(1, 7))
            scaled = market_from_deltas(space, [c * d for d in deltas])
            assert check_na(m)[0] == check_na(scaled)[0]
            holds, witness = check_na(m)
            if not holds:
                # positive rescaling of the witness stays a witness
                H2 = tuple(2 * h for h in witness.H)
                assert all(m.gain(H2, o) >= 0 for o in m.support)
                assert m.gain(H2, witness.strict_outcome) > 0


class TestMartingalePolytope:
    def test_unique_vertex(self):
        m = market_from_deltas(W2, [1, F(-1, 2)])
        poly = martingale_polytope(m)
        assert [v.mass for v in poly.vertices] == [(F(1, 3), F(2, 3))]

    def test_one_dimensional_family(self):
        m = market_from_deltas(W3, [1, 0, -1])
        poly = martingale_polytope(m)
        assert sorted(v.mass for v in poly.vertices) == [
            (F(0), F(1), F(0)),
            (F(1, 2), F(0), F(1, 2)),
        ]

    def test_forced_zero_mass(self):
        m = market_from_deltas(W2, [1, 0])
        poly = martingale_polytope(m)
        assert [v.mass for v in poly.vertices] == [(F(0), F(1))]

    def test_vertices_are_martingale_measures(self):
        rng = random.Random(31)
        for _ in range(60):
            m = _random_market(rng)
            for v in martingale_polytope(m).vertices:
                for i in range(m.d):
                    assert sum(
                        v.mass_of(o) * m.delta_s(o)[i] for o in m.support
                    ) == 0

    def test_convexity_midpoints(self):
        rng = random.Random(47)
        for _ in range(40):
            m = _random_market(rng)
            poly = martingale_polytope(m)
            if len(poly.vertices) < 2:
                continue
            a, b = rng.sample(list(poly.vertices), 2)
            mid = ProbabilityMeasure(
                m.space, [(x + y) / 2 for x, y in zip(a.mass, b.mass)]
            )
            assert mid.support <= set(m.support)
            m.martingale_claims(mid, "midpoint")  # raises if E_mid[dS] != 0


def _random_market(rng, max_outcomes=6, max_assets=3, max_vertices=4):
    n = rng.randint(1, max_outcomes)
    space = SampleSpace([f"o{i}" for i in range(n)])
    d = rng.randint(0, max_assets)
    s0 = [F(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(d)]
    s1 = [
        [F(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(d)]
        for _ in range(n)
    ]
    vertices = []
    for _ in range(rng.randint(1, max_vertices)):
        denom = rng.randint(1, 10)
        counts = [0] * n
        for _ in range(denom):
            counts[rng.randrange(n)] += 1
        vertices.append(ProbabilityMeasure(space, [F(c, denom) for c in counts]))
    return Market(space, s0, s1, AmbiguitySet(space, vertices))


class TestFtap:
    def test_balanced_market_dominates_diracs(self):
        m = market_from_deltas(W2, [1, F(-1, 2)], vertices=[[1, 0], [0, 1]])
        ok, per_vertex = check_ftap(m)
        assert ok
        for _, q in per_vertex:
            assert q.mass == (F(1, 3), F(2, 3))

    def test_arbitrage_market_has_no_dominating_q(self):
        m = market_from_deltas(W2, [1, 0])
        na, per_vertex = check_ftap(m)
        assert not na
        assert all(q is None for _, q in per_vertex)

    def test_zero_increment_market(self):
        m = market_from_deltas(W2, [0, 0])
        ok, per_vertex = check_ftap(m)
        assert ok
        for vp, q in per_vertex:
            assert q is not None
            # every P in the ambiguity set is itself a martingale measure
            assert find_dominating_martingale(m, vp) is not None

    def test_randomized_equivalence(self):
        rng = random.Random(11)
        for _ in range(150):
            m = _random_market(rng)
            na, _ = check_ftap(m)  # equivalence asserted internally
            assert na == check_na(m)[0]

    def test_na_reuses_the_full_support_measure(self, monkeypatch):
        # under NA the one LP of check_na gives every vertex its dominating
        # measure; under arbitrage each vertex is searched on its own
        solved = [0]
        solve = market.solve_lp

        def solve_counted(lp):
            solved[0] += 1
            return solve(lp)

        monkeypatch.setattr(market, "solve_lp", solve_counted)
        rng = random.Random(24)
        seen = {True: 0, False: 0}
        for _ in range(200):
            m = _random_market(rng)
            solved[0] = 0
            na, per_vertex = check_ftap(m)
            seen[na] += 1
            assert [vp for vp, _ in per_vertex] == list(m.P.vertices)
            qs = [q for _, q in per_vertex]
            if na:
                assert solved[0] == 1
                q = full_support_martingale(m)
                for vp, qv in per_vertex:
                    assert qv is q
                    m.martingale_claims(qv, "dominating Q")
                    charging_claims(vp, qv)
            else:
                assert qs == [find_dominating_martingale(m, vp) for vp in m.P.vertices]
                assert None in qs
        assert min(seen.values()) >= 20


class TestSuperhedge:
    def test_digital_payoff(self):
        m = market_from_deltas(W2, [1, F(-1, 2)])
        f = BoundedFunction(W2, [1, 0])
        cert = superhedge(m, f)
        assert cert.price == F(1, 3)
        assert cert.H == (F(2, 3),)
        assert cert.attaining_q.mass == (F(1, 3), F(2, 3))

    def test_constant_payoff_replicable(self):
        rng = random.Random(53)
        for c in (F(0), F(3), F(-7, 2)):
            m = market_from_deltas(W2, [1, F(-1, 2)])
            cert = superhedge(m, BoundedFunction(W2, [c, c]))
            assert cert.price == c

    def test_three_outcome_digital(self):
        m = market_from_deltas(W3, [1, 0, -1])
        cert = superhedge(m, BoundedFunction(W3, [0, 1, 0]))
        # vertex (0,1,0) prices the middle digital at 1
        assert cert.price == 1
        for o in m.support:
            assert cert.price + m.gain(cert.H, o) >= cert.payoff.value_at(o)

    def test_requires_na(self):
        m = market_from_deltas(W2, [1, 0])
        with pytest.raises(NaViolated):
            superhedge(m, BoundedFunction(W2, [1, 0]))

    def test_duality_randomized(self):
        rng = random.Random(59)
        seen = 0
        while seen < 60:
            m = _random_market(rng, max_outcomes=5)
            if not check_na(m)[0]:
                continue
            seen += 1
            values = [
                F(rng.randint(-5, 5), rng.randint(1, 5))
                for _ in range(m.space.size)
            ]
            f = BoundedFunction(m.space, values)
            cert = superhedge(m, f)
            best = max(
                v.expectation(f) for v in martingale_polytope(m).vertices
            )
            assert cert.price == best


@pytest.fixture
def work(monkeypatch):
    """Counts the LPs, phase 1 runs, vertex enumerations and integer
    pivots (the tableau's and the row reductions') that `market` asks
    for."""
    count = {"lp": 0, "phase1": 0, "enum": 0, "pivot": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(market, "solve_lp", counting("lp", market.solve_lp))
    monkeypatch.setattr(lp_core, "_phase_one", counting("phase1", lp_core._phase_one))
    monkeypatch.setattr(
        market, "enumerate_basic_feasible", counting("enum", market.enumerate_basic_feasible)
    )
    monkeypatch.setattr(lp_core, "_pivot", counting("pivot", lp_core._pivot))
    return count


def _payoffs(m, rng, k=3):
    return [
        BoundedFunction(m.space, [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in m.space.outcomes])
        for _ in range(k)
    ]


class TestMarketCaches:
    def test_second_calls_solve_and_pivot_nothing(self, work):
        rng = random.Random(26)
        seen = {True: 0, False: 0}
        for _ in range(80):
            m = _random_market(rng)
            first = (check_na(m), check_ftap(m), martingale_polytope(m).vertices)
            seen[first[0][0]] += 1
            before = dict(work)
            again = (check_na(m), check_ftap(m), martingale_polytope(m).vertices)
            assert again == first
            assert work == before
        assert min(seen.values()) >= 20

    def test_superhedges_share_one_phase_one(self, work):
        rng = random.Random(27)
        seen = 0
        while seen < 30:
            m = _random_market(rng)
            if not check_na(m)[0]:
                continue
            seen += 1
            for k, f in enumerate(_payoffs(m, rng)):
                lps, runs = work["lp"], work["phase1"]
                cert = superhedge(m, f)
                assert (work["lp"] - lps, work["phase1"] - runs) == (1, int(k == 0))
                assert cert.price == max(
                    v.expectation(f) for v in martingale_polytope(m).vertices
                )

    def test_equal_markets_share_no_answer(self, work):
        # equal markets compare and hash alike, filled caches or not, but
        # each works out its own answers: nothing is kept outside the market
        rng = random.Random(28)
        for s1 in ([[2], [0]], [[2], [1]]):  # NA, then arbitrage
            P = AmbiguitySet(W2, [pm(W2, F(1, 2), F(1, 2)), pm(W2, 1, 0)])
            m, twin = Market(W2, [1], s1, P), Market(W2, [1], s1, P)
            na, _ = check_na(m)
            check_ftap(m)
            martingale_polytope(m)
            for f in _payoffs(m, rng) if na else ():
                superhedge(m, f)
            assert m == twin and hash(m) == hash(twin)
            before = dict(work)
            assert check_na(twin) == check_na(m)
            assert check_ftap(twin) == check_ftap(m)
            assert martingale_polytope(twin).vertices == martingale_polytope(m).vertices
            assert work["lp"] == before["lp"] + (1 if na else 2)
            assert work["enum"] == before["enum"] + 1
            if na:
                superhedge(twin, _payoffs(twin, rng, 1)[0])
                # check_na's LP and the first superhedge's: each runs its
                # own phase 1, none is taken from the equal market
                assert work["phase1"] - before["phase1"] == work["lp"] - before["lp"] == 2
                assert twin._martingale_lp is not m._martingale_lp
                assert twin._martingale_lp == m._martingale_lp

    def test_cap_is_checked_on_every_call(self):
        m = market_from_deltas(W3, [1, 0, -1])
        poly = martingale_polytope(m)
        assert len(poly.vertices) == 2
        for _ in range(2):
            with pytest.raises(EnumerationCapExceeded) as err:
                martingale_polytope(m, max_enum=2)
            assert (err.value.size, err.value.cap, err.value.bases) == (3, 2, 3)
        assert martingale_polytope(m, max_enum=3).vertices == poly.vertices

    def test_ftap_lists_are_fresh(self):
        for deltas in ([1, F(-1, 2)], [1, 0]):
            m = market_from_deltas(W2, deltas, vertices=[[1, 0], [F(1, 2), F(1, 2)]])
            na, per_vertex = check_ftap(m)
            want = list(per_vertex)
            per_vertex.clear()
            per_vertex.append(("forged", None))
            assert check_ftap(m) == (na, want)
            assert check_ftap(m)[1] is not check_ftap(m)[1]

    def test_arbitrage_skips_vertices_charging_the_whole_support(self, work):
        # check_na's LP charges the whole quasi-sure support and failed; a
        # vertex with that support would solve it again, so it gets None
        # without an LP, and every other vertex pays one LP
        rng = random.Random(29)
        seen = 0
        for _ in range(400):
            m = _random_market(rng)
            if check_na(m)[0]:
                continue
            full = set(m.support)
            skipped = sum(vp.support == full for vp in m.P.vertices)
            seen += skipped > 0
            lps = work["lp"]
            na, per_vertex = check_ftap(m)
            assert not na
            assert work["lp"] - lps == len(m.P.vertices) - skipped
            assert [q for _, q in per_vertex] == [
                find_dominating_martingale(m, vp) for vp in m.P.vertices
            ]
        assert seen >= 20
