"""One-period market layer: no-arbitrage, martingale vertices, FTAP
equivalence and superhedging duality."""

import random
from fractions import Fraction

import pytest

from robust_ftap.errors import NaViolated
from robust_ftap.market import (
    Market,
    check_ftap,
    check_na,
    find_dominating_martingale,
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
            assert poly.contains(mid)


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
            cert = superhedge(m, f)  # asserts LP price == vertex price
            best = max(
                v.expectation(f) for v in martingale_polytope(m).vertices
            )
            assert cert.price == best
