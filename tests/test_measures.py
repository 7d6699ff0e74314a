"""Measure-theory layer: measures, supports, domination."""

import random
from fractions import Fraction
from itertools import product

import pytest

from robust_ftap.errors import DimensionMismatch
from robust_ftap.measures import (
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
    dominated_by,
    mix,
    quasi_sure_support,
)

F = Fraction

W2 = SampleSpace(["w1", "w2"])
W3 = SampleSpace(["w1", "w2", "w3"])


def pm(space, *mass):
    return ProbabilityMeasure(space, mass)


class TestSampleSpace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSpace([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SampleSpace(["a", "a"])

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            SampleSpace(["a", ""])

    def test_index_order(self):
        assert W3.index("w2") == 1
        with pytest.raises(KeyError):
            W3.index("nope")


class TestProbabilityMeasure:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProbabilityMeasure(W2, [F(1, 2), F(1, 3)])

    def test_no_negative_mass(self):
        with pytest.raises(ValueError):
            ProbabilityMeasure(W2, [F(3, 2), F(-1, 2)])

    def test_support_is_derived(self):
        assert pm(W3, F(1, 2), 0, F(1, 2)).support == {"w1", "w3"}

    def test_event_mass(self):
        p = pm(W3, F(1, 6), F(1, 3), F(1, 2))
        assert p({"w1", "w3"}) == F(2, 3)
        assert p(set()) == 0

    def test_expectation(self):
        p = pm(W2, F(1, 3), F(2, 3))
        f = BoundedFunction(W2, [3, -3])
        assert p.expectation(f) == -1


class TestQuasiSureSupport:
    def test_dirac_union(self):
        P = AmbiguitySet(W2, [pm(W2, 1, 0), pm(W2, 0, 1)])
        assert quasi_sure_support(P) == {"w1", "w2"}

    def test_single_dirac(self):
        P = AmbiguitySet(W2, [pm(W2, 1, 0)])
        assert quasi_sure_support(P) == {"w1"}

    def test_overlapping_pair(self):
        P = AmbiguitySet(
            W3,
            [pm(W3, F(1, 2), F(1, 2), 0), pm(W3, 0, F(1, 2), F(1, 2))],
        )
        assert quasi_sure_support(P) == {"w1", "w2", "w3"}

    def test_positive_mixture_support_law(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 4)
            space = SampleSpace([f"o{i}" for i in range(n)])
            k = rng.randint(1, 3)
            vertices = [_random_measure(space, rng) for _ in range(k)]
            P = AmbiguitySet(space, vertices)
            weights = [F(1, k)] * k  # strictly positive
            assert mix(vertices, weights).support == quasi_sure_support(P)


def _random_measure(space, rng, denom=8):
    counts = [0] * space.size
    for _ in range(denom):
        counts[rng.randrange(space.size)] += 1
    return ProbabilityMeasure(space, [F(c, denom) for c in counts])


def _quarter_measures(n):
    """All probability vectors on n outcomes with masses in {0,1/4,1/2,3/4,1}."""
    space = SampleSpace([f"o{i}" for i in range(n)])
    out = []
    for combo in product(range(5), repeat=n):
        if sum(combo) == 4:
            out.append(ProbabilityMeasure(space, [F(c, 4) for c in combo]))
    return space, out


def _dominated_brute_force(Q, vertices, max_denominator=8):
    """Search for a mixture of the vertices whose support covers supp(Q)."""
    k = len(vertices)
    grids = []
    for d in range(1, max_denominator + 1):
        for combo in product(range(d + 1), repeat=k):
            if sum(combo) == d:
                grids.append([F(c, d) for c in combo])
    for weights in grids:
        mixture = mix(vertices, weights)
        if Q.support <= mixture.support:
            return True
    return False


class TestDominatedBy:
    def test_examples(self):
        P = AmbiguitySet(W2, [pm(W2, 1, 0), pm(W2, 0, 1)])
        assert dominated_by(pm(W2, 0, 1), P)
        assert not dominated_by(
            pm(W2, F(1, 2), F(1, 2)), AmbiguitySet(W2, [pm(W2, 1, 0)])
        )
        P3 = AmbiguitySet(W3, [pm(W3, F(1, 2), F(1, 2), 0)])
        assert dominated_by(pm(W3, F(1, 3), F(2, 3), 0), P3)

    def test_space_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dominated_by(pm(W2, 1, 0), AmbiguitySet(W3, [pm(W3, 1, 0, 0)]))

    def test_matches_brute_force_exhaustive_small(self):
        # all spaces with |outcomes| <= 3, up to 2 vertices, quarter-grid masses
        for n in (1, 2, 3):
            space, measures = _quarter_measures(n)
            singles = [[v] for v in measures]
            pairs = [[a, b] for a in measures for b in measures]
            for vertices in singles + pairs:
                P = AmbiguitySet(space, vertices)
                for Q in measures:
                    assert dominated_by(Q, P) == _dominated_brute_force(Q, vertices)

    def test_matches_brute_force_sampled_larger(self):
        # |outcomes| = 4 with 3 vertices, sampled
        space, measures = _quarter_measures(4)
        rng = random.Random(19)
        for _ in range(300):
            vertices = [rng.choice(measures) for _ in range(3)]
            Q = rng.choice(measures)
            P = AmbiguitySet(space, vertices)
            assert dominated_by(Q, P) == _dominated_brute_force(Q, vertices)


class TestMix:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            mix([pm(W2, 1, 0), pm(W2, 0, 1)], [F(1, 2), F(1, 3)])

    def test_convex_combination(self):
        q = mix([pm(W2, 1, 0), pm(W2, 0, 1)], [F(1, 4), F(3, 4)])
        assert q.mass == (F(1, 4), F(3, 4))
