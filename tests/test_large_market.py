"""Market families: asymptotic-arbitrage scanners, uniform moduli, and
contiguity constructions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from free_columns import standard_form
from robust_ftap import large_market
from robust_ftap.errors import EnumerationCapExceeded
from robust_ftap.halmos_savage import NO_QUALIFYING_SET
from robust_ftap.large_market import (
    Aa1Witness,
    MarketSequence,
    build_contiguous_sequence,
    certify_moduli,
    martingale_contradiction_margin,
    martingale_sets,
    scan_aa1,
    scan_aa2,
    weak_contiguity_witness,
)
from robust_ftap.lp_core import GE, LE, Constraint, solve_lp
from robust_ftap.market import Market, check_na
from robust_ftap.measures import (
    AmbiguitySet,
    ProbabilityMeasure,
    SampleSpace,
    mix,
)

F = Fraction

W2 = SampleSpace(["u", "d"])
HALF = ProbabilityMeasure(W2, [F(1, 2), F(1, 2)])


def one_asset(deltas, vertices):
    space = W2
    P = AmbiguitySet(space, vertices)
    return Market(space, [0], [[d] for d in deltas], P)


def shrinking_family(N=20):
    """Increments (1, -1/n): the downside vanishes along the family."""
    return MarketSequence(
        [one_asset([1, F(-1, n)], [HALF]) for n in range(1, N + 1)]
    )


def flat_family(N=20):
    """Increments (1, -1) for every market: nothing improves along n."""
    return MarketSequence([one_asset([1, -1], [HALF]) for _ in range(N)])


def widening_family(N=10):
    """Ambiguity grows toward the Dirac at the up outcome."""
    markets = []
    for n in range(2, N + 2):
        P = AmbiguitySet(
            W2,
            [
                ProbabilityMeasure(W2, [1 - F(1, n), F(1, n)]),
                ProbabilityMeasure(W2, [F(1, n), 1 - F(1, n)]),
            ],
        )
        markets.append(Market(W2, [0], [[1], [-1]], P))
    return MarketSequence(markets)


def all_events(support):
    support = sorted(support)
    for size in range(len(support) + 1):
        yield from (frozenset(c) for c in combinations(support, size))


class TestMarketSequence:
    def test_rejects_arbitrage_member(self):
        with pytest.raises(ValueError):
            MarketSequence([one_asset([1, 0], [HALF])])


class TestScanAa1:
    def test_positive_control(self):
        seq = shrinking_family()
        w = scan_aa1(
            seq,
            alpha_grid=[F(1, 2)],
            c_schedule=[F(1, k) for k in range(1, 21)],
        )
        assert isinstance(w, Aa1Witness)
        assert w.alpha == F(1, 2)
        assert w.indices == tuple(range(1, 21))
        for k, (n, H, c_k, P_k) in enumerate(
            zip(w.indices, w.strategies, w.bounds, w.measures), start=1
        ):
            m = seq.markets[n - 1]
            assert all(m.gain(H, o) >= -c_k for o in m.support)
            event = frozenset(o for o in m.support if m.gain(H, o) >= w.alpha)
            assert P_k(event) >= w.alpha

    def test_negative_control(self):
        seq = flat_family()
        assert scan_aa1(seq, c_schedule=[F(1, k) for k in range(1, 21)]) is None
        assert scan_aa1(seq) is None

    def test_martingale_contradiction_margin(self):
        seq = shrinking_family()
        w = scan_aa1(
            seq,
            alpha_grid=[F(1, 2)],
            c_schedule=[F(1, k) for k in range(1, 21)],
        )
        for n, H, c_k in zip(w.indices, w.strategies, w.bounds):
            margin = martingale_contradiction_margin(
                seq.markets[n - 1], H, w.alpha
            )
            assert margin == F(1, n + 1)
            assert margin <= c_k / w.alpha

    def test_schedule_validation(self):
        seq = flat_family(2)
        with pytest.raises(ValueError):
            scan_aa1(seq, c_schedule=[F(1, 2), F(1, 2)])  # not decreasing
        with pytest.raises(ValueError):
            scan_aa1(seq, c_schedule=[0])


class TestSlotFiller:
    """The slot search shared by both scanners."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"lps": 0, "events": []}
        solve, events = large_market.solve_lp, large_market.support_events

        def counted_solve(lp):
            counts["lps"] += 1
            return solve(lp)

        def counted_events(P, max_enum):
            counts["events"].append(id(P))
            return events(P, max_enum)

        monkeypatch.setattr(large_market, "solve_lp", counted_solve)
        monkeypatch.setattr(large_market, "support_events", counted_events)
        return counts

    @pytest.mark.parametrize("alpha", [F(0), F(-1)])
    def test_alpha_must_be_positive(self, alpha):
        seq = shrinking_family(3)
        with pytest.raises(ValueError, match="alpha"):
            scan_aa1(seq, alpha_grid=[F(1, 2), alpha], c_schedule=[1])
        with pytest.raises(ValueError, match="alpha"):
            scan_aa2(seq, alpha_grid=[alpha], target_levels=[F(1, 2)])

    @pytest.mark.parametrize("level", [F(0), F(-1)])
    def test_target_level_must_be_positive(self, level):
        # a level of 0 is met by any event, so the witness would be vacuous
        seq = flat_family(3)
        with pytest.raises(ValueError, match="target levels"):
            scan_aa2(seq, alpha_grid=[F(1, 2)], target_levels=[level])
        with pytest.raises(ValueError, match="target levels"):
            scan_aa2(seq, alpha_grid=[F(1, 2)], target_levels=[level, F(1, 2)])

    def test_empty_schedules_solve_nothing(self, counts):
        seq = shrinking_family(3)
        assert scan_aa1(seq, c_schedule=[]) is None
        assert scan_aa2(seq, target_levels=[]) is None
        assert counts["lps"] == 0

    def test_events_built_once_per_visited_market(self, counts):
        # no alpha of the default grid fills a slot, so every alpha visits
        # all three markets
        seq = flat_family(3)
        assert scan_aa1(seq, c_schedule=[F(1, 20), F(1, 30), F(1, 40)]) is None
        assert counts["lps"] > 0
        assert sorted(counts["events"]) == sorted(id(m.P) for m in seq.markets)
        counts["events"].clear()
        assert scan_aa2(seq, target_levels=[F(3, 4)] * 3) is None
        assert sorted(counts["events"]) == sorted(id(m.P) for m in seq.markets)

    def test_unreached_market_is_not_enumerated(self, counts):
        # market 2 has more outcomes than the cap, but slot 1 is filled on
        # market 1 and nothing later is visited
        W3 = SampleSpace(["u", "m", "d"])
        uniform = ProbabilityMeasure(W3, [F(1, 3)] * 3)
        wide = Market(W3, [0], [[1], [0], [-1]], AmbiguitySet(W3, [uniform]))
        seq = MarketSequence([shrinking_family(1).markets[0], wide])
        w = scan_aa1(seq, alpha_grid=[F(1, 2)], c_schedule=[1], max_enum=2)
        assert w.indices == (1,)
        assert counts["events"] == [id(seq.markets[0].P)]
        with pytest.raises(EnumerationCapExceeded):
            scan_aa1(seq, alpha_grid=[F(1, 2)], c_schedule=[1, F(1, 2)], max_enum=2)


def _random_market(rng):
    """d in {1, 2, 3} assets on 4-8 outcomes; one or two P-vertices, which
    may leave some outcomes off the support."""
    n, d = rng.randint(4, 8), rng.randint(1, 3)
    space = SampleSpace([f"w{i}" for i in range(n)])
    vertices = []
    for _ in range(rng.randint(1, 2)):
        mass = [rng.randint(0, 3) for _ in range(n)]
        mass[rng.randrange(n)] += 1
        vertices.append(ProbabilityMeasure(space, [F(v, sum(mass)) for v in mass]))
    s0 = [F(rng.randint(1, 4)) for _ in range(d)]
    s1 = [[s + F(rng.randint(-6, 6), rng.randint(1, 4)) for s in s0] for _ in range(n)]
    return Market(space, s0, s1, AmbiguitySet(space, vertices))


def _box_rows_feasible(m, event, alpha, floor):
    """The strategy LP with H free (two nonnegative columns per asset) and
    the box [-1, 1]^d as rows H_j >= -1 and H_j <= 1 after the target
    rows."""
    rows = [
        Constraint(m.delta_s(o), GE, alpha if o in event else -floor)
        for o in m.support
    ]
    for j in range(m.d):
        unit = [int(k == j) for k in range(m.d)]
        rows += [Constraint(unit, GE, -1), Constraint(unit, LE, 1)]
    lp = standard_form([0] * m.d, "max", rows, free=range(m.d))
    return solve_lp(lp).status == "Optimal"


class TestFeasibleStrategy:
    def test_substitution_matches_box_rows(self):
        # the substitution G = H + 1 >= 0 decides feasibility as the box
        # rows do, and every H it returns lies in the box and meets its targets
        rng = random.Random(23)
        found = {True: 0, False: 0}
        for _ in range(150):
            m = _random_market(rng)
            for _ in range(3):
                event = frozenset(o for o in m.support if rng.random() < 0.5)
                alpha = F(rng.randint(1, 6), rng.randint(1, 4))
                floor = F(rng.randint(0, 6), rng.randint(1, 4))
                H = large_market._feasible_strategy(m, event, alpha, floor)
                feasible = _box_rows_feasible(m, event, alpha, floor)
                assert (H is not None) == feasible
                found[feasible] += 1
                if H is None:
                    continue
                assert len(H) == m.d and all(-1 <= h <= 1 for h in H)
                for o, g in zip(m.support, m.gains(H)):
                    assert g >= (alpha if o in event else -floor)
        assert min(found.values()) > 50, found


class TestScanAa2:
    def test_positive_control(self):
        seq = widening_family()
        w = scan_aa2(
            seq,
            alpha_grid=[F(1)],
            target_levels=[F(1, 2), F(2, 3), F(3, 4)],
        )
        assert w is not None
        assert w.attained == (F(1, 2), F(2, 3), F(3, 4))
        for a, b in zip(w.attained, w.attained[1:]):
            assert a <= b
        for n, H, P_k, p_k in zip(
            w.indices, w.strategies, w.measures, w.attained
        ):
            m = seq.markets[n - 1]
            assert all(m.gain(H, o) >= -1 for o in m.support)
            event = frozenset(o for o in m.support if m.gain(H, o) >= w.alpha)
            assert P_k(event) == p_k

    def test_attained_mass_claimed_against_target_level(self):
        levels = (F(1, 3), F(1, 2), F(3, 5))
        w = scan_aa2(widening_family(), alpha_grid=[F(1)], target_levels=levels)
        assert w.attained == (F(1, 2), F(2, 3), F(3, 4))
        mass_claims = [c for c in w.claims if c.description.endswith("attained P-mass")]
        assert [(c.lhs, c.relation, c.rhs) for c in mass_claims] == [
            (p_k, ">=", level) for p_k, level in zip(w.attained, levels)
        ]

    def test_negative_control(self):
        assert scan_aa2(flat_family()) is None

    def test_single_market_dirac(self):
        dirac = ProbabilityMeasure(W2, [1, 0])
        seq = MarketSequence([one_asset([1, -1], [dirac, HALF])])
        w = scan_aa2(seq, alpha_grid=[F(1)], target_levels=[F(1)])
        assert w is not None and len(w.indices) == 1
        assert w.attained[0] == 1


class TestCertifyModuli:
    GRID = [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)]

    def test_flat_family_uniform_half(self):
        table = certify_moduli(flat_family(), self.GRID, "primal")
        assert table.uniform_delta == (F(1, 2),) * 5
        for row in table.per_market:
            assert row == (F(1, 2),) * 5

    def test_shrinking_family_vanishing_modulus(self):
        seq = shrinking_family()
        # martingale measure of market n is (1/(n+1), n/(n+1))
        for n, q_set in enumerate(martingale_sets(seq), start=1):
            assert [v.mass for v in q_set.vertices] == [
                (F(1, n + 1), F(n, n + 1))
            ]
        table = certify_moduli(seq, [F(1, 2)], "primal")
        for n in range(1, 21):
            assert table.per_market[n - 1][0] == F(1, n + 1)
        assert table.uniform_delta[0] == F(1, 21)

    def test_single_market_q_equals_p(self):
        # increments (1,-1) with P = {(1/2,1/2)} make Q = P exactly
        seq = flat_family(1)
        table = certify_moduli(seq, self.GRID, "primal")
        for eps, u in zip(self.GRID, table.uniform_delta):
            assert u == NO_QUALIFYING_SET or u >= eps

    def test_uniform_modulus_blocks_aa1(self):
        # positive uniform moduli on the grid imply the scanner finds no
        # witness for schedules below eps * uniformDelta(eps)
        seq = flat_family(10)
        table = certify_moduli(seq, self.GRID, "primal")
        assert all(u > 0 for u in table.uniform_delta)
        for eps, u in zip(self.GRID, table.uniform_delta):
            bound = eps * u
            schedule = [bound / (k + 1) for k in range(1, 11)]
            assert scan_aa1(seq, alpha_grid=[eps], c_schedule=schedule) is None

    def test_dual_kind(self):
        table = certify_moduli(flat_family(5), [F(1, 4)], "dual")
        # events where every martingale mass is >= 1/4: singletons and the
        # full set; the least P-mass among them is 1/2
        assert table.uniform_delta == (F(1, 2),)

    @pytest.mark.parametrize("kind", ["primal", "dual"])
    def test_empty_family_or_grid_refused(self, kind):
        # neither has a uniform modulus; an empty table would certify vacuously
        with pytest.raises(ValueError, match="sequence must be nonempty"):
            certify_moduli(MarketSequence([]), [F(1, 2)], kind)
        with pytest.raises(ValueError, match="epsilon grid must be nonempty"):
            certify_moduli(flat_family(2), [], kind)

    @pytest.mark.parametrize("kind", ["primal", "dual"])
    @pytest.mark.parametrize("level", [F(0), F(-1)])
    def test_level_outside_the_positive_reals_refused(self, kind, level):
        # at a level <= 0 the empty event qualifies, so the table would read
        # "no uniform positive modulus" for a level that has no modulus
        with pytest.raises(ValueError, match=f"level epsilon must be positive, not {level}"):
            certify_moduli(flat_family(1), [F(1, 2), level], kind)

    def test_primal_moduli_of_na_families_are_positive(self):
        # under NA the full-support martingale measure mixes the martingale
        # vertices, so every nonempty event has positive best martingale
        # mass: no uniform primal modulus at epsilon in (0, 1] is 0, and
        # build_contiguous_sequence never refuses a level
        rng = random.Random(2718)
        grid = [F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
        families = 0
        while families < 300:
            markets = [_random_market(rng) for _ in range(rng.randint(1, 3))]
            if not all(check_na(m)[0] for m in markets):
                continue
            families += 1
            table = certify_moduli(MarketSequence(markets), grid, "primal")
            assert all(0 < u <= 1 for u in table.uniform_delta), table


class TestBuildContiguous:
    def test_normalization_identity(self):
        q = ProbabilityMeasure(W2, [F(1, 3), F(2, 3)])
        n = 5
        weights = [F(1, 2**m) / (1 - F(1, 2**n)) for m in range(1, n + 1)]
        assert sum(weights) == 1
        assert mix([q] * n, weights).mass == q.mass

    def test_two_component_arithmetic(self):
        a = ProbabilityMeasure(W2, [1, 0])
        b = ProbabilityMeasure(W2, [0, 1])
        weights = [F(1, 2) / F(3, 4), F(1, 4) / F(3, 4)]
        assert mix([a, b], weights).mass == (F(2, 3), F(1, 3))

    def test_flat_family_construction(self):
        seq = flat_family()
        cs = build_contiguous_sequence(seq)
        assert len(cs.per_market) == 20
        for n, (q_n, weights) in enumerate(
            zip(cs.per_market, cs.mixture_weights), start=1
        ):
            assert sum(weights) == 1
            assert len(weights) == n
            # beta bounds, re-verified here by enumeration
            p_base = seq.markets[n - 1].P.vertices[0]
            for m_level in range(1, n + 1):
                e, d = cs.schedule[m_level - 1]
                if 2 * e > 1:
                    continue
                beta = F(1, 2**m_level) * (e * d / 2)
                for A in all_events(seq.markets[n - 1].support):
                    if p_base(A) >= 2 * e:
                        assert q_n(A) >= beta

    def test_components_are_martingale_measures(self):
        seq = flat_family(6)
        cs = build_contiguous_sequence(seq)
        for n, components in enumerate(cs.components, start=1):
            m = seq.markets[n - 1]
            for q in components:
                assert sum(q.mass) == 1
                for i in range(m.d):
                    assert sum(
                        q.mass_of(o) * m.delta_s(o)[i] for o in m.support
                    ) == 0


class TestWeakContiguity:
    def test_flat_family(self):
        seq = flat_family()
        delta, picks = weak_contiguity_witness(seq, epsilon=F(1, 4))
        assert delta > 0
        for n, q in enumerate(picks, start=1):
            p_base = seq.markets[n - 1].P.vertices[0]
            for A in all_events(seq.markets[n - 1].support):
                if p_base(A) < delta:
                    assert q(A) < F(1, 4)

    @pytest.mark.parametrize("epsilon", [0, F(-1, 2)])
    def test_level_must_be_positive(self, epsilon):
        # the dual modulus at the half level epsilon / 2 refuses it
        with pytest.raises(ValueError, match="level epsilon must be positive"):
            weak_contiguity_witness(flat_family(2), epsilon)

    def test_vacuous_large_epsilon(self):
        seq = flat_family(3)
        delta, picks = weak_contiguity_witness(seq, epsilon=F(3, 2))
        assert delta > 0
        assert len(picks) == 3
