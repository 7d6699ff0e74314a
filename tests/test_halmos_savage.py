"""Quantitative domination: hypothesis checks, game values, witnesses,
and the modulus function."""

import json
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

import hs_game_lp
from hs_game_lp import lp_game
from minimax_reference import check_against_reference
from robust_ftap import halmos_savage, lp_core
from robust_ftap.codec import load_hs_pair
from robust_ftap.errors import EmptyPolytope, HypothesisViolated
from robust_ftap.halmos_savage import (
    NO_QUALIFYING_SET,
    HsInstance,
    basic_lemma_value,
    check_hypothesis_dual,
    check_hypothesis_primal,
    construct_dual_hs_witness,
    construct_hs_witness,
    hs_modulus,
    indicator_restricted_value,
    witness_claims,
)
from robust_ftap.events import EventSpace
from robust_ftap.measures import (
    AmbiguitySet,
    ProbabilityMeasure,
    SampleSpace,
    quasi_sure_support,
)

F = Fraction

W2 = SampleSpace(["w1", "w2"])


def pm(space, *mass):
    return ProbabilityMeasure(space, mass)


def amb(space, *vertices):
    return AmbiguitySet(space, [pm(space, *v) for v in vertices])


def all_events(support):
    support = sorted(support)
    for size in range(len(support) + 1):
        yield from (frozenset(c) for c in combinations(support, size))


class TestHsInstance:
    def test_levels_validated(self):
        P = amb(W2, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            HsInstance(P, P, 0, F(1, 2))
        with pytest.raises(ValueError):
            HsInstance(P, P, F(1, 2), 1)

    def test_domination_required(self):
        P = amb(W2, (1, 0))
        Q = amb(W2, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            HsInstance(P, Q, F(1, 2), F(1, 2))


class TestHypothesisPrimal:
    def test_dirac_pair(self):
        inst = HsInstance(
            amb(W2, (1, 0), (0, 1)), amb(W2, (F(1, 3), F(2, 3))), F(1, 2), F(1, 3)
        )
        holds, worst = check_hypothesis_primal(inst)
        assert holds
        assert worst == {"w1"}

    def test_singleton_enumeration(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))),
            amb(W2, (F(9, 10), F(1, 10))),
            F(2, 5),
            F(1, 10),
        )
        holds, worst = check_hypothesis_primal(inst)
        assert holds
        assert worst == {"w2"}

    def test_null_q_mass_fails(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))), amb(W2, (1, 0)), F(2, 5), F(1, 100)
        )
        holds, worst = check_hypothesis_primal(inst)
        assert not holds
        assert worst == {"w2"}


class TestHypothesisDual:
    def test_only_empty_set_qualifies(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))),
            amb(W2, (F(9, 10), F(1, 10)), (F(1, 10), F(9, 10))),
            F(3, 20),
            F(2, 5),
        )
        holds, _ = check_hypothesis_dual(inst)
        assert holds

    def test_dirac_q_fails(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))), amb(W2, (1, 0)), F(1, 2), F(3, 5)
        )
        holds, worst = check_hypothesis_dual(inst)
        assert not holds
        assert worst == {"w1"}

    def test_q_contains_p(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 4)
            space = SampleSpace([f"o{i}" for i in range(n)])
            p_verts = [_random_measure(space, rng) for _ in range(rng.randint(1, 2))]
            P = AmbiguitySet(space, p_verts)
            # Q contains every P-vertex, so the qualifying P works as Q
            Q = AmbiguitySet(space, p_verts + [p_verts[0]])
            level = F(rng.randint(1, 5), 10)
            inst = HsInstance(P, Q, level, level)
            assert check_hypothesis_dual(inst)[0]
            assert check_hypothesis_primal(inst)[0]


def _random_measure(space, rng, denom=None):
    denom = denom or rng.randint(1, 10)
    counts = [0] * space.size
    for _ in range(denom):
        counts[rng.randrange(space.size)] += 1
    return ProbabilityMeasure(space, [F(c, denom) for c in counts])


def _random_instance(rng, max_outcomes=6):
    n = rng.randint(1, max_outcomes)
    space = SampleSpace([f"o{i}" for i in range(n)])
    p_verts = [_random_measure(space, rng) for _ in range(rng.randint(1, 3))]
    P = AmbiguitySet(space, p_verts)
    support = sorted(quasi_sure_support(P), key=space.index)
    q_verts = []
    for _ in range(rng.randint(1, 3)):
        denom = rng.randint(1, 10)
        counts = [0] * len(support)
        for _ in range(denom):
            counts[rng.randrange(len(support))] += 1
        mass = [F(0)] * n
        for o, c in zip(support, counts):
            mass[space.index(o)] = F(c, denom)
        q_verts.append(ProbabilityMeasure(space, mass))
    Q = AmbiguitySet(space, q_verts)
    eps = F(rng.randint(1, 5), 10)
    delta = F(rng.randint(1, 5), 10)
    return HsInstance(P, Q, eps, delta)


class TestBasicLemmaValue:
    def test_one_sided_q(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))),
            amb(W2, (F(9, 10), F(1, 10))),
            F(1, 4),
            F(1, 10),
        )
        assert basic_lemma_value(inst, inst.P.vertices[0], "primal") == F(1, 10)

    def test_q_equals_p(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))),
            amb(W2, (F(1, 2), F(1, 2))),
            F(1, 4),
            F(1, 10),
        )
        assert basic_lemma_value(inst, inst.P.vertices[0], "primal") == F(1, 2)

    def test_dirac_q_family(self):
        # Q = all Dirac measures on supp(P): sup over Q of E_Q[h] is the
        # max of h, and min max h over {E_P[h] >= 2*eps} is exactly 2*eps
        space = SampleSpace(["a", "b", "c"])
        P = amb(space, (F(1, 3), F(1, 3), F(1, 3)))
        Q = amb(space, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        for eps in (F(1, 4), F(1, 10), F(2, 5)):
            inst = HsInstance(P, Q, eps, F(1, 2))
            assert basic_lemma_value(inst, P.vertices[0], "primal") == 2 * eps

    def test_conditional_bounds_randomized(self):
        rng = random.Random(7)
        primal_seen = dual_seen = 0
        while primal_seen < 40 or dual_seen < 40:
            inst = _random_instance(rng)
            if check_hypothesis_primal(inst)[0] and primal_seen < 40:
                primal_seen += 1
                for vp in inst.P.vertices:
                    value = basic_lemma_value(inst, vp, "primal")
                    assert value >= inst.epsilon * inst.delta
            if check_hypothesis_dual(inst)[0] and dual_seen < 40:
                dual_seen += 1
                for vp in inst.P.vertices:
                    value = basic_lemma_value(inst, vp, "dual")
                    assert value <= 2 * inst.epsilon

    def test_errors(self):
        # 2*epsilon = 6/5 is above p's mass 1 on the support: no test
        # function meets the primal D-set, in the game and its LP reference
        half = amb(W2, (F(1, 2), F(1, 2)))
        inst = HsInstance(half, half, F(3, 5), F(1, 2))
        vp = half.vertices[0]
        with pytest.raises(EmptyPolytope):
            basic_lemma_value(inst, vp, "primal")
        with pytest.raises(EmptyPolytope):
            lp_game(inst, vp, "primal")
        assert basic_lemma_value(inst, vp, "dual") == F(3, 10)
        # one outcome and one Q-vertex
        W1 = SampleSpace(["w"])
        one = amb(W1, (1,))
        with pytest.raises(EmptyPolytope):
            basic_lemma_value(HsInstance(one, one, F(3, 5), F(1, 2)),
                              one.vertices[0], "primal")
        for kind in ("both", "Primal", None):
            with pytest.raises(ValueError) as info:
                basic_lemma_value(inst, vp, kind)
            assert str(info.value) == "kind must be 'primal' or 'dual'"

    def test_indicator_relaxation_consistency(self):
        rng = random.Random(17)
        for _ in range(60):
            inst = _random_instance(rng, max_outcomes=5)
            vp = inst.P.vertices[0]
            indicator = indicator_restricted_value(inst, vp)
            if indicator is None:
                continue
            continuous = basic_lemma_value(inst, vp, "primal")
            assert indicator >= continuous


def _no_scan(*args, **kwargs):
    raise AssertionError("an event scan ran")


class TestConstructWitness:
    def test_witnesses_scan_no_events(self, monkeypatch):
        # past the hypothesis check, a witness is proved and its claims
        # are stated by one scalar bound: no event scan runs in either
        rng = random.Random(5)
        seen = 0
        for _ in range(40):
            inst = _random_instance(rng, max_outcomes=6)
            vp = inst.P.vertices[0]
            for construct, check in (
                (construct_hs_witness, check_hypothesis_primal),
                (construct_dual_hs_witness, check_hypothesis_dual),
            ):
                if not check(inst)[0]:
                    continue
                with monkeypatch.context() as m:
                    m.setattr(EventSpace, "best", _no_scan)
                    m.setattr(EventSpace, "where", _no_scan)
                    m.setattr(halmos_savage, check.__name__,
                              lambda *args: (True, frozenset()))
                    w = construct(inst, vp)
                    witness_claims(inst, w)
                seen += 1
        assert seen > 20

    def test_dirac_pair_witness(self):
        inst = HsInstance(
            amb(W2, (1, 0), (0, 1)), amb(W2, (F(1, 3), F(2, 3))), F(1, 2), F(1, 3)
        )
        w = construct_hs_witness(inst, inst.P.vertices[0])
        assert w.q_star.mass == (F(1, 3), F(2, 3))
        assert w.guaranteed_bound >= F(1, 12)  # epsilon*delta/2
        for A in all_events(["w1", "w2"]):
            if inst.P.vertices[0](A) >= 1:
                assert w.q_star(A) >= F(1, 3)

    def test_q_equals_p_single(self):
        # with Q = P a singleton, the hypothesis holds whenever delta <= eps
        # and the sup-inf value is inf{E_P[h] : E_P[h] >= 2*eps} = 2*eps
        P = amb(W2, (F(1, 2), F(1, 2)))
        for eps in (F(1, 10), F(1, 4), F(2, 5)):
            inst = HsInstance(P, P, eps, eps)
            w = construct_hs_witness(inst, P.vertices[0])
            assert w.q_star.mass == P.vertices[0].mass
            assert w.guaranteed_bound == 2 * eps

    def test_threshold_formula(self):
        eps, delta = F(1, 10), F(1, 5)
        assert eps * delta / 2 == F(1, 100)
        P = amb(W2, (F(1, 2), F(1, 2)))
        inst = HsInstance(P, P, eps, delta)
        w = construct_hs_witness(inst, P.vertices[0])
        assert w.guaranteed_bound >= F(1, 100)

    def test_precondition_enforced(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))), amb(W2, (1, 0)), F(2, 5), F(1, 100)
        )
        with pytest.raises(HypothesisViolated):
            construct_hs_witness(inst, inst.P.vertices[0])

    def test_witness_soundness_randomized(self):
        rng = random.Random(29)
        seen = 0
        while seen < 40:
            inst = _random_instance(rng)
            if not check_hypothesis_primal(inst)[0]:
                continue
            seen += 1
            vp = inst.P.vertices[0]
            w = construct_hs_witness(inst, vp)
            support = quasi_sure_support(inst.P)
            for A in all_events(support):
                if vp(A) >= 2 * inst.epsilon:
                    assert w.q_star(A) >= w.guaranteed_bound
                    assert w.q_star(A) >= inst.epsilon * inst.delta / 2


class TestConstructDualWitness:
    def test_vacuous_qualifying_family(self):
        inst = HsInstance(
            amb(W2, (F(1, 2), F(1, 2))),
            amb(W2, (F(9, 10), F(1, 10)), (F(1, 10), F(9, 10))),
            F(3, 20),
            F(2, 5),
        )
        w = construct_dual_hs_witness(inst, inst.P.vertices[0])
        assert w.guaranteed_bound == 2 * inst.epsilon
        assert w.q_star(frozenset()) < 2 * inst.epsilon

    def test_q_equals_p_single(self):
        P = amb(W2, (F(1, 2), F(1, 2)))
        inst = HsInstance(P, P, F(1, 4), F(1, 3))
        w = construct_dual_hs_witness(inst, P.vertices[0])
        assert w.q_star.mass == P.vertices[0].mass

    def test_inner_value_threshold_formula(self):
        eps = F(1, 10)
        assert (2 - eps) * eps == F(19, 100)

    def test_witness_soundness_randomized(self):
        rng = random.Random(31)
        seen = 0
        while seen < 40:
            inst = _random_instance(rng)
            if not check_hypothesis_dual(inst)[0]:
                continue
            seen += 1
            vp = inst.P.vertices[0]
            w = construct_dual_hs_witness(inst, vp)
            support = quasi_sure_support(inst.P)
            for A in all_events(support):
                if vp(A) < inst.epsilon * inst.delta:
                    assert w.q_star(A) < 2 * inst.epsilon


class TestHsModulus:
    def test_dirac_pair(self):
        P = amb(W2, (1, 0), (0, 1))
        Q = amb(W2, (F(1, 3), F(2, 3)))
        assert hs_modulus(P, Q, F(1, 2)) == F(1, 3)

    def test_q_equals_p_lower_bound(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 4)
            space = SampleSpace([f"o{i}" for i in range(n)])
            P = AmbiguitySet(space, [_random_measure(space, rng)])
            eps = F(rng.randint(1, 9), 10)
            value = hs_modulus(P, P, eps)
            assert value == NO_QUALIFYING_SET or value >= eps

    def test_null_qualifying_set(self):
        P = amb(W2, (F(1, 2), F(1, 2)))
        Q = amb(W2, (1, 0))
        assert hs_modulus(P, Q, F(1, 4)) == 0

    def test_monotone_in_epsilon(self):
        rng = random.Random(43)
        for _ in range(30):
            inst = _random_instance(rng, max_outcomes=5)
            grid = sorted(F(k, 10) for k in range(1, 10))
            values = [hs_modulus(inst.P, inst.Q, e) for e in grid]
            for a, b in zip(values, values[1:]):
                assert a <= b


class TestGameLp:
    """The expectation game is a cutting-plane loop over one small master
    LP: t and the K weights of the Q-vertices, all >= 0, with one row per
    cut and the simplex row; t >= 0 removes no optimum, as every cut value
    w.(Q h) is >= 0.  The one-LP game it replaced lives on in `hs_game_lp`
    as the reference, with its shape."""

    INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "inputs")

    def _golden_instance(self, name="pair.json"):
        with open(os.path.join(self.INPUTS, name)) as fh:
            _, P, Q = load_hs_pair(json.load(fh))
        return HsInstance(P, Q, F(1, 4), F(1, 8))

    @staticmethod
    def _game_lps(monkeypatch, inst, vp, kind):
        """basic_lemma_value at the P-vertex vp, and the LPs it solved."""
        lps = []
        solve = halmos_savage.solve_lp

        def capture_lp(lp):
            lps.append(lp)
            return solve(lp)

        monkeypatch.setattr(halmos_savage, "solve_lp", capture_lp)
        value = basic_lemma_value(inst, vp, kind)
        monkeypatch.undo()
        return value, lps

    @pytest.mark.parametrize("kind", ["primal", "dual"])
    def test_golden_pair_game_shape(self, monkeypatch, kind):
        # (input, P-vertex, master LPs): K = 2 on 5 outcomes, whose optimum
        # is one Q-vertex, and K = 3 on 4, whose optimum mixes two
        for name, vertex, masters in (("pair.json", 0, 1), ("pair_dense.json", 1, 2)):
            inst = self._golden_instance(name)
            vp = inst.P.vertices[vertex]
            value, lps = self._game_lps(monkeypatch, inst, vp, kind)
            K = len(inst.Q.vertices)
            assert len(lps) == masters
            for cuts, lp in enumerate(lps, start=1):
                assert lp.num_vars == K + 1
                assert len(lp.constraints) == cuts + 1
                assert lp.sense == ("max" if kind == "primal" else "min")
            assert value == lp_game(inst, vp, kind).value

    @pytest.mark.parametrize("kind", ["primal", "dual"])
    def test_golden_pair_reference_game_shape(self, monkeypatch, kind):
        # the reference is one LP over nonnegative variables: the
        # multiplier of a D-set <= row enters as nu = -mu >= 0, and that of
        # an = row as two columns mu+ and mu-
        inst = self._golden_instance()
        games, lps = [], []
        minimax, solve = lp_core.minimax_value, lp_core.solve_lp

        def capture_game(game):
            games.append(game)
            return minimax(game)

        def capture_lp(lp):
            lps.append(lp)
            return solve(lp)

        monkeypatch.setattr(hs_game_lp, "minimax_value", capture_game)
        monkeypatch.setattr(lp_core, "solve_lp", capture_lp)
        lp_game(inst, inst.P.vertices[0], kind)
        [game], [lp] = games, lps
        assert len(lp.constraints) == game.Y.dim + 1
        # one column per D-set inequality row, two per = row, one per Q-vertex
        columns = sum(2 if row.relation == "=" else 1 for row in game.Y.constraints)
        assert lp.num_vars == columns + len(game.X.vertices)
        monkeypatch.undo()
        check_against_reference(game, minimax(game))
