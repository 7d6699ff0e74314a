"""Differential tests of the Halmos-Savage game and its witness check
against the knapsack and the event scans.

`halmos_savage` solves the expectation game by cutting planes and returns
the mixture q* that attains it.  At q* the inner problem is a fractional
knapsack, which `hs_reference` solves greedily in Fractions.  On
criterion 4/5's 300 primal and 300 dual instances, the greedy minimum at
the primal witness's q* must equal its guaranteed bound, and the greedy
maximum at the dual witness's q* must equal the dual game value, exactly.

The witnesses are verified by one scalar each, the Lagrangian bound
L(lambda) or U(lambda) of `knapsack_bound`, instead of a scan of every
event.  Whenever that bound holds, every per-event claim must hold, which
the frozenset event scans of `frozenset_events` check at any multiplier,
and the per-event claims of `hs_reference` check at the witnesses' own
multipliers: on criterion 4/5's instances, the golden pair, seeded
12-outcome pairs, and the contiguity certificates of the golden
sequences and of seeded families.  A forged mixture must make both
constructors raise CertificateError.
"""

import json
import os
import random
from fractions import Fraction

import pytest

import frozenset_events
from hs_reference import (
    _random_hs_instance,
    contiguity_event_claims,
    criterion_4_5_instances,
    event_claims,
    knapsack_max,
    knapsack_min,
    mixture_pair_instance,
    weak_contiguity_event_claims,
    with_primal_delta,
)
from robust_ftap import halmos_savage
from robust_ftap.cli import load_sequence
from robust_ftap.codec import load_hs_pair
from robust_ftap.errors import CertificateError, HypothesisViolated
from robust_ftap.halmos_savage import (
    DUAL,
    PRIMAL,
    HsInstance,
    HsWitness,
    _expectation_game,
    basic_lemma_value,
    construct_dual_hs_witness,
    construct_hs_witness,
    knapsack_bound,
    witness_claims,
)
from robust_ftap.large_market import (
    MarketSequence,
    build_contiguous_sequence,
    weak_contiguity_certificate,
)
from robust_ftap.market import Market
from robust_ftap.measures import AmbiguitySet, ProbabilityMeasure, SampleSpace, mix

F = Fraction
INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def test_criterion_4_5_instances_match_knapsack():
    kinds = {"primal": 0, "dual": 0}
    for kind, inst in criterion_4_5_instances():
        vp = inst.P.vertices[0]
        kinds[kind] += 1
        if kind == "primal":
            w = construct_hs_witness(inst, vp)
            assert knapsack_min(inst, w.q_star, vp) == w.guaranteed_bound
        else:
            w = construct_dual_hs_witness(inst, vp)
            value = basic_lemma_value(inst, vp, "dual")
            assert knapsack_max(inst, w.q_star, vp) == value
    assert kinds == {"primal": 300, "dual": 300}


def test_knapsack_bound_is_exact_at_the_game_multiplier():
    # at the game's own multiplier the Lagrangian bound is the game value,
    # so a genuine witness always passes its check
    for kind, inst in criterion_4_5_instances():
        vp = inst.P.vertices[0]
        game = _expectation_game(inst, vp, kind)
        q_star = mix(inst.Q.vertices, game.weights)
        assert knapsack_bound(inst, kind, q_star, vp, game.multiplier) == game.value


def _multipliers(inst, q, p, rng):
    """Multipliers to try: 0, every ratio q_o / p_o (the greedy's is one
    of them), and a few random ones."""
    out = {F(0)} | {F(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(4)}
    out |= {q.mass_of(o) / p.mass_of(o) for o in inst.P.space.outcomes
            if p.mass_of(o) > 0}
    return sorted(out)


def test_bound_implies_every_event_claim():
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        inst = _random_hs_instance(rng)
        weights = [F(rng.randint(0, 4)) for _ in inst.Q.vertices]
        if not any(weights):
            weights[0] = F(1)
        q = mix(inst.Q.vertices, [w / sum(weights) for w in weights])
        support = frozenset_events.sorted_support(inst.P)
        for p in inst.P.vertices:
            worst_primal = frozenset_events.best(
                min, q, lambda A: p(A) >= 2 * inst.epsilon, support)
            worst_dual = frozenset_events.best(
                max, q, lambda A: p(A) < inst.epsilon * inst.delta, support)
            for lam in _multipliers(inst, q, p, rng):
                lower = knapsack_bound(inst, PRIMAL, q, p, lam)
                upper = knapsack_bound(inst, DUAL, q, p, lam)
                # every bound L(lambda) >= b certifies q(A) >= b on every
                # event of p-mass >= 2*epsilon; U(lambda) < b certifies
                # q(A) < b on every event of p-mass < epsilon*delta
                if worst_primal is not None:
                    assert worst_primal[0] >= lower
                assert worst_dual[0] <= upper
                checked += 1
    assert checked > 1000


def test_negative_multiplier_refused():
    inst = _forgeable(3)
    vp = inst.P.vertices[0]
    with pytest.raises(CertificateError):
        knapsack_bound(inst, PRIMAL, vp, vp, F(-1))


def _forgeable(n):
    """Q-vertex 0 is the unique optimum of both games; a q* of Q-vertex 1
    puts mass 2/5 < 1/2 on the p-mass 19/20 >= 2*epsilon of all outcomes
    but a, and 3/5 >= 2*epsilon on {a}, of p-mass 1/20 < epsilon*delta.
    On 3 outcomes (K = 2 > n/2) the game is the knapsack dual LP; on 4,
    the last outcome split in two halves, the cutting planes."""
    space = SampleSpace(["a", "b", "c", "d"][:n])
    rest = [F(19, 40)] if n == 3 else [F(19, 80), F(19, 80)]
    p = ProbabilityMeasure(space, [F(1, 20), F(19, 40)] + rest)
    q = ProbabilityMeasure(space, [F(3, 5), F(2, 5)] + [F(0)] * (n - 2))
    return HsInstance(AmbiguitySet(space, [p]), AmbiguitySet(space, [p, q]),
                      F(1, 4), F(1, 4))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", [PRIMAL, DUAL])
def test_forged_mixture_raises(monkeypatch, kind, n):
    inst = _forgeable(n)
    vp = inst.P.vertices[0]
    construct = construct_hs_witness if kind == PRIMAL else construct_dual_hs_witness
    genuine = construct(inst, vp)
    assert genuine.weights == (1, 0)
    forged = (F(0), F(1))
    # the forged mixture really breaks an event claim, so no multiplier
    # can certify it
    fake = HsWitness(kind, vp, mix(inst.Q.vertices, forged), forged,
                     genuine.guaranteed_bound, genuine.multiplier)
    with pytest.raises(CertificateError, match="^Qstar mass of"):
        event_claims(inst, fake)
    with pytest.raises(CertificateError, match="^knapsack bound"):
        witness_claims(inst, fake)

    game = halmos_savage._expectation_game

    def forged_game(*args):
        return game(*args)._replace(weights=forged)

    monkeypatch.setattr(halmos_savage, "_expectation_game", forged_game)
    with pytest.raises(CertificateError):
        construct(inst, vp)


def _witness_claims_imply_event_claims(inst, vp):
    """Build both witnesses of inst at vp whose hypotheses hold; their
    scalar claims hold, so must every per-event claim of the reference,
    and the scalar lhs bounds the reference's from the safe side.
    Returns the number of witnesses built."""
    built = 0
    for construct in (construct_hs_witness, construct_dual_hs_witness):
        try:
            w = construct(inst, vp)
        except HypothesisViolated:
            continue
        claims, events = witness_claims(inst, w), event_claims(inst, w)
        if claims:
            lhs = claims[-1].lhs  # L(lambda) or U(lambda)
            assert all(lhs <= e.lhs if w.kind == PRIMAL else lhs >= e.lhs for e in events)
        built += 1
    return built


def test_criterion_4_5_witness_claims_imply_event_claims():
    assert sum(
        _witness_claims_imply_event_claims(inst, inst.P.vertices[0])
        for _, inst in criterion_4_5_instances()
    ) >= 600


def _golden(name):
    with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("epsilon", [F(1, 4), F(1, 8), F(3, 4)])
def test_golden_pair_witness_claims_imply_event_claims(epsilon):
    _, P, Q = load_hs_pair(_golden("pair.json"))
    inst = HsInstance(P, Q, epsilon, F(1, 8))
    assert sum(_witness_claims_imply_event_claims(inst, vp) for vp in P.vertices) >= 2


def test_mixture_pair_witness_claims_imply_event_claims():
    rng = random.Random(17)
    built = sum(
        _witness_claims_imply_event_claims(inst, inst.P.vertices[0])
        for inst in (with_primal_delta(mixture_pair_instance(rng)) for _ in range(8))
    )
    assert built >= 8


def _random_family(rng):
    """3 or 4 one-asset markets on 3 or 4 outcomes: increments of both
    signs and full-support P-vertices, so every market is free of
    arbitrage."""
    markets = []
    for _ in range(rng.randint(3, 4)):
        n = rng.randint(3, 4)
        space = SampleSpace([f"o{i}" for i in range(n)])
        deltas = [F(rng.randint(1, 4))] + [F(rng.randint(-4, 4)) for _ in range(n - 2)]
        deltas.append(F(-rng.randint(1, 4)))
        vertices = []
        for _ in range(rng.randint(1, 3)):
            counts = [rng.randint(1, 5) for _ in range(n)]
            vertices.append(ProbabilityMeasure(space, [F(c, sum(counts)) for c in counts]))
        markets.append(Market(space, [0], [[x] for x in deltas],
                              AmbiguitySet(space, vertices)))
    return MarketSequence(markets)


def _families():
    names = ["sequence_shrinking.json", "sequence_flat.json", "sequence_widening.json"]
    rng = random.Random(23)
    return [(name, load_sequence(_golden(name))) for name in names] + [
        (f"seeded-{k}", _random_family(rng)) for k in range(6)
    ]


FAMILIES = _families()


@pytest.mark.parametrize("seq", [seq for _, seq in FAMILIES],
                         ids=[name for name, _ in FAMILIES])
def test_contiguity_claims_imply_event_claims(seq):
    # every family builds both certificates; their scalar claims hold, so
    # must each per-level and per-market claim of the reference
    cs = build_contiguous_sequence(seq)
    scalar = [c for c in cs.claims if c.relation == ">="]
    events = contiguity_event_claims(seq, cs)
    assert [c.rhs for c in scalar] == [c.rhs for c in events]
    assert all(c.lhs <= e.lhs for c, e in zip(scalar, events))
    for epsilon in (F(1, 4), F(1, 2), F(1)):
        delta, picks, _, claims = weak_contiguity_certificate(seq, epsilon)
        events = weak_contiguity_event_claims(seq, delta, picks, epsilon)
        assert [c.rhs for c in claims] == [c.rhs for c in events]
        assert all(c.lhs >= e.lhs for c, e in zip(claims, events))
