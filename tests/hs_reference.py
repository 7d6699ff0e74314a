"""LP-free reference for the inner game of the quantitative Halmos-Savage
witnesses, the per-event claims that their knapsack multipliers certify,
criterion 4/5's seeded instances and 12-outcome pairs built like the
benchmark's.

For a fixed mixture q, the inner problem of the expectation game is a
fractional knapsack over the quasi-sure support of P, with h in [0, 1]^n:

- primal: min q.h subject to p.h >= 2*epsilon;
- dual: max q.h subject to p.h <= epsilon*delta.

Both are solved greedily by the ratio q_o / p_o, with no LP, in
Fractions.  `halmos_savage` solves the same knapsack in integers as the
oracle of its cutting planes; at the witness mixture q* the primal
minimum is the guaranteed bound and the dual maximum the dual game
value, so `test_hs_knapsack_differential.py` checks the game and its
one-scalar witness check against this module exactly, and
`test_hs_game_differential.py` uses it to tell optimal weights apart
when the game's optimum is not unique.

The library checks a witness by one scalar per claim
(`halmos_savage.witness_claims`, and the contiguity builders of
`large_market`), the Lagrangian bound of `knapsack_bound`, summed in
integers; `lagrangian_bound` is its transcription in Fractions.  The
per-event claims below are what those scalars imply, one claim per
qualifying event: the scans the library ran before it carried the
multiplier, kept as the reference of `test_hs_knapsack_differential.py`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Optional

from robust_ftap.claims import GE, LT, claim
from robust_ftap.events import support_events
from robust_ftap.halmos_savage import (
    NO_QUALIFYING_SET,
    PRIMAL,
    HsInstance,
    HsWitness,
    check_hypothesis_dual,
    check_hypothesis_primal,
    hs_modulus,
)
from robust_ftap.large_market import ContiguousSequence, MarketSequence
from robust_ftap.measures import (
    DEFAULT_MAX_ENUM,
    AmbiguitySet,
    ProbabilityMeasure,
    SampleSpace,
    quasi_sure_support,
)

F = Fraction


def _items(inst: HsInstance, q: ProbabilityMeasure, p: ProbabilityMeasure):
    """(q_o, p_o) per outcome of the quasi-sure support of P."""
    return [(q.mass_of(o), p.mass_of(o)) for o in inst.P.support]


def knapsack_min(
    inst: HsInstance, q: ProbabilityMeasure, p: ProbabilityMeasure
) -> Optional[Fraction]:
    """min q.h over h in [0, 1]^n with p.h >= 2*epsilon; None when no h
    reaches 2*epsilon."""
    need = 2 * inst.epsilon
    value = F(0)
    for qo, po in sorted(
        ((qo, po) for qo, po in _items(inst, q, p) if po > 0),
        key=lambda item: item[0] / item[1],
    ):
        if need <= 0:
            break
        h = min(F(1), need / po)
        value += h * qo
        need -= h * po
    return value if need <= 0 else None


def knapsack_max(
    inst: HsInstance, q: ProbabilityMeasure, p: ProbabilityMeasure
) -> Fraction:
    """max q.h over h in [0, 1]^n with p.h <= epsilon*delta."""
    room = inst.epsilon * inst.delta
    items = _items(inst, q, p)
    value = sum((qo for qo, po in items if po == 0), F(0))
    for qo, po in sorted(
        ((qo, po) for qo, po in items if po > 0),
        key=lambda item: item[0] / item[1],
        reverse=True,
    ):
        h = min(F(1), room / po)
        value += h * qo
        room -= h * po
        if room == 0:
            break
    return value


def lagrangian_bound(
    inst: HsInstance, kind: str, q: ProbabilityMeasure, p: ProbabilityMeasure, lam
) -> Fraction:
    """L(lambda) = 2*epsilon*lambda - sum_o (lambda p_o - q_o)+ (primal) or
    U(lambda) = epsilon*delta*lambda + sum_o (q_o - lambda p_o)+ (dual),
    the sums over the quasi-sure support of P, in Fractions."""
    items = _items(inst, q, p)
    if kind == PRIMAL:
        excess = sum((max(lam * po - qo, F(0)) for qo, po in items), F(0))
        return 2 * inst.epsilon * lam - excess
    excess = sum((max(qo - lam * po, F(0)) for qo, po in items), F(0))
    return inst.epsilon * inst.delta * lam + excess


def random_vertex(space, rng, max_denom=10):
    denom = rng.randint(1, max_denom)
    counts = [0] * space.size
    for _ in range(denom):
        counts[rng.randrange(space.size)] += 1
    return ProbabilityMeasure(space, [F(c, denom) for c in counts])


def _random_hs_instance(rng):
    n = rng.randint(1, 8)
    space = SampleSpace([f"o{i}" for i in range(n)])
    P = AmbiguitySet(
        space, [random_vertex(space, rng) for _ in range(rng.randint(1, 3))]
    )
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
    eps = F(rng.randint(1, 5), 10)
    delta = F(rng.randint(1, 5), 10)
    return HsInstance(P, AmbiguitySet(space, q_verts), eps, delta)


def mixture_pair_instance(rng, n=12, eps_choices=(F(1, 8), F(1, 6), F(1, 5), F(1, 4))):
    """A pair built like the benchmark's hs-events pairs: 2 or 3 P-vertices
    of counts 0..4 (about one in ten 0) that cover the n outcomes, 2 or 3
    Q-vertices each a mixture of the P-vertices with weights 1..5, and
    epsilon from `eps_choices`; delta is drawn from (0, 1) with no
    hypothesis designed in, since the game does not need one."""
    space = SampleSpace([f"w{i}" for i in range(n)])
    counts = []
    for _ in range(rng.randint(2, 3)):
        row = [0 if rng.random() < 0.1 else rng.randint(1, 4) for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = 1
        counts.append(row)
    for i in range(n):
        if not any(row[i] for row in counts):
            counts[rng.randrange(len(counts))][i] = 1
    P = [[F(c, sum(row)) for c in row] for row in counts]
    Q = []
    for _ in range(rng.randint(2, 3)):
        w = [F(rng.randint(1, 5)) for _ in P]
        total = sum(w)
        Q.append([sum(wi / total * p[i] for wi, p in zip(w, P)) for i in range(n)])
    return HsInstance(
        AmbiguitySet(space, [ProbabilityMeasure(space, v) for v in P]),
        AmbiguitySet(space, [ProbabilityMeasure(space, v) for v in Q]),
        rng.choice(eps_choices),
        F(rng.randint(1, 9), 10),
    )


def with_primal_delta(inst: HsInstance) -> HsInstance:
    """inst at delta = the primal modulus at epsilon (shrunk into (0, 1)),
    the largest delta at which the primal hypothesis holds."""
    modulus = hs_modulus(inst.P, inst.Q, inst.epsilon)
    return HsInstance(inst.P, inst.Q, inst.epsilon, min(modulus, F(9, 10)))


def criterion_4_5_instances() -> Iterator[tuple[str, HsInstance]]:
    """Criterion 4/5's seeded games: the first 300 drawn instances on which
    the primal hypothesis holds, as ("primal", inst), and the first 300 on
    which the dual one holds, as ("dual", inst), in drawing order."""
    rng = random.Random(2718)
    primal_done = dual_done = 0
    while primal_done < 300 or dual_done < 300:
        inst = _random_hs_instance(rng)
        if primal_done < 300 and check_hypothesis_primal(inst)[0]:
            primal_done += 1
            yield "primal", inst
        if dual_done < 300 and check_hypothesis_dual(inst)[0]:
            dual_done += 1
            yield "dual", inst


def event_name(event: frozenset[str]) -> str:
    return "{" + ",".join(sorted(event)) + "}"


def event_claims(inst: HsInstance, w: HsWitness) -> list:
    """One claim per qualifying event, by size and then in support order.

    Primal kind: every event A with for_vertex_p(A) >= 2*epsilon has
    q_star(A) >= the bound; nothing when no event can reach 2*epsilon.
    Dual kind: every event A with for_vertex_p(A) < epsilon*delta has
    q_star(A) < the bound.  Raises CertificateError at the first false
    claim, which names its event.
    """
    if w.kind == PRIMAL:
        if w.guaranteed_bound == NO_QUALIFYING_SET:
            return []
        op, t = GE, 2 * inst.epsilon
    else:
        op, t = LT, inst.epsilon * inst.delta
    events = support_events(inst.P, DEFAULT_MAX_ENUM)
    q_star = events.mass(w.q_star)
    return [
        claim(f"Qstar mass of {event_name(events.event(A))}",
              q_star.at(A), op, w.guaranteed_bound)
        for A in events.where(events.mass(w.for_vertex_p), op, t)
    ]


def contiguity_event_claims(seq: MarketSequence, cs: ContiguousSequence) -> list:
    """Per market n and level m with 2*eps_m <= 1, the least mixture mass
    over the events A with P_n(A) >= 2*eps_m, claimed at least
    2^-m * eps_m * delta_m / 2; P_n is the market's first P-vertex."""
    claims = []
    for n, (market, q_n) in enumerate(zip(seq.markets, cs.per_market), start=1):
        events = support_events(market.P, DEFAULT_MAX_ENUM)
        p, q = events.mass(market.P.vertices[0]), events.mass(q_n)
        for m_level, (e, d) in enumerate(cs.schedule[:n], start=1):
            if 2 * e > 1:
                continue
            worst = events.best(min, q, (p, GE, 2 * e))
            if worst is not None:
                claims.append(claim(
                    f"market {n}, level {m_level}: least mixture mass on "
                    f"qualifying events",
                    worst.value, ">=", Fraction(1, 2**m_level) * (e * d / 2),
                ))
    return claims


def weak_contiguity_event_claims(
    seq: MarketSequence, delta, picks, epsilon
) -> list:
    """The weak-contiguity bound P_n(A) < delta => picks[n](A) < epsilon,
    for P_n the market's first P-vertex: per market, a claim on the
    largest pick mass of such events; none for epsilon > 1."""
    if epsilon > 1:
        return []
    claims = []
    for n, (market, q) in enumerate(zip(seq.markets, picks), start=1):
        events = support_events(market.P, DEFAULT_MAX_ENUM)
        p = events.mass(market.P.vertices[0])
        worst = events.best(max, events.mass(q), (p, LT, delta))
        if worst is not None:
            claims.append(claim(
                f"market {n}: largest witness mass on small events",
                worst.value, "<", epsilon,
            ))
    return claims
