"""Quantitative Halmos-Savage machinery with constructive witnesses.

Hypothesis checking over all events of the quasi-sure support (by the
integer event kernel of :mod:`robust_ftap.events`), the primal/dual
test-function polytopes, the inf-sup / sup-inf values of the expectation
game, and witness measures that are verified exhaustively before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .claims import GE, LE, LT, Claim, claim
from .errors import CertificateError, DimensionMismatch, HypothesisViolated
from .events import Best, support_events
from .lp_core import (
    Constraint,
    HPolytope,
    MinimaxInstance,
    MinimaxResult,
    VertexPolytope,
    minimax_value,
)
from .measures import (
    DEFAULT_MAX_ENUM,
    ONE,
    ZERO,
    AmbiguitySet,
    ProbabilityMeasure,
    dominated_by,
    mix,
    ordered_support,
    rational,
)

#: Sentinel for "no event qualifies": a value no probability can reach.
NO_QUALIFYING_SET = Fraction(2)

PRIMAL, DUAL = "primal", "dual"


@dataclass(frozen=True)
class HsInstance:
    """A pair of ambiguity sets with quantitative levels epsilon, delta."""

    P: AmbiguitySet
    Q: AmbiguitySet
    epsilon: Fraction
    delta: Fraction

    def __init__(self, P: AmbiguitySet, Q: AmbiguitySet, epsilon, delta):
        epsilon, delta = rational(epsilon), rational(delta)
        if P.space != Q.space:
            raise DimensionMismatch("P and Q live on different spaces")
        if not (0 < epsilon < 1) or not (0 < delta < 1):
            raise ValueError("epsilon and delta must lie in (0, 1)")
        for v in Q.vertices:
            if not dominated_by(v, P):
                raise ValueError(
                    "every Q-vertex must be dominated by the P ambiguity set"
                )
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class HsWitness:
    """Mixture over Q-vertices certifying a quantitative conclusion.

    Primal kind: every event A with forVertexP(A) >= 2*epsilon carries
    q_star mass >= guaranteed_bound.  Dual kind: every event with
    forVertexP(A) < epsilon*delta carries q_star mass < guaranteed_bound.
    """

    kind: str
    for_vertex_p: ProbabilityMeasure
    q_star: ProbabilityMeasure
    weights: tuple[Fraction, ...]
    guaranteed_bound: Fraction


def check_hypothesis_primal(
    inst: HsInstance, max_enum: int = DEFAULT_MAX_ENUM
) -> tuple[bool, frozenset[str]]:
    """Check: every event with some P-mass >= epsilon has some Q-mass >= delta.

    Linear functionals on a polytope attain their extremes at vertices, so
    "exists P in the set" is a max over P-vertices, same for Q.  Returns the
    verdict and the qualifying event whose best Q-mass is smallest.
    """
    worst = _primal_scan(inst.P, inst.Q, inst.epsilon, max_enum)
    if worst is None:
        return True, frozenset()
    return worst.value >= inst.delta, worst.event


def check_hypothesis_dual(
    inst: HsInstance, max_enum: int = DEFAULT_MAX_ENUM
) -> tuple[bool, frozenset[str]]:
    """Check: every event with some P-mass < delta has some Q-mass < epsilon.

    Returns the verdict and the qualifying event whose best (smallest)
    Q-mass is largest; on failure that event violates the condition.
    """
    events = support_events(inst.P, max_enum)
    worst = events.best(
        max,
        events.lower(inst.Q.vertices),
        (events.lower(inst.P.vertices), LT, inst.delta),
    )
    if worst is None:
        return True, frozenset()
    return worst.value < inst.epsilon, worst.event


def _d_set_polytope(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> tuple[tuple[str, ...], HPolytope]:
    """The primal/dual test-function polytope restricted to the support.

    Off-support coordinates are fixed to 0, so each h is a deterministic
    representative of its equivalence class modulo the polar set.
    """
    support = ordered_support(inst.P)
    n = len(support)
    cons: list[Constraint] = []
    for i in range(n):
        unit = [ONE if j == i else ZERO for j in range(n)]
        cons.append(Constraint(unit, GE, ZERO))
        cons.append(Constraint(unit, LE, ONE))
    weights = [vertex_p.mass_of(o) for o in support]
    if kind == PRIMAL:
        cons.append(Constraint(weights, GE, 2 * inst.epsilon))
    elif kind == DUAL:
        cons.append(Constraint(weights, LE, inst.epsilon * inst.delta))
    else:
        raise ValueError("kind must be 'primal' or 'dual'")
    return support, HPolytope(n, cons)


def _q_vertex_polytope(inst: HsInstance, support: tuple[str, ...]) -> VertexPolytope:
    return VertexPolytope(
        [[v.mass_of(o) for o in support] for v in inst.Q.vertices]
    )


def _expectation_game(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> MinimaxResult:
    """Solve the expectation game between Q-mixtures and D-set functions.

    Primal kind returns the game for E_Q[h]; the dual kind is realized by
    negating the payoff, so the caller negates the value back.
    """
    support, dset = _d_set_polytope(inst, vertex_p, kind)
    n = len(support)
    sign = ONE if kind == PRIMAL else -ONE
    payoff = [[sign if i == j else ZERO for j in range(n)] for i in range(n)]
    return minimax_value(
        MinimaxInstance(payoff, _q_vertex_polytope(inst, support), dset)
    )


def basic_lemma_value(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> Fraction:
    """Primal: inf over D-set h of sup over Q of E_Q[h].
    Dual: sup over the dual D-set of inf over Q of E_Q[h]."""
    res = _expectation_game(inst, vertex_p, kind)
    return res.value if kind == PRIMAL else -res.value


def construct_hs_witness(
    inst: HsInstance,
    vertex_p: ProbabilityMeasure,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> HsWitness:
    """Witness measure for the primal quantitative conclusion.

    Solves sup over Q-mixtures of inf over the primal D-set of E_Q[h]; the
    attaining mixture guarantees Q(A) >= value for every event A with
    vertex_p(A) >= 2*epsilon, and the value is at least epsilon*delta/2.
    Both facts are verified before returning.
    """
    holds, _ = check_hypothesis_primal(inst, max_enum)
    if not holds:
        raise HypothesisViolated(
            "the primal epsilon-delta hypothesis fails on this instance"
        )
    threshold = 2 * inst.epsilon
    if threshold > 1:
        # no event can reach mass 2*epsilon; any mixture works vacuously
        k = len(inst.Q.vertices)
        weights = tuple(Fraction(1, k) for _ in range(k))
        q_star = mix(inst.Q.vertices, weights)
        return HsWitness(PRIMAL, vertex_p, q_star, weights, NO_QUALIFYING_SET)
    res = _expectation_game(inst, vertex_p, PRIMAL)
    bound = res.value
    _bound_claim(inst, bound)
    q_star = mix(inst.Q.vertices, res.x_weights)
    w = HsWitness(PRIMAL, vertex_p, q_star, res.x_weights, bound)
    events = support_events(inst.P, max_enum)
    worst = events.best(
        min, events.mass(q_star), (events.mass(vertex_p), GE, threshold)
    )
    if worst is not None and worst.value < bound:
        witness_claims(inst, w, max_enum)  # raises at the first failing event
        raise CertificateError(f"witness fails on event {sorted(worst.event)}")
    return w


def construct_dual_hs_witness(
    inst: HsInstance,
    vertex_p: ProbabilityMeasure,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> HsWitness:
    """Witness measure for the dual quantitative conclusion.

    Solves inf over Q-mixtures of sup over the dual D-set of E_Q[h]; the
    value is at most (2 - epsilon) * epsilon, and the attaining mixture
    satisfies Q(A) < 2*epsilon whenever vertex_p(A) < epsilon*delta.
    """
    holds, _ = check_hypothesis_dual(inst, max_enum)
    if not holds:
        raise HypothesisViolated(
            "the dual epsilon-delta hypothesis fails on this instance"
        )
    res = _expectation_game(inst, vertex_p, DUAL)
    value = -res.value  # inf over Q of sup over the dual D-set
    claim("inf-sup value at most (2-epsilon)*epsilon",
          value, "<=", (2 - inst.epsilon) * inst.epsilon)
    q_star = mix(inst.Q.vertices, res.x_weights)
    w = HsWitness(DUAL, vertex_p, q_star, res.x_weights, 2 * inst.epsilon)
    events = support_events(inst.P, max_enum)
    strict = inst.epsilon * inst.delta
    worst = events.best(max, events.mass(q_star), (events.mass(vertex_p), LT, strict))
    if worst is not None and not worst.value < w.guaranteed_bound:
        witness_claims(inst, w, max_enum)  # raises at the first failing event
        raise CertificateError(f"dual witness fails on event {sorted(worst.event)}")
    return w


def witness_claims(
    inst: HsInstance, w: HsWitness, max_enum: int = DEFAULT_MAX_ENUM
) -> tuple[Claim, ...]:
    """What the witness guarantees, one claim per qualifying event, with
    the events by size and then in support order.

    Primal kind: the bound is at least epsilon*delta/2, and every event A
    with for_vertex_p(A) >= 2*epsilon has q_star(A) >= the bound; nothing
    when no event can reach 2*epsilon.  Dual kind: every event A with
    for_vertex_p(A) < epsilon*delta has q_star(A) < the bound.  Raises
    CertificateError at the first false claim.
    """
    claims = []
    if w.kind == PRIMAL:
        if w.guaranteed_bound == NO_QUALIFYING_SET:
            return ()
        claims.append(_bound_claim(inst, w.guaranteed_bound))
        op, t = GE, 2 * inst.epsilon
    else:
        op, t = LT, inst.epsilon * inst.delta
    events = support_events(inst.P, max_enum)
    q_star = events.mass(w.q_star)
    for A in events.where(events.mass(w.for_vertex_p), op, t):
        claims.append(
            claim(f"Qstar mass of {_event_name(events.event(A))}",
                  q_star.at(A), op, w.guaranteed_bound)
        )
    return tuple(claims)


def _bound_claim(inst: HsInstance, bound: Fraction) -> Claim:
    return claim("guaranteed bound at least epsilon*delta/2",
                 bound, ">=", inst.epsilon * inst.delta / 2)


def _event_name(event: frozenset[str]) -> str:
    return "{" + ",".join(sorted(event)) + "}"


def hs_modulus(
    P: AmbiguitySet,
    Q: AmbiguitySet,
    epsilon,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Fraction:
    """Worst-case best Q-mass over events carrying P-mass at least epsilon.

    Returns min over qualifying events A of max over Q-vertices of Q(A);
    the sentinel value 2 (impossible for a probability) signals that no
    event qualifies.
    """
    epsilon = rational(epsilon)
    if P.space != Q.space:
        raise DimensionMismatch("P and Q live on different spaces")
    best = _primal_scan(P, Q, epsilon, max_enum)
    return NO_QUALIFYING_SET if best is None else best.value


def _primal_scan(
    P: AmbiguitySet, Q: AmbiguitySet, epsilon: Fraction, max_enum: int
) -> Optional[Best]:
    """The least best Q-mass over the events of best P-mass at least
    epsilon, and the first event attaining it; None when no event
    qualifies.  The one scan of the primal hypothesis and of the modulus,
    which each call it rather than one another."""
    events = support_events(P, max_enum)
    return events.best(
        min, events.upper(Q.vertices), (events.upper(P.vertices), GE, epsilon)
    )


def indicator_restricted_value(
    inst: HsInstance,
    vertex_p: ProbabilityMeasure,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Optional[Fraction]:
    """Primal inf-sup restricted to indicator test functions.

    min over events A with vertex_p(A) >= 2*epsilon of max over Q-vertices
    of Q(A); None when no indicator is admissible.  Always an upper bound
    for the continuous D-set optimum.
    """
    events = support_events(inst.P, max_enum)
    best = events.best(
        min,
        events.upper(inst.Q.vertices),
        (events.mass(vertex_p), GE, 2 * inst.epsilon),
    )
    return None if best is None else best.value
