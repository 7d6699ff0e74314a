"""Quantitative Halmos-Savage machinery with constructive witnesses.

Hypothesis checks and the primal and dual moduli, each one scan of the
events of the quasi-sure support (by the integer event kernel of
:mod:`robust_ftap.events`); the values of the expectation game between
Q-mixtures and the primal/dual test-function sets, solved by cutting
planes whose oracle is an exact fractional knapsack; and witnesses of
both kinds from one body (`hs_witness`) that scans no event, each
verified by one Lagrangian bound of that knapsack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import lcm
from operator import mul
from typing import NamedTuple, Optional

from .claims import EQ, GE, LE, LT, Claim, claim
from .errors import (
    CertificateError,
    DimensionMismatch,
    EmptyPolytope,
    HypothesisViolated,
)
from .events import Best, support_events
from .lp_core import Constraint, LinearProgram, solve_lp
from .measures import (
    DEFAULT_MAX_ENUM,
    ONE,
    ZERO,
    AmbiguitySet,
    ProbabilityMeasure,
    dominated_by,
    integer_rows,
    mix,
    rational,
    scaled,
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
    forVertexP charges only the quasi-sure support of P.  `multiplier` is
    the knapsack multiplier lambda >= 0 at which the scalar bound of
    `knapsack_bound` proves this for all events at once: the greedy's
    ratio at the outcome it filled last, and 0 for the vacuous witness;
    `witness_claims` states that bound, and ``claims`` lists its claims
    as `hs_witness` checked them.
    """

    kind: str
    for_vertex_p: ProbabilityMeasure
    q_star: ProbabilityMeasure
    weights: tuple[Fraction, ...]
    guaranteed_bound: Fraction
    multiplier: Fraction
    claims: tuple[Claim, ...] = field(default=(), repr=False, compare=False)


def check_hypothesis_primal(
    inst: HsInstance, max_enum: int = DEFAULT_MAX_ENUM
) -> tuple[bool, frozenset[str]]:
    """Check: every event with some P-mass >= epsilon has some Q-mass >= delta.

    Linear functionals on a polytope attain their extremes at vertices, so
    "exists P in the set" is a max over P-vertices, same for Q.  Returns the
    verdict and the qualifying event whose best Q-mass is smallest.  Some
    event qualifies: the whole support has P-mass 1 >= epsilon, as
    `HsInstance` keeps epsilon below 1.
    """
    worst = _primal_scan(inst.P, inst.Q, inst.epsilon, max_enum)
    return worst.value >= inst.delta, worst.event


def check_hypothesis_dual(
    inst: HsInstance, max_enum: int = DEFAULT_MAX_ENUM
) -> tuple[bool, frozenset[str]]:
    """Check: every event with some P-mass < delta has some Q-mass < epsilon.

    Returns the verdict and the qualifying event whose best (smallest)
    Q-mass is largest; on failure that event violates the condition.  Some
    event qualifies: the empty event has P-mass 0 < delta, as `HsInstance`
    keeps delta above 0.
    """
    events = support_events(inst.P, max_enum)
    worst = events.best(
        max,
        events.lower(inst.Q.vertices),
        (events.lower(inst.P.vertices), LT, inst.delta),
    )
    return worst.value < inst.epsilon, worst.event


class _Game(NamedTuple):
    """The expectation game's value, the Q-vertex weights w* that attain
    it, and a multiplier lambda >= 0 of the p-row of the knapsack at the
    mixture of w*, at which `knapsack_bound` equals the value: the ratio
    q_o / p_o at the outcome the greedy filled last, which it always
    reaches (`_knapsack`)."""

    value: Fraction
    weights: tuple[Fraction, ...]
    multiplier: Fraction


class _TestFunction(NamedTuple):
    """h over the support: 1 where `full`, fill / unit at `last`, 0
    elsewhere."""

    full: list[bool]
    last: int
    fill: int
    unit: int

    def dot(self, a: list[int]) -> int:
        """h.a times `unit`, an integer for integers a."""
        return sum(compress(a, self.full)) * self.unit + self.fill * a[self.last]


def _knapsack(
    qn: list[int], pn: list[int], keys: list[int], level: int, kind: str
) -> _TestFunction:
    """The inner problem of the game at a mixture q, solved greedily.

    q and p are integer numerators over the support, and `level` is
    2*epsilon (primal) or epsilon*delta (dual) over p's denominator, an
    integer.  Primal: min q.h over h in [0, 1]^n with p.h >= level,
    filling the outcomes by increasing q_o / p_o.  Dual: max q.h with
    p.h <= level, where the outcomes with p_o = 0 take h_o = 1 and the
    others fill by decreasing ratio.  `keys[o]` is lcm(p) / p_o, so that
    q_o * keys[o] orders the ratios in integers; ties keep support order.
    The ratio at `last`, the outcome filled last, is the multiplier of the
    p-row.  The greedy always stops at an outcome: p charges only the
    support (`_support_rows`), so its mass there is 1, which reaches every
    level (a primal 2*epsilon <= 1 past `_expectation_game`'s refusal, a
    dual epsilon*delta < 1).
    """
    n = len(pn)
    order = sorted(
        (o for o in range(n) if pn[o]),
        key=lambda o: qn[o] * keys[o],
        reverse=kind == DUAL,
    )
    full = [kind == DUAL and not pn[o] for o in range(n)]
    left = level
    for o in order:
        if pn[o] >= left:
            return _TestFunction(full, o, left, pn[o])
        full[o] = True
        left -= pn[o]
    raise CertificateError("the knapsack's p-mass is below its level")


def _expectation_game(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> _Game:
    """Solve the expectation game between Q-mixtures and D-set functions.

    Primal kind: sup over the weights w of the Q-vertices of min over the
    D-set {h in [0, 1]^n : p.h >= 2*epsilon} of E_q[h], q the mixture of
    w; dual kind: inf over w of max over {h : p.h <= epsilon*delta}.  At
    a fixed w the inner problem is a fractional knapsack, and the game
    is solved by cutting planes over it (`_cutting_planes`).  p and
    the Q-vertices are read from the measures' integer numerators on the
    support (`integer_rows`), p and the level over one denominator, the
    Q-vertices over another.  Raises EmptyPolytope when no h reaches a
    primal level, that is when 2*epsilon > 1, and ValueError when
    vertex_p charges an outcome outside the support (`_support_rows`).
    """
    if kind not in (PRIMAL, DUAL):
        raise ValueError("kind must be 'primal' or 'dual'")
    level = 2 * inst.epsilon if kind == PRIMAL else inst.epsilon * inst.delta
    (pn,), pd = _support_rows(inst, [vertex_p])
    # p and the level as integers over one denominator d
    d = lcm(pd, level.denominator)
    pn = [x * (d // pd) for x in pn]
    level = level.numerator * (d // level.denominator)
    if kind == PRIMAL and sum(pn) < level:
        raise EmptyPolytope("no test function reaches mass 2*epsilon")
    Qn, qd = _support_rows(inst, inst.Q.vertices)
    return _cutting_planes(pn, d, level, Qn, qd, kind)


def _support_rows(
    inst: HsInstance, measures: list[ProbabilityMeasure]
) -> tuple[list[list[int]], int]:
    """The measures' masses on the quasi-sure support of P, in sample-space
    order, as integer rows over one denominator.  Raises ValueError when a
    measure charges an outcome outside that support: its row would drop
    that mass, and a bound over the support would not hold for it."""
    index = inst.P.space.index
    rows, d = integer_rows(measures, map(index, inst.P.support))
    if any(sum(row) != d for row in rows):
        raise ValueError("a measure charges an outcome outside the quasi-sure support of P")
    return rows, d


def _cutting_planes(
    pn: list[int], pd: int, level: int, Qn: list[list[int]], qd: int, kind: str
) -> _Game:
    """Kelley's cutting planes, from the uniform mixture, with the exact
    knapsack (`_knapsack`) as oracle.  The master LP maximizes (dual:
    minimizes) t over the simplex of weights with one row t <= w.(Q h_j)
    (dual: >=) per cut h_j.  t >= 0 like every LP variable, which removes
    no optimum: each cut value w.(Q h_j) is >= 0, as h, Q and w are.  The
    knapsack at its w either attains its t or returns the next cut, a
    vertex of the D-set that w violates.
    Every cut lies in the D-set, so the master's checked optimum bounds
    the value from above (dual: below), and the knapsack's value at w is
    exact; the loop stops when the two are equal.  p and the level are
    integers over pd, the Q-vertices integer rows over qd, and the
    knapsack and its values h.q sum in integers."""
    K = len(Qn)
    span = reduce(lcm, [x for x in pn if x], 1)
    keys = [span // x if x else 0 for x in pn]
    sense, rel = ("max", LE) if kind == PRIMAL else ("min", GE)
    # variables (t, w_1..w_K), all >= 0
    simplex = Constraint([ZERO] + [ONE] * K, EQ, ONE)
    cuts: list[Constraint] = []
    weights, t = (Fraction(1, K),) * K, None
    while True:
        wn, wd = scaled(weights)
        qn = [sum(map(mul, wn, col)) for col in zip(*Qn)]
        h = _knapsack(qn, pn, keys, level, kind)
        value = Fraction(h.dot(qn), h.unit * wd * qd)
        if value == t:
            s = h.last
            return _Game(value, weights, Fraction(qn[s] * pd, pn[s] * wd * qd))
        cut = [Fraction(-h.dot(row), h.unit * qd) for row in Qn]
        cuts.append(Constraint([ONE] + cut, rel, ZERO))
        sol = solve_lp(LinearProgram([ONE] + [ZERO] * K, sense, cuts + [simplex]))
        if sol.status != "Optimal":
            raise CertificateError(f"the game's master LP is {sol.status}")
        t, weights = sol.value, sol.primal[1:]


def basic_lemma_value(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> Fraction:
    """Primal: inf over D-set h of sup over Q of E_Q[h].
    Dual: sup over the dual D-set of inf over Q of E_Q[h]."""
    return _expectation_game(inst, vertex_p, kind).value


def hs_witness(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> HsWitness:
    """The witness of ``kind``, for a caller that knows its hypothesis
    holds on inst: the one body of both constructors, scanning no event.

    The mixture attaining the game's value, which is the primal bound; a
    dual value must be at most (2 - epsilon) * epsilon, bound 2*epsilon.
    `witness_claims` is checked, and the witness carries its claims.  The
    primal witness is the vacuous uniform mixture when 2*epsilon > 1.
    vertex_p must charge only the quasi-sure support of P, else
    ValueError, the vacuous witness included: outside it no Q-vertex has
    mass, so no bound over the support holds for vertex_p's events.
    """
    if kind == PRIMAL and 2 * inst.epsilon > 1:
        _support_rows(inst, [vertex_p])  # refuses a vertex_p off the support
        # no event can reach mass 2*epsilon; any mixture works vacuously
        k = len(inst.Q.vertices)
        weights = (Fraction(1, k),) * k
        return HsWitness(PRIMAL, vertex_p, mix(inst.Q.vertices, weights), weights,
                         NO_QUALIFYING_SET, ZERO)
    game = _expectation_game(inst, vertex_p, kind)
    bound = game.value
    if kind == DUAL:
        claim("inf-sup value at most (2-epsilon)*epsilon",
              game.value, LE, (2 - inst.epsilon) * inst.epsilon)
        bound = 2 * inst.epsilon
    w = HsWitness(kind, vertex_p, mix(inst.Q.vertices, game.weights),
                  game.weights, bound, game.multiplier)
    return replace(w, claims=witness_claims(inst, w))


def construct_hs_witness(
    inst: HsInstance,
    vertex_p: ProbabilityMeasure,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> HsWitness:
    """The primal witness: q_star(A) >= the bound >= epsilon*delta/2 for
    every event A with vertex_p(A) >= 2*epsilon.  The primal hypothesis
    check (HypothesisViolated when it fails), then `hs_witness`, which
    refuses a vertex_p that charges an outcome outside the quasi-sure
    support of P (ValueError)."""
    if not check_hypothesis_primal(inst, max_enum)[0]:
        raise HypothesisViolated(
            "the primal epsilon-delta hypothesis fails on this instance"
        )
    return hs_witness(inst, vertex_p, PRIMAL)


def construct_dual_hs_witness(
    inst: HsInstance,
    vertex_p: ProbabilityMeasure,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> HsWitness:
    """The dual witness: q_star(A) < 2*epsilon for every event A with
    vertex_p(A) < epsilon*delta.  The dual hypothesis check
    (HypothesisViolated when it fails), then `hs_witness`, which refuses
    a vertex_p that charges an outcome outside the quasi-sure support of
    P (ValueError)."""
    if not check_hypothesis_dual(inst, max_enum)[0]:
        raise HypothesisViolated(
            "the dual epsilon-delta hypothesis fails on this instance"
        )
    return hs_witness(inst, vertex_p, DUAL)


def knapsack_bound(
    inst: HsInstance,
    kind: str,
    q: ProbabilityMeasure,
    p: ProbabilityMeasure,
    multiplier: Fraction,
) -> Fraction:
    """The Lagrangian bound on q.h over a D-set at a multiplier lambda.

    Primal: L(lambda) = 2*epsilon*lambda - sum_o (lambda p_o - q_o)+, at
    most q.h for every h in [0, 1]^n with p.h >= 2*epsilon, and so at
    most q(A) for every event A with p(A) >= 2*epsilon.  Dual:
    U(lambda) = epsilon*delta*lambda + sum_o (q_o - lambda p_o)+, at least
    q.h for every h with p.h <= epsilon*delta, and so at least q(A) for
    every event A with p(A) <= epsilon*delta.  Sums run over the support
    of P, in integers over one denominator.  Both bounds hold for every
    lambda >= 0 and are exact at the game's own multiplier, so one scalar
    checks every event claim of a witness.  Raises CertificateError on a
    negative multiplier.
    """
    claim("knapsack multiplier lambda nonnegative", multiplier, GE, ZERO)
    (qn, pn), d = _support_rows(inst, [q, p])
    a, b = multiplier.numerator, multiplier.denominator
    sign = 1 if kind == PRIMAL else -1
    excess = 0
    for x, y in zip(pn, qn):
        e = sign * (a * x - b * y)
        if e > 0:
            excess += e
    excess = Fraction(excess, b * d)
    if kind == PRIMAL:
        return 2 * inst.epsilon * multiplier - excess
    return inst.epsilon * inst.delta * multiplier + excess


def witness_claims(inst: HsInstance, w: HsWitness) -> tuple[Claim, ...]:
    """What the witness guarantees, checked in O(n) by its multiplier
    lambda, with no event scan.

    Primal kind: the bound is at least epsilon*delta/2, and L(lambda) of
    q_star is at least the bound, so every event A with
    for_vertex_p(A) >= 2*epsilon has q_star(A) >= the bound; nothing when
    no event can reach 2*epsilon.  Dual kind: U(lambda) is below the
    bound, so every event A with for_vertex_p(A) < epsilon*delta has
    q_star(A) < the bound.  Raises CertificateError at the first false
    claim.
    """
    if w.kind == DUAL:
        return (claim("knapsack bound U(lambda) of Qstar below 2*epsilon",
                      knapsack_bound(inst, DUAL, w.q_star, w.for_vertex_p, w.multiplier),
                      LT, w.guaranteed_bound),)
    if w.guaranteed_bound == NO_QUALIFYING_SET:
        return ()
    return (
        claim("guaranteed bound at least epsilon*delta/2",
              w.guaranteed_bound, GE, inst.epsilon * inst.delta / 2),
        claim("knapsack bound L(lambda) of Qstar at least the guaranteed bound",
              knapsack_bound(inst, PRIMAL, w.q_star, w.for_vertex_p, w.multiplier),
              GE, w.guaranteed_bound),
    )


def hs_modulus(
    P: AmbiguitySet, Q: AmbiguitySet, epsilon, max_enum: int = DEFAULT_MAX_ENUM
) -> Fraction:
    """Worst-case best Q-mass over events carrying P-mass at least epsilon.

    Returns min over qualifying events A of max over Q-vertices of Q(A);
    the sentinel value 2 (impossible for a probability) signals that no
    event qualifies.  A level epsilon <= 0 is refused (ValueError): the
    modulus is defined for levels in (0, infinity) only.
    """
    epsilon = _positive_level(epsilon)
    if P.space != Q.space:
        raise DimensionMismatch("P and Q live on different spaces")
    best = _primal_scan(P, Q, epsilon, max_enum)
    return NO_QUALIFYING_SET if best is None else best.value


def dual_modulus(
    P: AmbiguitySet, Q: AmbiguitySet, epsilon, max_enum: int = DEFAULT_MAX_ENUM
) -> Fraction:
    """Largest delta with: min_P P(A) < delta implies min_Q Q(A) < epsilon,
    the least worst P-mass over events whose every Q-vertex mass is at
    least epsilon; the sentinel value 2 when no event qualifies.  A
    level epsilon <= 0 is refused (ValueError), as for `hs_modulus`."""
    epsilon = _positive_level(epsilon)
    if P.space != Q.space:
        raise DimensionMismatch("P and Q live on different spaces")
    events = support_events(P, max_enum)
    best = events.best(
        min, events.lower(P.vertices), (events.lower(Q.vertices), GE, epsilon)
    )
    return NO_QUALIFYING_SET if best is None else best.value


def _positive_level(epsilon) -> Fraction:
    """The level epsilon of a modulus as a Fraction; ValueError, naming it,
    when it is not positive."""
    epsilon = rational(epsilon)
    if epsilon <= 0:
        raise ValueError(f"the level epsilon must be positive, not {epsilon}")
    return epsilon


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
    for the continuous D-set optimum.  ValueError when vertex_p charges an
    outcome outside the quasi-sure support of P, as for the game.
    """
    _support_rows(inst, [vertex_p])
    events = support_events(inst.P, max_enum)
    best = events.best(
        min,
        events.upper(inst.Q.vertices),
        (events.mass(vertex_p), GE, 2 * inst.epsilon),
    )
    return None if best is None else best.value
