"""Finite families of robust markets: asymptotic-arbitrage scanning and
contiguity certificates.

A market sequence here is a finite prefix of the infinite object; the
asymptotic notions are certified quantitatively: per-level moduli with a
uniform positive infimum certify the absence of asymptotic arbitrage on
the family, while the scanners search for explicit witness strategies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .claims import GE, LE, Claim, claim
from .errors import EmptyMartingalePolytope, HypothesisViolated
from .events import Envelope, EventSpace, support_events
from .halmos_savage import (
    NO_QUALIFYING_SET,
    PRIMAL,
    HsInstance,
    construct_dual_hs_witness,
    construct_hs_witness,
    hs_modulus,
    knapsack_bound,
    witness_claims,
)
from .lp_core import Constraint, LinearProgram, solve_lp
from .market import Market, check_na, martingale_polytope
from .measures import (
    DEFAULT_MAX_ENUM,
    ONE,
    ZERO,
    AmbiguitySet,
    ProbabilityMeasure,
    mix,
    rational,
)

DEFAULT_ALPHA_GRID = (
    Fraction(1, 10),
    Fraction(1, 5),
    Fraction(3, 10),
    Fraction(2, 5),
    Fraction(1, 2),
)


@dataclass(frozen=True)
class MarketSequence:
    """Ordered finite family of one-period markets, each arbitrage-free.

    No-arbitrage of every member is validated at construction time.
    """

    markets: tuple[Market, ...]

    def __init__(self, markets: Sequence[Market]):
        markets = tuple(markets)
        for i, m in enumerate(markets):
            holds, witness = check_na(m)
            if not holds:
                H = ", ".join(map(str, witness.H))
                raise ValueError(
                    f"market {i + 1} admits an arbitrage "
                    f"(H = [{H}], strict at {witness.strict_outcome})"
                )
        object.__setattr__(self, "markets", markets)

    def __len__(self) -> int:
        return len(self.markets)


@dataclass(frozen=True)
class Aa1Witness:
    """First-kind asymptotic arbitrage data on a subsequence of markets;
    ``claims`` lists the checks of each slot."""

    indices: tuple[int, ...]  # 1-based market indices
    strategies: tuple[tuple[Fraction, ...], ...]
    bounds: tuple[Fraction, ...]  # c_k, positive and decreasing
    alpha: Fraction
    measures: tuple[ProbabilityMeasure, ...]
    claims: tuple[Claim, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class Aa2Witness:
    """Second-kind asymptotic arbitrage data on a subsequence of markets;
    ``claims`` lists the checks of each slot."""

    indices: tuple[int, ...]
    strategies: tuple[tuple[Fraction, ...], ...]
    alpha: Fraction
    measures: tuple[ProbabilityMeasure, ...]
    attained: tuple[Fraction, ...]  # p_k, nondecreasing
    claims: tuple[Claim, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class ModulusTable:
    epsilon_grid: tuple[Fraction, ...]
    per_market: tuple[tuple[Fraction, ...], ...]  # [market][epsilon index]
    uniform_delta: tuple[Fraction, ...]  # per epsilon, min over markets

    @property
    def positive(self) -> bool:
        """Whether every uniform modulus is positive: the finite-family
        certificate of no asymptotic arbitrage of the table's kind."""
        return all(u > 0 for u in self.uniform_delta)

    @property
    def claims(self) -> tuple[Claim, ...]:
        """The positive uniform moduli, one claim per level."""
        return tuple(
            claim(f"uniform modulus at epsilon {eps}", u, ">", ZERO)
            for eps, u in zip(self.epsilon_grid, self.uniform_delta)
            if u > 0
        )


@dataclass(frozen=True)
class ContiguousSequence:
    """Per-market dominating martingale mixtures built on a level schedule;
    ``claims`` lists the checks of each market's mixture, and
    ``multipliers`` the knapsack multiplier of each level's bound claim
    (0 at a vacuous level)."""

    per_market: tuple[ProbabilityMeasure, ...]
    mixture_weights: tuple[tuple[Fraction, ...], ...]
    components: tuple[tuple[ProbabilityMeasure, ...], ...]
    schedule: tuple[tuple[Fraction, Fraction], ...]  # (epsilon_m, delta_m)
    multipliers: tuple[tuple[Fraction, ...], ...]  # [market][level]
    claims: tuple[Claim, ...] = field(default=(), repr=False, compare=False)


def _worst_gain(m: Market, H: Sequence[Fraction]) -> Fraction:
    return min(m.gain(H, o) for o in m.support)


def _feasible_strategy(
    m: Market,
    event: frozenset[str],
    alpha: Fraction,
    floor: Fraction,
) -> Optional[tuple[Fraction, ...]]:
    """H in [-1,1]^d with gain >= alpha on the event and >= -floor elsewhere
    on the support, or None.  The box is the lower bounds -1 and one row
    H_j <= 1 per asset after the support rows."""
    if m.d == 0:
        return None
    cons = []
    for o in m.support:
        target = alpha if o in event else -floor
        cons.append(Constraint(m.delta_s(o), GE, target))
    for j in range(m.d):
        cons.append(Constraint([ONE if k == j else ZERO for k in range(m.d)], LE, ONE))
    lp = LinearProgram([ZERO] * m.d, "max", cons, lower=[-ONE] * m.d)
    sol = solve_lp(lp)
    return sol.primal if sol.status == "Optimal" else None


def _feasible_events(
    m: Market,
    events: EventSpace,
    upper: Envelope,
    infeasible: list[tuple[int, Fraction, Fraction]],
    level: Fraction,
    alpha: Fraction,
    floor: Fraction,
) -> Iterator[tuple[tuple[Fraction, ...], ProbabilityMeasure, Fraction]]:
    """(H, vertex, mass) for each event whose best P-vertex mass (``upper``)
    is at least level and whose strategy LP is feasible, by size and then
    lexicographically.  vertex is the first P-vertex of largest mass on the
    event, mass its mass of the high-gain event {gain of H >= alpha}.

    ``infeasible`` collects the (event mask, alpha, floor) of this market's
    infeasible LPs.  As alpha > 0 > -floor, the LP only tightens when the
    event grows (a constraint moves from >= -floor to >= alpha), when alpha
    grows and when floor shrinks, so an LP is skipped once a recorded
    (event0, alpha0, floor0) has event0 inside the event, alpha0 <= alpha
    and floor0 >= floor.
    """
    for mask in events.where(upper, GE, level):
        if any(
            bad & mask == bad and a0 <= alpha and f0 >= floor
            for bad, a0, f0 in infeasible
        ):
            continue
        H = _feasible_strategy(m, events.event(mask), alpha, floor)
        if H is None:
            infeasible.append((mask, alpha, floor))
            continue
        vertex = m.P.vertices[upper.first_best(mask)]
        gain_event = events.mask(o for o in events.labels if m.gain(H, o) >= alpha)
        yield H, vertex, events.mass(vertex).at(gain_event)


def _fill_slots(
    seq: MarketSequence,
    alpha_grid: Sequence,
    slots: Callable[[Fraction], list[tuple[Fraction, Fraction]]],
    mass_claim: str,
    max_enum: int,
) -> Optional[tuple[dict, tuple[Fraction, ...]]]:
    """The slot search of both asymptotic-arbitrage kinds.

    ``slots(alpha)`` lists a (level, floor) per slot; slot k takes the first
    market after slot k-1's with an event of best P-vertex mass >= level
    and a strategy gaining >= alpha on it and >= -floor elsewhere.  Returns
    the shared witness fields and the high-gain P-masses at the first alpha
    that fills a nonempty list of slots; None when no alpha does.
    """
    alphas = [rational(a) for a in alpha_grid]
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha levels must be positive")

    @functools.cache
    def market_scan(n: int):
        # built on the market's first visit, kept for the rest of the scan
        m = seq.markets[n - 1]
        events = support_events(m.P, max_enum)
        return m, events, events.upper(m.P.vertices), []

    for alpha in alphas:
        filled, claims = [], []
        next_market = 1
        for level, floor in slots(alpha):
            candidates = (
                (n, slot)
                for n in range(next_market, len(seq) + 1)
                for slot in _feasible_events(*market_scan(n), level, alpha, floor)
            )
            found = next(candidates, None)
            if found is None:
                break
            n, (H, vertex, mass) = found
            name = f"slot {len(filled) + 1} (market {n})"
            # the high-gain event contains the scanned event, whose best
            # P-vertex mass is at least the slot's level
            claims.append(claim(f"{name}: {mass_claim}", mass, ">=", level))
            worst = _worst_gain(seq.markets[n - 1], H)
            claims.append(claim(f"{name}: worst-case gain", worst, ">=", -floor))
            filled.append((n, H, vertex, mass))
            next_market = n + 1
        else:
            if filled:
                indices, strategies, measures, masses = zip(*filled)
                fields = dict(indices=indices, strategies=strategies, alpha=alpha,
                              measures=measures, claims=tuple(claims))
                return fields, masses
    return None


def scan_aa1(
    seq: MarketSequence,
    alpha_grid: Sequence = DEFAULT_ALPHA_GRID,
    c_schedule: Optional[Sequence] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Optional[Aa1Witness]:
    """Search for a first-kind asymptotic arbitrage on the finite family.

    For a fixed level alpha > 0, schedule slot k needs a market (strictly
    after the previous slot's) on which some strategy H gains at least
    alpha on an event carrying P-mass >= alpha while losing at most c_k
    elsewhere on the support: the slot (alpha, c_k) of the shared search.
    """
    if c_schedule is None:
        c_schedule = [Fraction(1, k + 1) for k in range(len(seq))]
    c_schedule = [rational(c) for c in c_schedule]
    if any(c <= 0 for c in c_schedule) or any(
        a <= b for a, b in zip(c_schedule, c_schedule[1:])
    ):
        raise ValueError("the loss schedule must be positive and decreasing")
    found = _fill_slots(seq, alpha_grid, lambda alpha: [(alpha, c) for c in c_schedule],
                        "P-mass of the high-gain event", max_enum)
    if found is None:
        return None
    fields, _ = found
    return Aa1Witness(**fields, bounds=tuple(c_schedule))


def scan_aa2(
    seq: MarketSequence,
    alpha_grid: Sequence = DEFAULT_ALPHA_GRID,
    target_levels: Optional[Sequence] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Optional[Aa2Witness]:
    """Search for a second-kind asymptotic arbitrage on the finite family.

    Same LP family as the first-kind scan but with a uniform loss bound of
    1; slot k requires an event carrying P-mass at least target_levels[k]:
    the slot (target_levels[k], 1) of the shared search.
    """
    if target_levels is None:
        N = max(len(seq), 1)
        target_levels = [1 - Fraction(1, k + 1) for k in range(1, N + 1)]
    target_levels = [rational(t) for t in target_levels]
    if any(t <= 0 for t in target_levels) or target_levels != sorted(target_levels):
        raise ValueError("target levels must be positive and nondecreasing")
    found = _fill_slots(seq, alpha_grid, lambda alpha: [(t, ONE) for t in target_levels],
                        "attained P-mass", max_enum)
    if found is None:
        return None
    fields, attained = found
    return Aa2Witness(**fields, attained=attained)


def martingale_sets(
    seq: MarketSequence, max_enum: int = DEFAULT_MAX_ENUM
) -> list[AmbiguitySet]:
    """Per-market martingale polytopes as ambiguity sets (vertex lists)."""
    out = []
    for m in seq.markets:
        poly = martingale_polytope(m, max_enum)
        if not poly.vertices:
            raise EmptyMartingalePolytope(
                "a market in the sequence has no martingale measure"
            )
        out.append(AmbiguitySet(m.space, poly.vertices))
    return out


def certify_moduli(
    seq: MarketSequence,
    epsilon_grid: Sequence,
    kind: str = "primal",
    max_enum: int = DEFAULT_MAX_ENUM,
) -> ModulusTable:
    """Per-market and uniform quantitative moduli against the martingale sets.

    Primal kind: the worst-case martingale mass delta_n(eps) guaranteed on
    events of P-mass >= eps; a positive uniform infimum over the family is
    the finite-family certificate for absence of first-kind asymptotic
    arbitrage.  Dual kind: the largest delta such that events of P-mass
    below delta keep some martingale mass below eps, mirrored for the
    second kind.
    """
    if kind not in ("primal", "dual"):
        raise ValueError("kind must be 'primal' or 'dual'")
    return _moduli(seq, martingale_sets(seq, max_enum), epsilon_grid, kind, max_enum)


def _moduli(seq, q_sets, epsilon_grid, kind: str, max_enum: int) -> ModulusTable:
    """:func:`certify_moduli` against the martingale sets already enumerated."""
    epsilon_grid = tuple(map(rational, epsilon_grid))
    modulus = hs_modulus if kind == "primal" else _dual_modulus
    per_market = tuple(
        tuple(modulus(m.P, q_set, eps, max_enum) for eps in epsilon_grid)
        for m, q_set in zip(seq.markets, q_sets)
    )
    uniform = tuple(
        min(row[j] for row in per_market) for j in range(len(epsilon_grid))
    )
    return ModulusTable(epsilon_grid, per_market, uniform)


def _dual_modulus(
    P: AmbiguitySet, Q: AmbiguitySet, epsilon: Fraction, max_enum: int
) -> Fraction:
    """Largest delta with: min_P P(A) < delta implies min_Q Q(A) < epsilon.

    Equals the least P-mass among events where every martingale mass is at
    least epsilon; sentinel 2 when no such event exists.
    """
    events = support_events(P, max_enum)
    best = events.best(
        min, events.lower(P.vertices), (events.lower(Q.vertices), GE, epsilon)
    )
    return NO_QUALIFYING_SET if best is None else best.value


def build_contiguous_sequence(
    seq: MarketSequence, max_enum: int = DEFAULT_MAX_ENUM
) -> ContiguousSequence:
    """Dominating martingale mixtures on the geometric-weight schedule.

    Level schedule eps_m = 1/m with delta_m the uniform primal modulus at
    eps_m; market n mixes the per-level witnesses for its first P-vertex
    P_n with weights w_m = 2^-m / (1 - 2^-n).  The resulting bound, with
    the normalizing factor dropped (which only strengthens it), is
    P_n(A) >= 2 eps_m implies Q_n(A) >= 2^-m * eps_m * delta_m / 2.  It is
    verified per level by one knapsack bound at w_m * lambda_m, lambda_m
    the level witness's multiplier: L is nondecreasing in q, Q_n >= w_m q*_m,
    and L(w q, w lambda) = w L(q, lambda) >= w_m * eps_m * delta_m / 2.
    """
    N = len(seq)
    if N == 0:
        raise ValueError("sequence must be nonempty")
    eps = [Fraction(1, mm) for mm in range(1, N + 1)]
    q_sets = martingale_sets(seq, max_enum)
    table = _moduli(seq, q_sets, eps, "primal", max_enum)
    delta = []
    for m_idx in range(N):
        u = table.uniform_delta[m_idx]
        if u <= 0:
            raise HypothesisViolated(
                f"uniform modulus at level {eps[m_idx]} is not positive"
            )
        # the modulus can reach 1 (or the no-qualifying-event sentinel);
        # shrink into (0,1) since only a lower bound is needed
        delta.append(u if u < 1 else Fraction(1, 2))
    per_market, all_weights, all_components, all_multipliers, claims = [], [], [], [], []
    for n in range(1, N + 1):
        market = seq.markets[n - 1]
        vertex_p = market.P.vertices[0]
        norm = 1 - Fraction(1, 2**n)
        weights = tuple(
            Fraction(1, 2**m_level) / norm for m_level in range(1, n + 1)
        )
        components, levels = [], []
        for m_level in range(1, n + 1):
            e, d = eps[m_level - 1], delta[m_level - 1]
            if 2 * e > 1:
                # no event can satisfy the conclusion's threshold; any
                # martingale measure is a valid component
                components.append(q_sets[n - 1].vertices[0])
                continue
            inst = HsInstance(market.P, q_sets[n - 1], e, d)
            w = construct_hs_witness(inst, vertex_p, max_enum)
            components.append(w.q_star)
            levels.append((m_level, inst, w.multiplier))
        q_n = mix(components, weights)
        claims.append(
            claim(f"market {n}: mixture weights sum", sum(weights, ZERO), "=", ONE)
        )
        multipliers = [ZERO] * n
        for m_level, inst, lam in levels:
            multipliers[m_level - 1] = weights[m_level - 1] * lam
            beta = Fraction(1, 2**m_level) * (inst.epsilon * inst.delta / 2)
            claims.append(claim(
                f"market {n}, level {m_level}: knapsack bound L(lambda) of the mixture",
                knapsack_bound(inst, PRIMAL, q_n, vertex_p, multipliers[m_level - 1]),
                GE, beta,
            ))
        per_market.append(q_n)
        all_weights.append(weights)
        all_components.append(tuple(components))
        all_multipliers.append(tuple(multipliers))
    schedule = tuple((eps[i], delta[i]) for i in range(N))
    return ContiguousSequence(
        per_market=tuple(per_market),
        mixture_weights=tuple(all_weights),
        components=tuple(all_components),
        schedule=schedule,
        multipliers=tuple(all_multipliers),
        claims=tuple(claims),
    )


def weak_contiguity_witness(
    seq: MarketSequence,
    epsilon=Fraction(1, 4),
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[Fraction, tuple[ProbabilityMeasure, ...]]:
    """Per-epsilon weak-contiguity certificate for the martingale sets.

    Works at the half level e' = epsilon / 2: with delta = e' * d(e') where
    d is the uniform dual modulus at e', each per-market witness measure
    satisfies P_n(A) < delta implies Q_n(A) < 2 e' = epsilon, for P_n the
    market's first P-vertex, verified by the dual witness's knapsack
    multiplier (:func:`weak_contiguity_certificate`).
    """
    return weak_contiguity_certificate(seq, epsilon, max_enum)[:2]


def weak_contiguity_certificate(
    seq: MarketSequence,
    epsilon=Fraction(1, 4),
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[Fraction, tuple[ProbabilityMeasure, ...], tuple[Fraction, ...], tuple[Claim, ...]]:
    """:func:`weak_contiguity_witness` as (delta, picks, multipliers,
    claims).  Each pick is the dual witness at level epsilon/2 and
    epsilon*d/2 = delta, so its own claims (`witness_claims`, prefixed
    with the market) state the bound, at its multiplier; none and
    multipliers 0 for epsilon > 1."""
    epsilon = rational(epsilon)
    N = len(seq)
    if N == 0:
        raise ValueError("sequence must be nonempty")
    q_sets = martingale_sets(seq, max_enum)
    if epsilon > 1:
        # vacuous: every probability is < epsilon
        picks = tuple(qs.vertices[0] for qs in q_sets)
        return ONE, picks, (ZERO,) * N, ()
    half = epsilon / 2
    table = _moduli(seq, q_sets, [half], "dual", max_enum)
    d = table.uniform_delta[0]
    if d <= 0:
        raise HypothesisViolated(
            f"uniform dual modulus at level {half} is not positive"
        )
    d_eff = d if d < 1 else Fraction(1, 2)
    picks, multipliers, claims = [], [], []
    for n, (market, q_set) in enumerate(zip(seq.markets, q_sets), start=1):
        inst = HsInstance(market.P, q_set, half, d_eff)
        w = construct_dual_hs_witness(inst, market.P.vertices[0], max_enum)
        picks.append(w.q_star)
        multipliers.append(w.multiplier)
        claims += (replace(c, description=f"market {n}: {c.description}")
                   for c in witness_claims(inst, w))
    return half * d_eff, tuple(picks), tuple(multipliers), tuple(claims)


def martingale_contradiction_margin(
    m: Market,
    H: Sequence[Fraction],
    alpha: Fraction,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Fraction:
    """Max martingale mass of the high-gain event {gain >= alpha}.

    Against a first-kind witness with loss bound c, any martingale measure
    must keep this mass at or below c / alpha (else its expected gain would
    be positive, contradicting the zero-expectation property).
    """
    poly = martingale_polytope(m, max_enum)
    if not poly.vertices:
        raise EmptyMartingalePolytope("no martingale measure")
    events = support_events(m.P, max_enum)
    event = events.mask(o for o in events.labels if m.gain(H, o) >= alpha)
    return events.upper(poly.vertices).at(event)
