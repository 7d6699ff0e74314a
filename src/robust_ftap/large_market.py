"""Finite families of robust markets: asymptotic-arbitrage scanning and
contiguity certificates.

A market sequence here is a finite prefix of the infinite object; the
asymptotic notions are certified quantitatively: per-level moduli with a
uniform positive infimum certify the absence of asymptotic arbitrage on
the family, while the scanners search for explicit witness strategies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .claims import Claim, claim
from .errors import EmptyMartingalePolytope, HypothesisViolated
from .events import LT, support_events
from .halmos_savage import (
    NO_QUALIFYING_SET,
    HsInstance,
    construct_dual_hs_witness,
    construct_hs_witness,
    hs_modulus,
)
from .lp_core import Constraint, GE, LinearProgram, solve_lp
from .market import Market, MartingalePolytope, check_na, martingale_polytope
from .measures import DEFAULT_MAX_ENUM, AmbiguitySet, ProbabilityMeasure, mix

ZERO = Fraction(0)
ONE = Fraction(1)

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
                raise ValueError(
                    f"market {i + 1} admits an arbitrage "
                    f"(H={witness.H}, strict at {witness.strict_outcome})"
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
    ``claims`` lists the checks of each market's mixture."""

    per_market: tuple[ProbabilityMeasure, ...]
    mixture_weights: tuple[tuple[Fraction, ...], ...]
    components: tuple[tuple[ProbabilityMeasure, ...], ...]
    schedule: tuple[tuple[Fraction, Fraction], ...]  # (epsilon_m, delta_m)
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
    on the support, or None."""
    if m.d == 0:
        return None
    cons = []
    for o in m.support:
        target = alpha if o in event else -floor
        cons.append(Constraint(m.delta_s(o), GE, target))
    lp = LinearProgram(
        [ZERO] * m.d, "max", cons, lower=[-ONE] * m.d, upper=[ONE] * m.d
    )
    sol = solve_lp(lp)
    return sol.primal if sol.status == "Optimal" else None


def _feasible_events(
    m: Market,
    level: Fraction,
    alpha: Fraction,
    floor: Fraction,
    infeasible: list[tuple[int, Fraction, Fraction]],
    max_enum: int,
) -> Iterator[tuple[tuple[Fraction, ...], ProbabilityMeasure, Fraction]]:
    """(H, vertex, mass) for each event whose best P-vertex mass is at
    least level and whose strategy LP is feasible, by size and then
    lexicographically.  vertex is the first P-vertex of largest mass on the
    event, mass its mass of the high-gain event {gain of H >= alpha}.

    ``infeasible`` collects the (event mask, alpha, floor) of this market's
    infeasible LPs.  The LP only tightens when the event grows (for
    alpha >= -floor a constraint moves from >= -floor to >= alpha), when
    alpha grows and when floor shrinks, so an LP is skipped once a recorded
    (event0, alpha0, floor0) has event0 inside the event, alpha0 <= alpha
    and floor0 >= floor.
    """
    events = support_events(m.P, max_enum)
    upper = events.upper(m.P.vertices)
    prune = alpha >= -floor
    for mask in events.where(upper, GE, level):
        if prune and any(
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


def scan_aa1(
    seq: MarketSequence,
    alpha_grid: Sequence = DEFAULT_ALPHA_GRID,
    c_schedule: Optional[Sequence] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Optional[Aa1Witness]:
    """Search for a first-kind asymptotic arbitrage on the finite family.

    For a fixed level alpha, schedule slot k needs a market (strictly after
    the previous slot's) on which some strategy H gains at least alpha on
    an event carrying P-mass >= alpha while losing at most c_k elsewhere
    on the support.  A witness exists only when every slot can be filled;
    slots are filled greedily with the first feasible market.
    """
    if c_schedule is None:
        c_schedule = [Fraction(1, k + 1) for k in range(len(seq))]
    c_schedule = [Fraction(c) for c in c_schedule]
    if any(c <= 0 for c in c_schedule) or any(
        a <= b for a, b in zip(c_schedule, c_schedule[1:])
    ):
        raise ValueError("the loss schedule must be positive and decreasing")
    if not c_schedule:
        return None
    infeasible = defaultdict(list)  # per market index
    for alpha in (Fraction(a) for a in alpha_grid):
        indices, strategies, bounds, measures, claims = [], [], [], [], []
        next_market = 1
        for c_k in c_schedule:
            slot = None
            for n in range(next_market, len(seq) + 1):
                m = seq.markets[n - 1]
                found = _feasible_events(m, alpha, alpha, c_k, infeasible[n], max_enum)
                slot = next(found, None)
                if slot is not None:
                    break
            if slot is None:
                break
            H, vertex, p_gain = slot
            name = f"slot {len(indices) + 1} (market {n})"
            claims.append(
                claim(f"{name}: P-mass of the high-gain event", p_gain, ">=", alpha)
            )
            claims.append(claim(f"{name}: worst-case gain", _worst_gain(m, H), ">=", -c_k))
            indices.append(n)
            strategies.append(H)
            bounds.append(c_k)
            measures.append(vertex)
            next_market = n + 1
        else:
            return Aa1Witness(
                indices=tuple(indices),
                strategies=tuple(strategies),
                bounds=tuple(bounds),
                alpha=alpha,
                measures=tuple(measures),
                claims=tuple(claims),
            )
    return None


def scan_aa2(
    seq: MarketSequence,
    alpha_grid: Sequence = DEFAULT_ALPHA_GRID,
    target_levels: Optional[Sequence] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Optional[Aa2Witness]:
    """Search for a second-kind asymptotic arbitrage on the finite family.

    Same LP family as the first-kind scan but with a uniform loss bound of
    1; slot k requires an event carrying P-mass at least target_levels[k].
    The witness exists only when every slot can be filled by an unused
    later market.
    """
    if target_levels is None:
        N = max(len(seq), 1)
        target_levels = [1 - Fraction(1, k + 1) for k in range(1, N + 1)]
    target_levels = [Fraction(t) for t in target_levels]
    if any(a > b for a, b in zip(target_levels, target_levels[1:])):
        raise ValueError("target levels must be nondecreasing")
    infeasible = defaultdict(list)  # per market index
    for alpha in (Fraction(a) for a in alpha_grid):
        indices, strategies, measures, attained, claims = [], [], [], [], []
        next_market = 1
        for level in target_levels:
            slot = None
            for n in range(next_market, len(seq) + 1):
                m = seq.markets[n - 1]
                found = _feasible_events(m, level, alpha, ONE, infeasible[n], max_enum)
                for H, vertex, p_attained in found:
                    if p_attained >= level:
                        slot = (n, H, vertex, p_attained)
                        break
                if slot:
                    break
            if slot is None:
                break
            n, H, vertex, p_attained = slot
            name = f"slot {len(indices) + 1} (market {n})"
            # the slot's mass p_k is the attained mass itself
            claims.append(
                claim(f"{name}: attained P-mass", p_attained, ">=", p_attained)
            )
            m = seq.markets[n - 1]
            claims.append(claim(f"{name}: worst-case gain", _worst_gain(m, H), ">=", -ONE))
            indices.append(n)
            strategies.append(H)
            measures.append(vertex)
            attained.append(p_attained)
            next_market = n + 1
        else:
            if indices:
                return Aa2Witness(
                    indices=tuple(indices),
                    strategies=tuple(strategies),
                    alpha=alpha,
                    measures=tuple(measures),
                    attained=tuple(attained),
                    claims=tuple(claims),
                )
    return None


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
    epsilon_grid = tuple(Fraction(e) for e in epsilon_grid)
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


def _base_measures(
    seq: MarketSequence, p_sequence: Optional[Sequence[ProbabilityMeasure]]
) -> list[ProbabilityMeasure]:
    """One base measure per market; by default each market's first P-vertex."""
    if p_sequence is None:
        return [m.P.vertices[0] for m in seq.markets]
    p_sequence = list(p_sequence)
    if len(p_sequence) != len(seq):
        raise ValueError("one base measure per market required")
    return p_sequence


def build_contiguous_sequence(
    seq: MarketSequence,
    p_sequence: Optional[Sequence[ProbabilityMeasure]] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> ContiguousSequence:
    """Dominating martingale mixtures on the geometric-weight schedule.

    Level schedule eps_m = 1/m with delta_m the uniform primal modulus at
    eps_m; market n mixes the per-level witnesses with weights
    2^-m / (1 - 2^-n).  The resulting bound, with the normalizing factor
    dropped (which only strengthens it), is verified by enumeration:
    P_n(A) >= 2 eps_m implies Q_n(A) >= 2^-m * eps_m * delta_m / 2.
    """
    N = len(seq)
    if N == 0:
        raise ValueError("sequence must be nonempty")
    p_sequence = _base_measures(seq, p_sequence)
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
    per_market, all_weights, all_components, claims = [], [], [], []
    for n in range(1, N + 1):
        market = seq.markets[n - 1]
        components = []
        for m_level in range(1, n + 1):
            e, d = eps[m_level - 1], delta[m_level - 1]
            if 2 * e > 1 or e >= 1:
                # no event can satisfy the conclusion's threshold; any
                # martingale measure is a valid component
                components.append(q_sets[n - 1].vertices[0])
                continue
            inst = HsInstance(market.P, q_sets[n - 1], e, d)
            w = construct_hs_witness(inst, p_sequence[n - 1], max_enum)
            components.append(w.q_star)
        norm = 1 - Fraction(1, 2**n)
        weights = tuple(
            Fraction(1, 2**m_level) / norm for m_level in range(1, n + 1)
        )
        q_n = mix(components, weights)
        claims.append(
            claim(f"market {n}: mixture weights sum", sum(weights, ZERO), "=", ONE)
        )
        # bound verification over every event, per level
        events = support_events(market.P, max_enum)
        p, q = events.mass(p_sequence[n - 1]), events.mass(q_n)
        for m_level in range(1, n + 1):
            e, d = eps[m_level - 1], delta[m_level - 1]
            if 2 * e > 1:
                continue
            beta = Fraction(1, 2**m_level) * (e * d / 2)
            worst = events.best(min, q, (p, GE, 2 * e))
            if worst is not None:
                claims.append(claim(
                    f"market {n}, level {m_level}: least mixture mass on "
                    f"qualifying events",
                    worst.value, ">=", beta,
                ))
        per_market.append(q_n)
        all_weights.append(weights)
        all_components.append(tuple(components))
    schedule = tuple((eps[i], delta[i]) for i in range(N))
    return ContiguousSequence(
        per_market=tuple(per_market),
        mixture_weights=tuple(all_weights),
        components=tuple(all_components),
        schedule=schedule,
        claims=tuple(claims),
    )


def weak_contiguity_witness(
    seq: MarketSequence,
    p_sequence: Optional[Sequence[ProbabilityMeasure]] = None,
    epsilon=Fraction(1, 4),
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[Fraction, tuple[ProbabilityMeasure, ...]]:
    """Per-epsilon weak-contiguity certificate for the martingale sets.

    Works at the half level e' = epsilon / 2: with delta = e' * d(e') where
    d is the uniform dual modulus at e', each per-market witness measure
    satisfies P_n(A) < delta implies Q_n(A) < 2 e' = epsilon, verified by
    full enumeration (:func:`weak_contiguity_claims`).
    """
    epsilon = Fraction(epsilon)
    N = len(seq)
    if N == 0:
        raise ValueError("sequence must be nonempty")
    p_sequence = _base_measures(seq, p_sequence)
    q_sets = martingale_sets(seq, max_enum)
    if epsilon > 1:
        # vacuous: every probability is < epsilon
        picks = tuple(qs.vertices[0] for qs in q_sets)
        return ONE, picks
    half = epsilon / 2
    table = _moduli(seq, q_sets, [half], "dual", max_enum)
    d = table.uniform_delta[0]
    if d <= 0:
        raise HypothesisViolated(
            f"uniform dual modulus at level {half} is not positive"
        )
    d_eff = d if d < 1 else Fraction(1, 2)
    delta = half * d_eff
    picks = []
    for n in range(1, N + 1):
        market = seq.markets[n - 1]
        inst = HsInstance(market.P, q_sets[n - 1], half, d_eff)
        w = construct_dual_hs_witness(inst, p_sequence[n - 1], max_enum)
        picks.append(w.q_star)
    weak_contiguity_claims(seq, delta, picks, epsilon, p_sequence, max_enum)
    return delta, tuple(picks)


def weak_contiguity_claims(
    seq: MarketSequence,
    delta,
    picks: Sequence[ProbabilityMeasure],
    epsilon,
    p_sequence: Optional[Sequence[ProbabilityMeasure]] = None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[Claim, ...]:
    """The weak-contiguity bound P_n(A) < delta => picks[n](A) < epsilon: per
    market with such events A, a claim on their largest pick mass; none for
    epsilon > 1.  Raises CertificateError when a claim fails."""
    epsilon = Fraction(epsilon)
    if epsilon > 1:
        return ()
    claims = []
    bases = _base_measures(seq, p_sequence)
    for n, (market, p, q) in enumerate(zip(seq.markets, bases, picks), start=1):
        events = support_events(market.P, max_enum)
        worst = events.best(max, events.mass(q), (events.mass(p), LT, delta))
        if worst is not None:
            claims.append(claim(
                f"market {n}: largest witness mass on small events",
                worst.value, "<", epsilon,
            ))
    return tuple(claims)


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
