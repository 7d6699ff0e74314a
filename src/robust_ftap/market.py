"""One-period robust market: no-arbitrage, martingale measures, superhedging.

The market carries a deterministic initial price vector, a payoff matrix
over the outcomes and a polytope of candidate laws.  Every LP and the
polytope are built on the d+1 rows of the martingale system, sum q = 1
and E_q[increments] = 0 on the quasi-sure support.  All verdicts come
with machine-checkable witnesses: a martingale measure charging the whole
quasi-sure support, or an explicit arbitrage strategy read off the dual
of the same LP; the vertex list of the martingale-measure polytope; or a
superhedge read off the dual of max E_q[f], with the maximizing q.

A `Market` keeps the answers that depend on it alone, each computed
lazily, when it is first asked for, and then kept on the object: the
no-arbitrage decision, the vertex list of the martingale polytope, the
answer of `check_ftap`, and its martingale LP, whose rows the polytope
reads and whose phase 1 every superhedge LP on the market shares.
Nothing is kept outside the market, and equal markets share none of
these answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import mul
from typing import Collection, Iterable, Optional, Sequence

from .claims import EQ, Claim, claim
from .errors import (
    CertificateError,
    DimensionMismatch,
    EnumerationCapExceeded,
    NaViolated,
)
from .lp_core import (
    Constraint,
    LinearProgram,
    LpSolution,
    enumerate_basic_feasible,
    matrix_rank,
    solve_lp,
)
from .measures import (
    DEFAULT_MAX_ENUM,
    ONE,
    ZERO,
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
    integer_rows,
    rational,
    scaled,
)


@dataclass(frozen=True)
class Market:
    """One-period market: d assets, outcome-indexed payoffs, ambiguity set.

    The quasi-sure support, in sample-space order, and the price increment
    at every outcome are computed once, at construction, the increments
    also as integer rows over one common denominator, which the gains and
    the expected increments sum.  Four answers are computed once each,
    when first asked for, as `cached_property`s left out of equality and
    hashing: the no-arbitrage decision (`check_na`), the martingale
    polytope's vertices (`martingale_polytope`), the FTAP sides
    (`check_ftap`) and the martingale LP over the d+1 martingale rows,
    which `martingale_polytope` and `superhedge` read.
    """

    space: SampleSpace
    d: int
    s0: tuple[Fraction, ...]
    s1: tuple[tuple[Fraction, ...], ...]  # |outcomes| rows x d columns
    P: AmbiguitySet
    support: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _increments: dict = field(init=False, repr=False, compare=False)
    _int_increments: dict = field(init=False, repr=False, compare=False)
    _increment_scale: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        space: SampleSpace,
        s0: Iterable,
        s1: Iterable[Iterable],
        P: AmbiguitySet,
    ):
        s0 = tuple(map(rational, s0))
        s1 = tuple(tuple(map(rational, row)) for row in s1)
        d = len(s0)
        if len(s1) != space.size or any(len(row) != d for row in s1):
            raise DimensionMismatch("payoff matrix must be |outcomes| x d")
        if P.space != space:
            raise DimensionMismatch("ambiguity set on a different space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "support", P.support)
        increments = {
            o: tuple(x - y for x, y in zip(row, s0))
            for o, row in zip(space.outcomes, s1)
        }
        nums, scale = scaled([x for row in increments.values() for x in row])
        ints = {o: tuple(nums[k * d : (k + 1) * d]) for k, o in enumerate(increments)}
        object.__setattr__(self, "_increments", increments)
        object.__setattr__(self, "_int_increments", ints)
        object.__setattr__(self, "_increment_scale", scale)

    def delta_s(self, outcome: str) -> tuple[Fraction, ...]:
        return self._increments[outcome]

    def gain(self, H: Sequence[Fraction], outcome: str) -> Fraction:
        h, scale = scaled(H)
        g = sum(a * b for a, b in zip(h, self._int_increments[outcome]))
        return Fraction(g, scale * self._increment_scale)

    def gains(self, H: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The gain of H at each support outcome, in support order, with H
        scaled to integers once."""
        h, scale = scaled(H)
        scale *= self._increment_scale
        rows = self._int_increments
        return tuple(
            Fraction(sum(map(mul, h, rows[o])), scale) for o in self.support
        )

    def measure(self, values: Iterable) -> ProbabilityMeasure:
        """The probability measure with the given masses on the support."""
        mass = dict(zip(self.support, values))
        return ProbabilityMeasure(
            self.space, [mass.get(o, ZERO) for o in self.space.outcomes]
        )

    @cached_property
    def _no_arbitrage(
        self,
    ) -> tuple[Optional[ProbabilityMeasure], Optional[ArbitrageWitness]]:
        return _decide_na(self)

    @cached_property
    def _martingale_vertices(self) -> tuple[ProbabilityMeasure, ...]:
        return _enumerate_martingale_vertices(self)

    @cached_property
    def _ftap(
        self,
    ) -> tuple[bool, tuple[tuple[ProbabilityMeasure, Optional[ProbabilityMeasure]], ...]]:
        return _decide_ftap(self)

    @cached_property
    def _martingale_lp(self) -> LinearProgram:
        return LinearProgram([ZERO] * len(self.support), "max", _martingale_rows(self))

    def martingale_claims(
        self, q: ProbabilityMeasure, name: str
    ) -> tuple[Claim, ...]:
        """E_q[increment of asset i] = 0 over the support, for each asset i;
        raises CertificateError when q is not a martingale measure."""
        (mass,), scale = integer_rows([q], map(q.space.index, self.support))
        rows = [self._int_increments[o] for o in self.support]
        scale *= self._increment_scale
        return tuple(
            claim(
                f"{name}: expected increment of asset {i}",
                Fraction(sum(a * row[i] for a, row in zip(mass, rows)), scale),
                "=",
                ZERO,
            )
            for i in range(self.d)
        )


@dataclass(frozen=True)
class ArbitrageWitness:
    """An arbitrage H; ``claims`` lists its gains on the support, checked."""

    H: tuple[Fraction, ...]
    strict_outcome: str
    claims: tuple[Claim, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class MartingalePolytope:
    """All probability measures on the quasi-sure support with zero expected
    increments, given by the vertex list of the defining polytope."""

    market: Market
    vertices: tuple[ProbabilityMeasure, ...]


@dataclass(frozen=True)
class HedgeCertificate:
    """The least superhedging price with its hedge H and a martingale
    measure attaining it; ``claims`` lists the checks of all three."""

    price: Fraction
    H: tuple[Fraction, ...]
    payoff: BoundedFunction
    attaining_q: ProbabilityMeasure
    claims: tuple[Claim, ...] = field(default=(), repr=False, compare=False)


def check_na(m: Market) -> tuple[bool, Optional[ArbitrageWitness]]:
    """Robust no-arbitrage: no H with nonnegative gain quasi-surely and a
    strictly positive gain on a support outcome.

    Decided once per market by one LP (see `full_support_martingale`); the
    arbitrage witness, when there is one, is read off that LP's dual.
    """
    q, witness = m._no_arbitrage
    return q is not None, witness


def full_support_martingale(m: Market) -> Optional[ProbabilityMeasure]:
    """A martingale measure charging every outcome of the quasi-sure
    support, checked, or None when the market admits an arbitrage.

    On a finite support such a measure exists exactly when no-arbitrage
    holds (Dalang-Morton-Willinger; quasi-sure form in Bouchard-Nutz), so
    it is the witness of an "NA holds" verdict.
    """
    return m._no_arbitrage[0]


def _decide_na(
    m: Market,
) -> tuple[Optional[ProbabilityMeasure], Optional[ArbitrageWitness]]:
    """One LP, max t with q >= t on the whole support, decides NA.

    t* > 0 gives a full-support martingale measure.  Otherwise the checked
    dual names the arbitrage: H is the multipliers y of the martingale
    rows when t* = 0 (the reduced costs give H . dS_o >= 0 at every
    outcome and H . sum_o dS_o >= 1), and -y when the LP is infeasible
    (the Farkas multipliers give -y . dS_o >= y_0 > 0).  The strict
    outcome is the first support outcome where H gains, or the first
    outcome when H gains nowhere; every gain is claimed, so a bad dual
    raises CertificateError.
    """
    sol, q = _max_charge(m, m.support)
    if q is not None:
        m.martingale_claims(q, "full-support Q")
        _positive_claims(q, m.support, "full-support Q")
        return q, None
    if sol.status not in ("Optimal", "Infeasible"):
        raise CertificateError(f"the full-support martingale LP is {sol.status}")
    sign = 1 if sol.status == "Optimal" else -1
    H = tuple(sign * y for y in sol.dual[1 : 1 + m.d])
    gains = dict(zip(m.support, m.gains(H)))
    strict = next((o for o, g in gains.items() if g > 0), m.support[0])
    claims = tuple(claim(f"gain of H at {o}", g, ">=", ZERO) for o, g in gains.items())
    claims += (claim(f"strict gain at {strict}", gains[strict], ">", ZERO),)
    return None, ArbitrageWitness(H, strict, claims)


def martingale_polytope(
    m: Market, max_enum: int = DEFAULT_MAX_ENUM
) -> MartingalePolytope:
    """Vertex list of {q >= 0 on the support, sum q = 1, E_q[increments] = 0}.

    Each of the C(n, rank) bases of the d+1 rows is solved in turn
    (`enumerate_basic_feasible`); adequate and exact at desk scale.  The
    list is enumerated once per market and kept on it.  A support larger
    than `max_enum` is refused, on every call and before the kept list is
    read, with the number of bases C(n, rank) the enumeration would try.
    """
    n = len(m.support)
    if n > max_enum:
        rows = [row.coeffs for row in m._martingale_lp.constraints]
        raise EnumerationCapExceeded(n, max_enum, bases=comb(n, matrix_rank(rows)))
    return MartingalePolytope(market=m, vertices=m._martingale_vertices)


def _enumerate_martingale_vertices(m: Market) -> tuple[ProbabilityMeasure, ...]:
    rows = m._martingale_lp.constraints
    verts = enumerate_basic_feasible([row.coeffs for row in rows], [row.rhs for row in rows])
    return tuple(m.measure(q) for q in verts)


def _martingale_rows(m: Market, *extra: Sequence[Fraction]) -> list[Constraint]:
    """The d+1 equality rows sum q = 1 and E_q[increment of asset i] = 0
    over the support, one column per support outcome and then one per
    `extra` column of d+1 coefficients.  The market's martingale LP holds
    them with no extra column; only `_max_charge` builds them again, with
    the column of t."""
    cols = [(ONE,) + m.delta_s(o) for o in m.support] + list(extra)
    return [
        Constraint([col[k] for col in cols], EQ, ONE if k == 0 else ZERO)
        for k in range(m.d + 1)
    ]


def _max_charge(
    m: Market, charged: Collection[str]
) -> tuple[LpSolution, Optional[ProbabilityMeasure]]:
    """The checked solution of max t over (s on the support, t >= 0)
    subject to the martingale rows of q, where q_o = s_o + t on every
    charged outcome and q_o = s_o elsewhere, and q when t* > 0: then q is a
    martingale measure charging every outcome in `charged`.  The column of
    t is the sum of (1, dS_o) over `charged`, so t <= 1 / |charged| holds
    without a bound."""
    t_col = _charge_column(m, charged)
    n = len(m.support)
    sol = solve_lp(LinearProgram([ZERO] * n + [ONE], "max", _martingale_rows(m, t_col)))
    if sol.status != "Optimal" or sol.value <= 0:
        return sol, None
    *s, t = sol.primal
    return sol, m.measure(v + t if o in charged else v for o, v in zip(m.support, s))


def _charge_column(m: Market, charged: Collection[str]) -> list[Fraction]:
    """The sum of (1, dS_o) over the outcomes in `charged`, summed in the
    market's integer increments."""
    rows = [m._int_increments[o] for o in charged]
    return [Fraction(len(rows))] + [
        Fraction(sum(row[i] for row in rows), m._increment_scale) for i in range(m.d)
    ]


def find_dominating_martingale(
    m: Market, vertex_p: ProbabilityMeasure
) -> Optional[ProbabilityMeasure]:
    """A martingale measure Q with Q > 0 on the support of vertex_p, if any.

    Maximizes the minimal mass t on supp(vertex_p) subject to the
    martingale constraints; vertex_p << Q exactly when the optimum is
    positive.
    """
    if vertex_p.support - set(m.support):
        return None
    return _max_charge(m, vertex_p.support)[1]


def _positive_claims(
    q: ProbabilityMeasure, outcomes: Iterable[str], name: str
) -> tuple[Claim, ...]:
    """q > 0 at every outcome in `outcomes`; raises CertificateError when a
    claim fails."""
    mass, at = q.mass, q.space.index
    return tuple(
        claim(f"{name} positive at {o}", mass[at(o)], ">", ZERO) for o in outcomes
    )


def charging_claims(
    vertex_p: ProbabilityMeasure, q: ProbabilityMeasure
) -> tuple[Claim, ...]:
    """q charges every outcome that vertex_p charges, in label order;
    raises CertificateError when a claim fails."""
    return _positive_claims(q, sorted(vertex_p.support), "dominating Q")


def dominating_claims(
    m: Market, vertex_p: ProbabilityMeasure, q: ProbabilityMeasure
) -> tuple[Claim, ...]:
    """q is a martingale measure charging every outcome that vertex_p
    charges; raises CertificateError when a claim fails."""
    return m.martingale_claims(q, "dominating Q") + charging_claims(vertex_p, q)


def check_ftap(
    m: Market,
) -> tuple[bool, list[tuple[ProbabilityMeasure, Optional[ProbabilityMeasure]]]]:
    """The no-arbitrage verdict and the other side of the one-period FTAP
    equivalence, a dominating martingale measure (or None) per P-vertex.

    Under no-arbitrage the checked full-support martingale measure q of
    `check_na` dominates every P-vertex: q > 0 on the quasi-sure support,
    and the support of every vertex lies inside it (Bouchard-Nutz).  So q
    is returned for every vertex and no further LP is solved.  When NA
    fails, a vertex whose support is the whole quasi-sure support gets
    None without an LP: its charging LP is `check_na`'s, which failed, and
    the checked arbitrage witness proves that no martingale measure charges
    every support outcome.  `find_dominating_martingale` searches each
    other vertex, and the sides must agree: some vertex has no dominating
    martingale measure, else CertificateError is raised.  The answer is
    worked out once per market and kept on it; each call returns a fresh
    list.
    """
    na, per_vertex = m._ftap
    return na, list(per_vertex)


def _decide_ftap(
    m: Market,
) -> tuple[bool, tuple[tuple[ProbabilityMeasure, Optional[ProbabilityMeasure]], ...]]:
    q = full_support_martingale(m)
    if q is not None:
        return True, tuple((vp, q) for vp in m.P.vertices)
    full = frozenset(m.support)
    per_vertex = tuple(
        (vp, None if vp.support == full else find_dominating_martingale(m, vp))
        for vp in m.P.vertices
    )
    if all(q is not None for _, q in per_vertex):
        raise CertificateError("FTAP equivalence failed on this market")
    return False, per_vertex


def superhedge(m: Market, f: BoundedFunction) -> HedgeCertificate:
    """Least price x admitting H with x + H . increments >= f quasi-surely.

    One LP, max E_q[f] over the martingale measures on the support; its
    value is the price, its primal the attaining measure q, and its checked
    dual (x, H) on the martingale rows satisfies x + H . dS_o >= f(o) at
    every support outcome.  Under every martingale measure Q a hedge
    dominating f costs at least E_Q[f] (weak duality), so the hedge and q
    meeting at the price prove that it is least and that q attains
    sup E_Q[f]; no vertex enumeration is needed.  The LP is the market's
    martingale LP with f as its objective, so phase 1, which reads only
    the rows, runs once per market and each later superhedge runs phase 2
    alone.
    """
    na_holds, _ = check_na(m)
    if not na_holds:
        raise NaViolated("superhedging duality requires no-arbitrage")
    if f.space != m.space:
        raise DimensionMismatch("payoff on a different space")
    support = m.support
    values = [f.value_at(o) for o in support]
    sol = solve_lp(m._martingale_lp.with_objective(values, "max"))
    if sol.status != "Optimal":
        raise CertificateError("superhedging LP must be solvable under NA")
    price = sol.value
    H = sol.dual[1:]
    attaining = m.measure(sol.primal)
    claims = tuple(
        claim(f"hedge dominates payoff at {o}", price + g, ">=", v)
        for o, g, v in zip(support, m.gains(H), values)
    )
    claims += (
        claim("attaining measure reaches the price", attaining.expectation(f), "=", price),
    )
    claims += m.martingale_claims(attaining, "attaining measure")
    return HedgeCertificate(price, H, f, attaining, claims)
