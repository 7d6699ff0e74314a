"""Finite-sample-space measure theory with exact rational arithmetic.

Probability and signed measures on a labeled finite outcome set, the
Hahn-Jordan decomposition, total variation, quasi-sure supports of convex
ambiguity sets (given by vertex lists), the set-level domination relation,
and the quasi-sure sup-norm of bounded functions.

All values are immutable after construction and every operation is a pure
function, so concurrent use on shared inputs is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch

#: Default cap on the support size of an enumeration: the 2**n events of a
#: scan, or the bases of a vertex enumeration over n outcomes.
DEFAULT_MAX_ENUM = 20


def _as_fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class SampleSpace:
    """Ordered finite outcome set; all measures and payoffs index against it."""

    outcomes: tuple[str, ...]

    def __init__(self, outcomes: Sequence[str]):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("sample space needs at least one outcome")
        if any(not o for o in outcomes):
            raise ValueError("outcome labels must be nonempty")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise KeyError(f"unknown outcome {label!r}") from None


def _check_space(space: SampleSpace, values: tuple[Fraction, ...]) -> None:
    if len(values) != space.size:
        raise DimensionMismatch(
            f"{len(values)} values for a space of size {space.size}"
        )


@dataclass(frozen=True)
class SignedMeasure:
    """Exact rational mass function of arbitrary sign."""

    space: SampleSpace
    mass: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, mass: Iterable):
        mass = _as_fractions(mass)
        _check_space(space, mass)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", mass)

    def __call__(self, event: Iterable[str]) -> Fraction:
        idx = {self.space.index(o) for o in event}
        return sum((self.mass[i] for i in idx), Fraction(0))

    def mass_of(self, label: str) -> Fraction:
        return self.mass[self.space.index(label)]


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Nonnegative rational mass function summing to exactly 1."""

    space: SampleSpace
    mass: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, mass: Iterable):
        mass = _as_fractions(mass)
        _check_space(space, mass)
        if any(m < 0 for m in mass):
            raise ValueError("probability masses must be nonnegative")
        if sum(mass) != 1:
            raise ValueError("probability masses must sum to exactly 1")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", mass)

    def __call__(self, event: Iterable[str]) -> Fraction:
        idx = {self.space.index(o) for o in event}
        return sum((self.mass[i] for i in idx), Fraction(0))

    def mass_of(self, label: str) -> Fraction:
        return self.mass[self.space.index(label)]

    @property
    def support(self) -> frozenset[str]:
        return frozenset(
            o for o, m in zip(self.space.outcomes, self.mass) if m > 0
        )

    def expectation(self, f: "BoundedFunction") -> Fraction:
        if f.space is not self.space and f.space != self.space:
            raise DimensionMismatch("function lives on a different space")
        return sum(
            (m * v for m, v in zip(self.mass, f.values)), Fraction(0)
        )


@dataclass(frozen=True)
class AmbiguitySet:
    """Convex polytope of probability measures, given by its vertex list.

    Represents the convex hull of the vertices; redundant vertices are
    permitted and not deduplicated.
    """

    space: SampleSpace
    vertices: tuple[ProbabilityMeasure, ...]

    def __init__(self, space: SampleSpace, vertices: Sequence[ProbabilityMeasure]):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("ambiguity set needs at least one vertex")
        for v in vertices:
            if v.space != space:
                raise DimensionMismatch("vertex on a different sample space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "vertices", vertices)


@dataclass(frozen=True)
class BoundedFunction:
    """Rational-valued function on the outcomes.

    Stored on all of the space but compared modulo the polar set of an
    ambient ambiguity set (see :func:`qs_equal`).
    """

    space: SampleSpace
    values: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, values: Iterable):
        values = _as_fractions(values)
        _check_space(space, values)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def value_at(self, label: str) -> Fraction:
        return self.values[self.space.index(label)]


def hahn_jordan(
    mu: SignedMeasure,
) -> tuple[SignedMeasure, SignedMeasure, frozenset[str]]:
    """Split mu into nonnegative parts with disjoint supports.

    Outcomes with mass exactly 0 are assigned to the positive side, which
    makes the (otherwise null-set ambiguous) decomposition deterministic.
    """
    plus = SignedMeasure(mu.space, (max(m, Fraction(0)) for m in mu.mass))
    minus = SignedMeasure(mu.space, (max(-m, Fraction(0)) for m in mu.mass))
    omega_plus = frozenset(
        o for o, m in zip(mu.space.outcomes, mu.mass) if m >= 0
    )
    return plus, minus, omega_plus


def total_variation(mu: SignedMeasure) -> Fraction:
    """Total-variation norm: the positive part's mass plus the negative part's."""
    return sum((abs(m) for m in mu.mass), Fraction(0))


def quasi_sure_support(P: AmbiguitySet) -> frozenset[str]:
    """Union of the vertex supports; its complement is the maximal polar set."""
    support: frozenset[str] = frozenset()
    for v in P.vertices:
        support |= v.support
    return support


def ordered_support(P: AmbiguitySet) -> tuple[str, ...]:
    """The quasi-sure support of P in the order of its sample space."""
    support = quasi_sure_support(P)
    return tuple(o for o in P.space.outcomes if o in support)


def dominated_by(Q: ProbabilityMeasure, P: AmbiguitySet) -> bool:
    """Whether Q is absolutely continuous w.r.t. some member of P.

    On a finite space with P convex this holds iff Q is supported inside the
    union of vertex supports (the uniform vertex mixture is a witness).
    """
    if Q.space != P.space:
        raise DimensionMismatch("measure and ambiguity set on different spaces")
    return Q.support <= quasi_sure_support(P)


def qs_sup_norm(h: BoundedFunction, P: AmbiguitySet) -> Fraction:
    """Sup of |h| over the quasi-sure support (the essential sup-norm)."""
    if h.space != P.space:
        raise DimensionMismatch("function and ambiguity set on different spaces")
    support = quasi_sure_support(P)
    return max(abs(h.value_at(o)) for o in support)


def qs_equal(f: BoundedFunction, g: BoundedFunction, P: AmbiguitySet) -> bool:
    """Equality of functions modulo the polar set of P."""
    support = quasi_sure_support(P)
    return all(f.value_at(o) == g.value_at(o) for o in support)


def mix(
    measures: Sequence[ProbabilityMeasure], weights: Sequence
) -> ProbabilityMeasure:
    """Convex combination of probability measures with exact weights."""
    weights = _as_fractions(weights)
    if len(measures) != len(weights):
        raise DimensionMismatch("one weight per measure required")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    space = measures[0].space
    mass = [Fraction(0)] * space.size
    for m, w in zip(measures, weights):
        if m.space != space:
            raise DimensionMismatch("measures on different spaces")
        for i, x in enumerate(m.mass):
            mass[i] += w * x
    return ProbabilityMeasure(space, mass)
