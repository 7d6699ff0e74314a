"""Finite-sample-space measure theory with exact rational arithmetic.

Probability measures and bounded functions on a labeled finite outcome
set, quasi-sure supports of convex ambiguity sets (given by vertex lists)
and the set-level domination relation.

All values are immutable after construction and every operation is a pure
function, so concurrent use on shared inputs is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch

#: Default cap on the support size of an enumeration: the 2**n events of a
#: scan, or the bases of a vertex enumeration over n outcomes.
DEFAULT_MAX_ENUM = 20

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(v) -> Fraction:
    """``v`` as a Fraction: ``v`` itself when it is one, else ``Fraction(v)``.

    The one place an input value becomes exact: every value a caller hands
    the library passes through it.  Past it, the library computes on
    integers over a common denominator (`scaled`), and a value it derives
    becomes a Fraction once, from integers that are already checked: the
    masses of `ProbabilityMeasure.from_integers`, the fields of an LP
    solution and the sides of a claim."""
    return v if type(v) is Fraction else Fraction(v)


def _as_fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(rational, values))


def scaled(values: Sequence) -> tuple[list[int], int]:
    """The integers s * v for v in `values` and s, the lcm of their
    denominators: `values` over the common denominator s (ints count as
    over 1)."""
    # reduce() rather than lcm(*...): a star-argument tuple per row raised
    # the peak RSS of the market-lp benchmark by about 1.5 MiB
    s = reduce(lcm, [v.denominator for v in values], 1)
    return [v.numerator * (s // v.denominator) for v in values], s


@dataclass(frozen=True)
class SampleSpace:
    """Ordered finite outcome set; all measures and payoffs index against it."""

    outcomes: tuple[str, ...]
    _positions: dict = field(init=False, repr=False, compare=False)

    def __init__(self, outcomes: Sequence[str]):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("sample space needs at least one outcome")
        if any(not o for o in outcomes):
            raise ValueError("outcome labels must be nonempty")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_positions", {o: i for i, o in enumerate(outcomes)})

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise KeyError(f"unknown outcome {label!r}") from None


def _check_space(space: SampleSpace, values: Sequence) -> None:
    if len(values) != space.size:
        raise DimensionMismatch(
            f"{len(values)} values for a space of size {space.size}"
        )


def _check_masses(nums: Sequence[int], s: int) -> None:
    """The masses ``nums / s``, s > 0, are a probability vector."""
    if any(a < 0 for a in nums):
        raise ValueError("probability masses must be nonnegative")
    if sum(nums) != s:
        raise ValueError("probability masses must sum to exactly 1")


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Nonnegative rational mass function summing to exactly 1.

    ``numerators`` and ``denominator`` hold the mass as integers over the
    lcm of its denominators: ``mass[i] == numerators[i] / denominator``.
    A caller holding the masses as integers over one denominator builds
    the measure with `from_integers`, which checks them as integers."""

    space: SampleSpace
    mass: tuple[Fraction, ...]
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __init__(self, space: SampleSpace, mass: Iterable):
        mass = _as_fractions(mass)
        _check_space(space, mass)
        nums, s = scaled(mass)  # mass over its common denominator s > 0
        _check_masses(nums, s)
        self._set(space, mass, tuple(nums), s)

    @classmethod
    def from_integers(
        cls, space: SampleSpace, numerators: Iterable[int], denominator: int
    ) -> ProbabilityMeasure:
        """The measure of masses ``numerators[i] / denominator``, with the
        checks of ``__init__`` run on the integers before any Fraction is
        built.  The integers are stored over the lcm of the reduced
        masses' denominators, ``denominator / gcd(denominator,
        *numerators)``, so the measure equals, field for field, the one
        built from the masses as Fractions."""
        nums = tuple(numerators)
        _check_space(space, nums)
        if denominator <= 0:
            raise ValueError(f"probability masses need a positive denominator, not {denominator}")
        _check_masses(nums, denominator)
        g = reduce(gcd, nums, denominator)
        if g > 1:
            nums = tuple(a // g for a in nums)
            denominator //= g
        measure = object.__new__(cls)
        measure._set(space, tuple(Fraction(a, denominator) for a in nums), nums, denominator)
        return measure

    def _set(
        self, space: SampleSpace, mass: tuple[Fraction, ...], nums: tuple[int, ...], s: int
    ) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", s)

    def __call__(self, event: Iterable[str]) -> Fraction:
        idx = {self.space.index(o) for o in event}
        return sum((self.mass[i] for i in idx), ZERO)

    def mass_of(self, label: str) -> Fraction:
        return self.mass[self.space.index(label)]

    @cached_property
    def support(self) -> frozenset[str]:
        return frozenset(compress(self.space.outcomes, self.numerators))

    def expectation(self, f: "BoundedFunction") -> Fraction:
        if f.space is not self.space and f.space != self.space:
            raise DimensionMismatch("function lives on a different space")
        values, t = scaled(f.values)
        return Fraction(
            sum(m * v for m, v in zip(self.numerators, values)), self.denominator * t
        )


@dataclass(frozen=True)
class AmbiguitySet:
    """Convex polytope of probability measures, given by its vertex list.

    Represents the convex hull of the vertices; redundant vertices are
    permitted and not deduplicated.  ``support`` is the quasi-sure support,
    the outcomes some vertex charges, in the order of the sample space.
    """

    space: SampleSpace
    vertices: tuple[ProbabilityMeasure, ...]
    support: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, space: SampleSpace, vertices: Sequence[ProbabilityMeasure]):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("ambiguity set needs at least one vertex")
        for v in vertices:
            if v.space != space:
                raise DimensionMismatch("vertex on a different sample space")
        charged = map(any, zip(*(v.numerators for v in vertices)))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "support", tuple(compress(space.outcomes, charged)))


@dataclass(frozen=True)
class BoundedFunction:
    """Rational-valued function on the outcomes."""

    space: SampleSpace
    values: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, values: Iterable):
        values = _as_fractions(values)
        _check_space(space, values)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def value_at(self, label: str) -> Fraction:
        return self.values[self.space.index(label)]


def quasi_sure_support(P: AmbiguitySet) -> frozenset[str]:
    """Union of the vertex supports; its complement is the maximal polar set."""
    return frozenset(P.support)


def dominated_by(Q: ProbabilityMeasure, P: AmbiguitySet) -> bool:
    """Whether Q is absolutely continuous w.r.t. some member of P.

    On a finite space with P convex this holds iff Q is supported inside the
    union of vertex supports (the uniform vertex mixture is a witness).
    """
    if Q.space != P.space:
        raise DimensionMismatch("measure and ambiguity set on different spaces")
    return Q.support <= quasi_sure_support(P)


def integer_rows(
    measures: Sequence[ProbabilityMeasure], positions: Iterable[int]
) -> tuple[list[list[int]], int]:
    """Each measure's masses at ``positions`` as integers over d, the lcm
    of the measures' denominators, and d: the stored numerators of each
    measure, brought to d."""
    d = reduce(lcm, [mu.denominator for mu in measures], 1)
    positions = list(positions)
    return [
        [mu.numerators[i] * (d // mu.denominator) for i in positions]
        for mu in measures
    ], d


def mix(
    measures: Sequence[ProbabilityMeasure], weights: Sequence
) -> ProbabilityMeasure:
    """Convex combination of probability measures with exact weights,
    summed in integers: the weights over their common denominator, the
    measures' numerators over the lcm of their denominators."""
    weights = _as_fractions(weights)
    if len(measures) != len(weights):
        raise DimensionMismatch("one weight per measure required")
    wn, wd = scaled(weights)
    if any(w < 0 for w in wn) or sum(wn) != wd:
        raise ValueError("weights must be nonnegative and sum to 1")
    space = measures[0].space
    if any(m.space != space for m in measures):
        raise DimensionMismatch("measures on different spaces")
    rows, d = integer_rows(measures, range(space.size))
    sums = [sum(map(mul, wn, col)) for col in zip(*rows)]
    return ProbabilityMeasure.from_integers(space, sums, d * wd)
