"""One integer kernel for every scan over the events of a finite support.

The quantitative Halmos-Savage conditions, the large-market moduli and
the contiguity bounds all quantify over every event A of a quasi-sure
support.  :class:`EventSpace` maps the support to bit positions, so an
event is an integer mask: bit i stands for ``labels[i]``, the support in
the order of the sample space.  A set of measures becomes one row of
integer numerators per measure over a common denominator, and a scan
compares integer subset sums against integer thresholds, so no
``Fraction`` appears inside the loop.

Scans stream the subset sums block by block: a table of the low bits
(at most ``2**LOW_BITS`` entries per measure) is shifted by the sum of
the high bits, which walk through a Gray code.  Memory stays at
O(V * 2**LOW_BITS) for V measures whatever the support size; no table of
all 2**n events is built.

Events are ordered by size and then lexicographically in label order,
the order of ``itertools.combinations`` over the support.  For two masks
a and b of equal size, a comes first iff the lowest bit of a ^ b is set
in a.  Every scan breaks ties by this order: among the events attaining
the best value it returns the first.  The order has an additive integer
key, so each table entry carries the value and the key in one integer,
``numerator * scale + key``, and the plain ``min``/``max`` of the entries
finds the best value and its first event together.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, compress
from math import ceil, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import EnumerationCapExceeded
from .lp_core import GE
from .measures import AmbiguitySet, ProbabilityMeasure, SampleSpace, ordered_support

#: Width of the low-bit block: at most 2**LOW_BITS table entries per measure.
LOW_BITS = 10

#: The relations of a scan's condition: lp_core's ">=" and a strict "<".
LT = "<"


class Best(NamedTuple):
    """The best value of a scan and the first event attaining it."""

    value: Fraction
    event: frozenset[str]


class EventSpace:
    """The events of an ordered support as bitmasks."""

    def __init__(self, space: SampleSpace, labels: Sequence[str], max_enum: int):
        labels = tuple(labels)
        n = len(labels)
        if n > max_enum:
            raise EnumerationCapExceeded(n, max_enum, events=2**n)
        self.labels = labels
        self.size = n
        self._bit = {o: 1 << i for i, o in enumerate(labels)}
        self._pos = [space.index(o) for o in labels]
        self._low_bits = min(n, LOW_BITS)
        # the order key: (size << n) + full - reverse(mask), additive by bit
        self._full = (1 << n) - 1
        self._key_bits = [(1 << n) - (1 << (n - 1 - i)) for i in range(n)]
        self._scale = (n + 1) << n  # exceeds every key

    def event(self, mask: int) -> frozenset[str]:
        return frozenset(o for i, o in enumerate(self.labels) if mask >> i & 1)

    def mask(self, event: Iterable[str]) -> int:
        return sum({self._bit[o] for o in event})

    def masks(self) -> Iterator[int]:
        """Every mask, by size and then lexicographically."""
        bits = [1 << i for i in range(self.size)]
        for size in range(self.size + 1):
            yield from map(sum, combinations(bits, size))

    def upper(self, measures: Sequence[ProbabilityMeasure]) -> "Envelope":
        """A -> max over the measures of mu(A)."""
        return Envelope(self, measures, max)

    def lower(self, measures: Sequence[ProbabilityMeasure]) -> "Envelope":
        """A -> min over the measures of mu(A)."""
        return Envelope(self, measures, min)

    def mass(self, measure: ProbabilityMeasure) -> "Envelope":
        """A -> mu(A)."""
        return Envelope(self, (measure,), max)

    def where(self, side: "Envelope", op: str, t) -> Iterator[int]:
        """The masks A with side(A) op t, by size and then lexicographically."""
        test = _test(op, side.threshold(t))
        return (m for m in self.masks() if test(side.agg(side.numerators(m))))

    def best(
        self,
        pick: Callable,
        value: "Envelope",
        where: tuple["Envelope", str, object],
    ) -> Optional[Best]:
        """``pick`` (min or max) of value(A) over the events A with
        side(A) op t, where ``where`` is (side, op, t); the first event
        attaining it; None when no event qualifies."""
        side, op, t = where
        test = _test(op, side.threshold(t))
        # a value entry is numerator * scale + key for min, and
        # numerator * scale + (scale - 1 - key) for max, so that pick finds
        # the best numerator and, among its ties, the least key
        scale = self._scale
        sign, const = (1, self._full) if pick is min else (-1, scale - 1 - self._full)
        value_tables = [
            self._tables([x * scale + sign * k for x, k in zip(row, self._key_bits)], const)
            for row in value.rows
        ]
        side_tables = [self._tables(row, 0) for row in side.rows]
        cut = len(side_tables)
        found = []
        for block in self._blocks(side_tables + value_tables):
            qualifies = map(test, _aggregate(side.agg, block[:cut]))
            values = _aggregate(value.agg, block[cut:])
            b = pick(compress(values, qualifies), default=None)
            if b is not None:
                found.append(b)
        if not found:
            return None
        numerator, rest = divmod(pick(found), scale)
        key = rest if pick is min else scale - 1 - rest
        return Best(Fraction(numerator, value.denominator), self.event(self._mask_of_key(key)))

    def _mask_of_key(self, key: int) -> int:
        n = self.size
        if not n:
            return 0
        reverse = self._full - (key & self._full)
        return int(format(reverse, f"0{n}b")[::-1], 2)

    def _tables(self, weights: list[int], const: int) -> tuple[list[int], list[int]]:
        """Subset sums of the low-bit weights (plus const), and the high weights."""
        low = [const]
        for w in weights[: self._low_bits]:
            low += [w + x for x in low]
        return low, weights[self._low_bits:]

    def _blocks(self, tables) -> Iterator[list[Iterable[int]]]:
        """Each table's subset sums over the low block, once per setting of
        the high bits, which follow a Gray code; each is read once."""
        lows = [low for low, _ in tables]
        highs = [high for _, high in tables]
        yield lows
        offsets = [0] * len(tables)
        gray = 0
        for g in range(1, 1 << (self.size - self._low_bits)):
            j = (g & -g).bit_length() - 1
            gray ^= 1 << j
            up = gray >> j & 1
            for t, high in enumerate(highs):
                offsets[t] += high[j] if up else -high[j]
            yield [map(o.__add__, low) for o, low in zip(offsets, lows)]


class Envelope:
    """A -> agg over a list of measures of mu(A), as integer numerators
    over one common denominator."""

    def __init__(self, events: EventSpace, measures: Sequence[ProbabilityMeasure], agg):
        rows = [[mu.mass[p] for p in events._pos] for mu in measures]
        d = reduce(lcm, (x.denominator for row in rows for x in row), 1)
        self.agg = agg
        self.denominator = d
        self.rows = [[x.numerator * (d // x.denominator) for x in row] for row in rows]

    def threshold(self, t) -> int:
        """The least numerator N with N / denominator >= t."""
        return ceil(Fraction(t) * self.denominator)

    def numerators(self, mask: int) -> list[int]:
        """Each measure's numerator of mu(A) for the event of ``mask``."""
        return [sum(compress(row, _bits(mask, len(row)))) for row in self.rows]

    def at(self, mask: int) -> Fraction:
        return Fraction(self.agg(self.numerators(mask)), self.denominator)

    def first_best(self, mask: int) -> int:
        """The index of the first measure attaining agg at the event."""
        nums = self.numerators(mask)
        return nums.index(self.agg(nums))


def support_events(P: AmbiguitySet, max_enum: int) -> EventSpace:
    """The events of the quasi-sure support of P, in sample-space order."""
    return EventSpace(P.space, ordered_support(P), max_enum)


def _bits(mask: int, n: int) -> list[int]:
    return [mask >> i & 1 for i in range(n)]


def _test(op: str, threshold: int):
    """N -> N op t, for the integer threshold of t (N >= t iff N >= it)."""
    if op == GE:
        return threshold.__le__
    if op == LT:
        return threshold.__gt__
    raise ValueError(f"unknown relation {op!r}")


def _aggregate(agg, lists):
    return iter(lists[0]) if len(lists) == 1 else map(agg, *lists)
