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
(at most ``2**LOW_BITS`` = 64 entries per measure) is shifted by the sum
of the high bits, which walk through a Gray code.  Memory stays at
O(V * 2**6) for V measures whatever the support size; no table of all
2**n events is built.  Each entry of a block is its offset plus a table
entry, so the block's aggregates lie between those of offset + min and
offset + max of the tables: a best-value scan skips every block whose
side cannot pass the test (for ``>=``, agg(offsets + max) is below the
threshold; for ``<``, agg(offsets + min) reaches it) or whose values
cannot beat the best found so far, and streams only the rest.

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
from itertools import combinations, compress
from math import ceil
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .claims import GE, LT
from .errors import EnumerationCapExceeded
from .measures import (
    AmbiguitySet,
    ProbabilityMeasure,
    SampleSpace,
    ordered_support,
    rational,
    scaled,
)

#: Width of the low-bit block: at most 2**LOW_BITS table entries per measure.
LOW_BITS = 6


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
        side_lows = [low for low, _ in side_tables]
        value_lows = [low for low, _ in value_tables]
        beats = int.__lt__ if pick is min else int.__gt__
        # every entry of a block is offset + low[e], so agg and pick of the
        # block lie between agg of offset + min(low) and of offset + max(low):
        # the side bound is the most a block can pass the test with, the
        # value bound the best value it can hold.  A lone block is streamed
        # whatever its bounds.
        prune = self.size > self._low_bits
        if prune:
            side_bound = [(max if op == GE else min)(low) for low in side_lows]
            value_bound = [pick(low) for low in value_lows]
        cut = len(side_tables)
        best = None
        for offsets in self._blocks([high for _, high in side_tables + value_tables]):
            side_offsets, value_offsets = offsets[:cut], offsets[cut:]
            # the value integers carry the order key, so two events never
            # tie and a block that cannot beat the best has nothing to add
            if prune and (
                not test(side.agg(map(int.__add__, side_offsets, side_bound)))
                or best is not None
                and not beats(value.agg(map(int.__add__, value_offsets, value_bound)), best)
            ):
                continue
            qualifies = map(test, _aggregate(side.agg, _shifted(side_offsets, side_lows)))
            values = _aggregate(value.agg, _shifted(value_offsets, value_lows))
            b = pick(compress(values, qualifies), default=None)
            if b is not None and (best is None or beats(b, best)):
                best = b
        if best is None:
            return None
        numerator, rest = divmod(best, scale)
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

    def _blocks(self, highs: list[list[int]]) -> Iterator[list[int]]:
        """Each table's offset (its sum over the high bits), once per
        setting of the high bits, which follow a Gray code.  The list is
        updated in place, so read it before taking the next."""
        offsets = [0] * len(highs)
        yield offsets
        gray = 0
        for g in range(1, 1 << (self.size - self._low_bits)):
            j = (g & -g).bit_length() - 1
            gray ^= 1 << j
            up = gray >> j & 1
            for t, high in enumerate(highs):
                offsets[t] += high[j] if up else -high[j]
            yield offsets


class Envelope:
    """A -> agg over a list of measures of mu(A), as integer numerators
    over one common denominator."""

    def __init__(self, events: EventSpace, measures: Sequence[ProbabilityMeasure], agg):
        width = len(events._pos)
        flat, d = scaled([mu.mass[p] for mu in measures for p in events._pos])
        self.agg = agg
        self.denominator = d
        self.rows = [flat[i * width:(i + 1) * width] for i in range(len(measures))]

    def threshold(self, t) -> int:
        """The least numerator N with N / denominator >= t."""
        return ceil(rational(t) * self.denominator)

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


def _shifted(offsets, lows):
    return [map(o.__add__, low) if o else low for o, low in zip(offsets, lows)]


def _aggregate(agg, lists):
    return iter(lists[0]) if len(lists) == 1 else map(agg, *lists)
