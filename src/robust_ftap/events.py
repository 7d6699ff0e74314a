"""One integer kernel for every scan over the events of a finite support.

The quantitative Halmos-Savage conditions, the large-market moduli and
the contiguity bounds all quantify over every event A of a quasi-sure
support.  :class:`EventSpace` maps the support to bit positions, so an
event is an integer mask: bit i stands for ``labels[i]``, the support in
the order of the sample space.  A set of measures becomes one row of
integer numerators per measure over a common denominator, built from the
integers each :class:`ProbabilityMeasure` keeps, and a scan compares
integer subset sums against integer thresholds, so no ``Fraction``
appears inside the loop.

Scans stream the subset sums block by block: a table of the low bits
(at most ``2**LOW_BITS`` = 64 entries per measure) is shifted by the sum
of the high bits; no table of all 2**n events is built.  A best-value
scan over several blocks groups them by the next ``LOW_BITS`` bits: each
measure's subset sums over those bits give the offsets of up to 64
blocks.  The subset sums of any bits above them, on supports of n >
``2 * LOW_BITS`` outcomes, are an outer loop whose every entry shifts
all of these offsets.  :func:`_subset_sums` builds all three tables,
so a measure's tables hold at most 2 * 2**6 + 2**max(n - 12, 0)
integers, 384 at the default cap of 20 outcomes.  The scan sorts each
low table once.  A block's bound for one measure is its offset plus the
measure's extreme low entry.  Aggregated over the side measures, it drops every block where no
entry can pass the side test; aggregated over the value measures, it
bounds the value of every entry of the block.  The blocks left are
visited best bound first, and the walk stops at the first whose bound
cannot beat the best so far.  This is exact because no two entries tie
(see below), so the order of the visits does not change the result.

A visited block is tested with bitmasks (bit e for entry e) of every
prefix or suffix of each sorted table.  In a block at offset o, the
entries e of one measure with o + low[e] >= b form the suffix of its
sorted table from ``bisect_left(sorted, b - o)``, those below b the
prefix up to it, and those above b the suffix from ``bisect_right``.
Joined over the measures by ``|`` where the aggregate needs one measure
to pass and by ``&`` where it needs all, these masks give exactly the
entries of the block that pass the side test and, once a best exists,
beat it; only those are evaluated.  A support of at most ``LOW_BITS``
outcomes is one block, streamed whole without a sort.

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

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, compress
from math import ceil
from operator import and_, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .claims import GE, LT
from .errors import EnumerationCapExceeded
from .measures import (
    AmbiguitySet,
    ProbabilityMeasure,
    SampleSpace,
    integer_rows,
    rational,
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
        threshold = side.threshold(t)
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
        if self.size <= self._low_bits:
            # a lone block: stream it whole, with no sort
            side_sums = _aggregate(side.agg, [low for low, _, _ in side_tables])
            values = _aggregate(value.agg, [low for low, _, _ in value_tables])
            best = pick(compress(values, map(_test(op, threshold), side_sums)), default=None)
        else:
            best = self._skip_blocks(
                pick, value.agg, value_tables, side.agg, op, threshold, side_tables
            )
        if best is None:
            return None
        numerator, rest = divmod(best, scale)
        key = rest if pick is min else scale - 1 - rest
        return Best(Fraction(numerator, value.denominator), self.event(self._mask_of_key(key)))

    def _skip_blocks(self, pick, value_agg, value_tables, side_agg, op, threshold, side_tables):
        """The best value entry over the blocks of a scan, or None,
        visiting the blocks best bound first and evaluating only the
        entries that pass the side test and beat the best so far."""
        # each low table sorted once per scan, with the mask of every
        # prefix (side <, value min) or suffix (side >=, value max) of its
        # sorted order
        side_sorted = [_sorted(low, op == GE) for low, _, _ in side_tables]
        value_sorted = [_sorted(low, pick is max) for low, _, _ in value_tables]
        value_lows = [low for low, _, _ in value_tables]
        # an entry beats the best below it (a prefix up to bisect_left) for
        # min and above it (a suffix from bisect_right) for max
        beats = bisect_left if pick is min else bisect_right
        better = int.__lt__ if pick is min else int.__gt__
        # max >= t and min < t hold when one measure's sum passes, max < t
        # and min >= t when every one does; likewise a value beats the best
        # through one measure for pick min of min and max of max
        side_join = or_ if (side_agg is max) == (op == GE) else and_
        value_join = or_ if pick is value_agg else and_
        # a block's bound for a table is its offset plus the table's extreme
        # low entry: the least for value min and side <, the greatest for
        # value max and side >=.  Aggregated over the value tables it bounds
        # the value of every entry of the block, and over the side tables it
        # fails the side test only when no entry of the block can pass it
        extremes = [keys[0] if pick is min else keys[-1] for keys, _ in value_sorted]
        extremes += [keys[-1] if op == GE else keys[0] for keys, _ in side_sorted]
        # the next LOW_BITS bits above the low ones pick a block among up to
        # 2**LOW_BITS by their subset sums, and the subset sums of any bits
        # above those (beyond 2 * LOW_BITS outcomes) shift every block
        _, middles, outers = zip(*value_tables, *side_tables)
        extreme_sums = [[e + x for x in sums] for e, sums in zip(extremes, middles)]
        side_test = _test(op, threshold)
        cut = len(value_tables)
        best = None
        for outer in zip(*outers):
            bounds = [[o + x for x in sums] for o, sums in zip(outer, extreme_sums)]
            value_bounds = list(_aggregate(value_agg, bounds[:cut]))
            passing = map(side_test, _aggregate(side_agg, bounds[cut:]))
            visits = sorted(
                compress(range(len(value_bounds)), passing),
                key=value_bounds.__getitem__,
                reverse=pick is max,
            )
            # the value integers carry the order key, so no two entries tie
            # and the best does not depend on the order of the visits: a
            # block whose bound is not better than the best, and every
            # block after it, holds no better entry
            for j in visits:
                if best is not None and not better(value_bounds[j], best):
                    break
                offsets = [o + sums[j] for o, sums in zip(outer, middles)]
                mask = _block_entries(
                    offsets, best, value_sorted, beats, value_join, side_sorted, side_join,
                    threshold,
                )
                if mask:
                    # every entry left beats the best
                    best = _pick_in(pick, value_agg, mask, offsets, value_lows)
        return best

    def _mask_of_key(self, key: int) -> int:
        reverse = self._full - (key & self._full)
        return int(format(reverse, f"0{self.size}b")[::-1], 2)

    def _tables(self, weights: list[int], const: int) -> tuple[list[int], list[int], list[int]]:
        """Subset sums of the low-bit weights plus const, of the next
        ``LOW_BITS`` weights, and of the rest."""
        bits = self._low_bits
        return (
            _subset_sums(weights[:bits], const),
            _subset_sums(weights[bits : 2 * bits], 0),
            _subset_sums(weights[2 * bits :], 0),
        )


class Envelope:
    """A -> agg over a list of measures of mu(A), as integer numerators
    over one common denominator."""

    def __init__(self, events: EventSpace, measures: Sequence[ProbabilityMeasure], agg):
        self.agg = agg
        self.rows, self.denominator = integer_rows(measures, events._pos)

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
    return EventSpace(P.space, P.support, max_enum)


def _bits(mask: int, n: int) -> list[int]:
    return [mask >> i & 1 for i in range(n)]


def _test(op: str, threshold: int):
    """N -> N op t, for the integer threshold of t (N >= t iff N >= it)."""
    if op == GE:
        return threshold.__le__
    if op == LT:
        return threshold.__gt__
    raise ValueError(f"unknown relation {op!r}")


def _sorted(low: list[int], suffix: bool) -> tuple[list[int], list[int]]:
    """The table in ascending order, and for each k the mask of its first
    k entries in that order (of all but them when ``suffix``)."""
    order = sorted(range(len(low)), key=low.__getitem__)
    bits = [1 << e for e in order]
    if suffix:
        masks = list(accumulate(reversed(bits), or_, initial=0))[::-1]
    else:
        masks = list(accumulate(bits, or_, initial=0))
    return [low[e] for e in order], masks


def _subset_sums(weights: list[int], const: int) -> list[int]:
    """const plus the sum of each subset of the weights, subset k being
    the weights at the set bits of k."""
    sums = [const]
    for w in weights:
        sums += [w + x for x in sums]
    return sums


def _block_entries(
    offsets, best, value_sorted, beats, value_join, side_sorted, side_join, threshold
) -> int:
    """The mask of the entries of a block that pass the side test and,
    once a best exists, beat it; ``offsets`` lists the value tables'
    offsets and then the side tables'."""
    # the value test first, the more selective once a best exists; zip
    # stops at the value tables
    mask = -1  # every entry
    if best is not None:
        mask = reduce(value_join, [
            m[beats(keys, best - o)] for (keys, m), o in zip(value_sorted, offsets)
        ])
    if mask:
        mask &= reduce(side_join, [
            m[bisect_left(keys, threshold - o)]
            for (keys, m), o in zip(side_sorted, offsets[len(value_sorted):])
        ])
    return mask


def _pick_in(pick, agg, mask: int, offsets, lows) -> int:
    """``pick`` over the entries e in ``mask`` of agg over the tables of
    offset + low[e]; zip stops at the last table."""
    entries = []
    while mask:
        bit = mask & -mask
        entries.append(bit.bit_length() - 1)
        mask ^= bit
    return pick(_aggregate(agg, [[o + low[e] for e in entries] for o, low in zip(offsets, lows)]))


def _aggregate(agg, lists):
    return iter(lists[0]) if len(lists) == 1 else map(agg, *lists)
