"""Reference Fraction expressions for the integer sums that replaced them.

``robust_ftap`` makes values exact once (``measures.rational``) and then
sums integers over a common denominator: the mass checks and the
expectations of a ``ProbabilityMeasure``, the mixtures of ``measures.mix``,
a market's gains, its expected increments and the charging column of its
LPs, and the reading of a rational string.  These are the expressions they
replaced, over ``fractions.Fraction``, kept only as the slow reference path
of ``test_rational_differential.py``.  Beside them is a vertex enumeration
by Gauss-Jordan elimination over Fractions, which imports nothing from
``lp_core``: the library reduces integer rows fraction-free and solves each
basis with ``lp_core.solve_square``, and this reference must not share
that code with it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Optional

from robust_ftap.errors import DimensionMismatch, InputError
from robust_ftap.measures import ProbabilityMeasure

ZERO = Fraction(0)
ONE = Fraction(1)


def probability_defect(mass) -> Optional[str]:
    """The ValueError message a ProbabilityMeasure with these masses
    raises, or None when they are a probability vector."""
    mass = tuple(Fraction(v) for v in mass)
    if any(m < 0 for m in mass):
        return "probability masses must be nonnegative"
    if sum(mass) != 1:
        return "probability masses must sum to exactly 1"
    return None


def expectation(q, f) -> Fraction:
    return sum((m * v for m, v in zip(q.mass, f.values)), ZERO)


def mix(measures, weights) -> ProbabilityMeasure:
    """The former ``measures.mix``: K * n Fraction multiply-adds."""
    weights = tuple(Fraction(w) for w in weights)
    if len(measures) != len(weights):
        raise DimensionMismatch("one weight per measure required")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    space = measures[0].space
    mass = [ZERO] * space.size
    for m, w in zip(measures, weights):
        if m.space != space:
            raise DimensionMismatch("measures on different spaces")
        for i, x in enumerate(m.mass):
            mass[i] += w * x
    return ProbabilityMeasure(space, mass)


def gain(m, H, outcome) -> Fraction:
    return sum((h * d for h, d in zip(H, m.delta_s(outcome))), ZERO)


def expected_increments(m, q) -> tuple[Fraction, ...]:
    """E_q[increment of asset i] over the support, for each asset i."""
    return tuple(
        sum((q.mass_of(o) * m.delta_s(o)[i] for o in m.support), ZERO)
        for i in range(m.d)
    )


def charge_column(m, charged) -> list[Fraction]:
    """The sum of (1, dS_o) over the outcomes in ``charged``."""
    return [sum(c, ZERO) for c in zip(*((ONE,) + m.delta_s(o) for o in charged))]


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+\.[0-9]{1,12}\Z")


def parse_rational(value, field: str = "value") -> Fraction:
    """The former ``cli.parse_rational``: a regex test, then ``Fraction(text)``."""
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"{field}: floats are not accepted; use a rational string"
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            if _RATIONAL_RE.match(text):
                return Fraction(text)
            if _DECIMAL_RE.match(text):
                whole, frac = text.split(".")
                sign = -1 if whole.startswith("-") else 1
                num = abs(int(whole)) * 10 ** len(frac) + int(frac)
                return Fraction(sign * num, 10 ** len(frac))
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"{field}: {exc}") from exc
        raise InputError(f"{field}: {value!r} is not a valid rational string")
    raise InputError(f"{field}: expected a rational string, got {type(value).__name__}")


def _gauss_jordan(rows, ncols) -> int:
    """Gauss-Jordan elimination in place over the first ``ncols`` columns
    of Fraction rows, each pivot scaled to 1; returns the rank."""
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [a / p for a in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                f = row[col]
                rows[r] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def enumerate_basic_feasible(eq_rows, eq_rhs) -> list[tuple[Fraction, ...]]:
    """Vertices of {q >= 0 : A q = b} over Fractions: the rows reduced to
    their rank, then each column subset of that size in ``combinations``
    order solved by elimination, a vertex listed at the first basis that
    yields it."""
    nvars = len(eq_rows[0])
    rows = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(eq_rows, eq_rhs)]
    rank = _gauss_jordan(rows, nvars)
    if any(row[nvars] for row in rows[rank:]):
        return []
    if rank == 0:
        return [tuple([ZERO] * nvars)]
    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []
    for basis in combinations(range(nvars), rank):
        square = [[row[j] for j in basis] + [row[nvars]] for row in rows[:rank]]
        if _gauss_jordan(square, rank) < rank:
            continue
        sol = [row[rank] for row in square]
        if any(v < 0 for v in sol):
            continue
        q = [ZERO] * nvars
        for j, v in zip(basis, sol):
            q[j] = v
        key = tuple(q)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out
