"""Checked claims: the inequalities a certificate's transcript asserts.

Every witness the library returns carries the claims that make it one,
each checked exactly before it was made: a gain of an arbitrage strategy
is nonnegative, a martingale measure has zero expected increments, a
mixture carries enough mass on every qualifying event.  :func:`claim` is
the one place such a claim is checked, and :data:`RELATIONS` the one
table of relations, which ``verify`` also reads to re-check a transcript.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError

RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class Claim:
    """``lhs relation rhs``, exactly, about what ``description`` names."""

    description: str
    lhs: Fraction
    relation: str
    rhs: Fraction


def claim(description: str, lhs, relation: str, rhs) -> Claim:
    """The claim ``lhs relation rhs``; raises CertificateError when it is
    false or the relation is unknown."""
    if relation not in RELATIONS:
        raise CertificateError(f"{description}: unknown relation {relation!r}")
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    if not RELATIONS[relation](lhs, rhs):
        raise CertificateError(f"{description}: {lhs} {relation} {rhs} is false")
    return Claim(description, lhs, relation, rhs)


def probability_defects(values) -> list[str]:
    """Why ``values`` is not a probability vector; empty when it is one."""
    defects = []
    if any(v < 0 for v in values):
        defects.append("has a negative entry")
    if sum(values) != 1:
        defects.append("does not sum to 1")
    return defects
