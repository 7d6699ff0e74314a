"""Reference bilinear minimax in the other quantifier order.

``robust_ftap.lp_core.minimax_value`` solves one LP, the sup-inf order with
the inner infimum dualized, and reads the inf-sup side off its checked
dual.  This module solves the inf-sup order directly, inf over y in Y of
the max over the X-vertices of y.Bx, as its own LP for either kind of Y;
its free variables are each two nonnegative columns
(`free_columns.standard_form`).
It is kept only as the independent side of the differential test: its
value must equal ``minimax_value``'s exactly.  Its checks raise
CertificateError rather than assert, so they hold under ``python -O``.
Criterion 3's seeded instance generator lives here too, so that both
tests draw the same games.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from free_columns import merged, standard_form
from robust_ftap.errors import CertificateError
from robust_ftap.lp_core import (
    EQ,
    GE,
    LE,
    Constraint,
    HPolytope,
    LinearProgram,
    MinimaxInstance,
    VertexPolytope,
    solve_lp,
)

ZERO = Fraction(0)
ONE = Fraction(1)
_HOLDS = {LE: operator.le, GE: operator.ge, EQ: operator.eq}


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificateError(what)


def payoff_at_vertices(inst: MinimaxInstance) -> list[list[Fraction]]:
    """B x_k, one vector per X-vertex."""
    B = inst.payoff
    return [
        [sum((row[j] * x[j] for j in range(len(x))), ZERO) for row in B]
        for x in inst.X.vertices
    ]


def reference_minimax(inst: MinimaxInstance) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(value, y) of inf over y in Y of max_k y.Bx_k, by one LP in the
    variables (weights of Y's vertices, s free) or (y, s), both free: min s
    subject to s >= y.Bx_k for every X-vertex and y in Y."""
    bx_list = payoff_at_vertices(inst)
    ydim = len(inst.payoff)
    if isinstance(inst.Y, VertexPolytope):
        yverts = inst.Y.vertices
        L = len(yverts)
        cons = [
            Constraint(
                [-sum(v[i] * bx[i] for i in range(ydim)) for v in yverts] + [ONE],
                GE,
                0,
            )
            for bx in bx_list
        ]
        cons.append(Constraint([ONE] * L + [ZERO], EQ, 1))
        sol = solve_lp(standard_form([ZERO] * L + [ONE], "min", cons, free=[L]))
        _require(sol.status == "Optimal", f"reference LP is {sol.status}")
        mu = sol.primal[:L]
        y = tuple(sum(mu[l] * yverts[l][i] for l in range(L)) for i in range(ydim))
        return sol.value, y
    cons = [Constraint([-v for v in bx] + [ONE], GE, 0) for bx in bx_list]
    cons += [
        Constraint(list(row.coeffs) + [ZERO], row.relation, row.rhs)
        for row in inst.Y.constraints
    ]
    free = range(ydim + 1)
    sol = solve_lp(standard_form([ZERO] * ydim + [ONE], "min", cons, free))
    _require(sol.status == "Optimal", f"reference LP is {sol.status}")
    return sol.value, merged(sol.primal, free)[:ydim]


def in_polytope(Y, y) -> bool:
    """Whether y lies in Y: row by row for an H-polytope, by a feasibility
    LP over the vertex weights for a vertex-listed polytope."""
    if isinstance(Y, HPolytope):
        return all(
            _HOLDS[row.relation](
                sum((a * b for a, b in zip(row.coeffs, y)), ZERO), row.rhs
            )
            for row in Y.constraints
        )
    L = len(Y.vertices)
    cons = [
        Constraint([v[i] for v in Y.vertices], EQ, y[i]) for i in range(len(y))
    ]
    cons.append(Constraint([ONE] * L, EQ, 1))
    sol = solve_lp(LinearProgram([ZERO] * L, "max", cons))
    return sol.status == "Optimal"


def check_against_reference(inst: MinimaxInstance, res) -> None:
    """The checks of the differential test on one solved instance: the
    reference value equals ``res.value`` exactly, y* lies in Y and
    max_k y*.Bx_k equals the value."""
    ref_value, ref_y = reference_minimax(inst)
    _require(res.value == ref_value, f"value {res.value} is not the reference {ref_value}")
    _require(in_polytope(inst.Y, ref_y), "the reference y lies outside Y")
    _require(in_polytope(inst.Y, res.y_star), "y* lies outside Y")
    best = max(
        sum((a * b for a, b in zip(res.y_star, bx)), ZERO)
        for bx in payoff_at_vertices(inst)
    )
    _require(best == res.value, f"max_k y*.Bx_k is {best}, not the value {res.value}")


def criterion_3_instances(seed: int = 31415, count: int = 500):
    """Criterion 3's seeded games: random B and X-vertices, with Y the
    simplex, listed by its vertices or by its rows with equal odds."""
    rng = random.Random(seed)
    for _ in range(count):
        xdim = rng.randint(1, 6)
        ydim = rng.randint(1, 6)
        B = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(xdim)]
            for _ in range(ydim)
        ]
        xverts = [
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(xdim)]
            for _ in range(rng.randint(1, 3))
        ]
        units = [[ONE if j == i else ZERO for j in range(ydim)] for i in range(ydim)]
        if rng.random() < 0.5:
            Y = VertexPolytope(units)
        else:
            Y = HPolytope(
                ydim,
                [Constraint(u, GE, 0) for u in units]
                + [Constraint([ONE] * ydim, EQ, 1)],
            )
        yield MinimaxInstance(B, VertexPolytope(xverts), Y)
