"""The expectation game of the quantitative Halmos-Savage witnesses as one
minimax LP: the reference that `halmos_savage`'s cutting planes replaced.

The D-set is the polytope of test functions h in [0, 1]^n over the
quasi-sure support of P with p.h >= 2*epsilon (primal) or
p.h <= epsilon*delta (dual), given by its 2n + 1 rows; the Q-mixtures are
the vertex polytope of the Q-vertices.  `lp_game` hands both to
`lp_core.minimax_value`, which solves the sup-inf order as one LP; the
dual kind is played on the negated payoff and its value negated back.
"""

from __future__ import annotations

from robust_ftap.claims import GE, LE
from robust_ftap.halmos_savage import DUAL, PRIMAL, HsInstance
from robust_ftap.lp_core import (
    Constraint,
    HPolytope,
    MinimaxInstance,
    MinimaxResult,
    VertexPolytope,
    minimax_value,
)
from robust_ftap.measures import ONE, ZERO, ProbabilityMeasure


def d_set_polytope(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> tuple[tuple[str, ...], HPolytope]:
    """The primal/dual test-function polytope restricted to the support.

    Off-support coordinates are fixed to 0, so each h is a deterministic
    representative of its equivalence class modulo the polar set.
    """
    support = inst.P.support
    n = len(support)
    cons: list[Constraint] = []
    for i in range(n):
        unit = [ONE if j == i else ZERO for j in range(n)]
        cons.append(Constraint(unit, GE, ZERO))
        cons.append(Constraint(unit, LE, ONE))
    weights = [vertex_p.mass_of(o) for o in support]
    if kind == PRIMAL:
        cons.append(Constraint(weights, GE, 2 * inst.epsilon))
    elif kind == DUAL:
        cons.append(Constraint(weights, LE, inst.epsilon * inst.delta))
    else:
        raise ValueError("kind must be 'primal' or 'dual'")
    return support, HPolytope(n, cons)


def q_vertex_polytope(inst: HsInstance, support: tuple[str, ...]) -> VertexPolytope:
    return VertexPolytope(
        [[v.mass_of(o) for o in support] for v in inst.Q.vertices]
    )


def lp_game(
    inst: HsInstance, vertex_p: ProbabilityMeasure, kind: str
) -> MinimaxResult:
    """`minimax_value` of the game on the payoff E_Q[h] (primal) or
    -E_Q[h] (dual), with the dual kind's value negated back to inf over
    Q-mixtures of sup over the dual D-set."""
    support, dset = d_set_polytope(inst, vertex_p, kind)
    n = len(support)
    sign = ONE if kind == PRIMAL else -ONE
    payoff = [[sign if i == j else ZERO for j in range(n)] for i in range(n)]
    res = minimax_value(
        MinimaxInstance(payoff, q_vertex_polytope(inst, support), dset)
    )
    if kind == PRIMAL:
        return res
    return MinimaxResult(-res.value, res.x_star, res.x_weights, res.y_star)
