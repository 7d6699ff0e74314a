"""Differential test of the one-LP minimax against the inf-sup reference.

``minimax_value`` solves the sup-inf order and reads y* off the exactly
checked dual; ``tests/minimax_reference.py`` solves the inf-sup order as
its own LP.  On criterion 3's 500 seeded games, with Y listed by vertices
or by rows, the two values must be equal, y* must lie in Y and
max_k y*.Bx_k must equal the value.
"""

from minimax_reference import check_against_reference, criterion_3_instances
from robust_ftap.lp_core import VertexPolytope, minimax_value


def test_criterion_3_instances_match_reference():
    kinds = set()
    for inst in criterion_3_instances():
        check_against_reference(inst, minimax_value(inst))
        kinds.add(isinstance(inst.Y, VertexPolytope))
    assert kinds == {True, False}
