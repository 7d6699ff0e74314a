"""Differential test of the one-LP minimax against the inf-sup reference.

``minimax_value`` solves the sup-inf order and reads y* off the exactly
checked dual; ``tests/minimax_reference.py`` solves the inf-sup order as
its own LP.  On criterion 3's 500 seeded games, with Y listed by vertices
or by rows, the two values must be equal, y* must lie in Y and
max_k y*.Bx_k must equal the value.  The reference's checks raise
CertificateError, so a forged value is rejected under ``python -O`` too.
"""

from dataclasses import replace

import pytest

from minimax_reference import check_against_reference, criterion_3_instances
from robust_ftap.errors import CertificateError
from robust_ftap.lp_core import VertexPolytope, minimax_value


def test_criterion_3_instances_match_reference():
    kinds = set()
    for inst in criterion_3_instances():
        check_against_reference(inst, minimax_value(inst))
        kinds.add(isinstance(inst.Y, VertexPolytope))
    assert kinds == {True, False}


def test_reference_check_rejects_a_forged_value():
    inst = next(criterion_3_instances())
    res = minimax_value(inst)
    check_against_reference(inst, res)
    with pytest.raises(CertificateError, match="reference"):
        check_against_reference(inst, replace(res, value=res.value + 1))
