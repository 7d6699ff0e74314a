"""Differential test of the Halmos-Savage game LPs against the knapsack.

`halmos_savage` solves the expectation game as one LP and returns the
mixture q* that attains it.  At q* the inner problem is a fractional
knapsack, which `hs_reference` solves greedily without an LP.  On
criterion 4/5's 300 primal and 300 dual instances, the greedy minimum at
the primal witness's q* must equal its guaranteed bound, and the greedy
maximum at the dual witness's q* must equal the dual game value, exactly.
"""

from hs_reference import criterion_4_5_instances, knapsack_max, knapsack_min
from robust_ftap.halmos_savage import (
    basic_lemma_value,
    construct_dual_hs_witness,
    construct_hs_witness,
)


def test_criterion_4_5_instances_match_knapsack():
    kinds = {"primal": 0, "dual": 0}
    for kind, inst in criterion_4_5_instances():
        vp = inst.P.vertices[0]
        kinds[kind] += 1
        if kind == "primal":
            w = construct_hs_witness(inst, vp)
            assert knapsack_min(inst, w.q_star, vp) == w.guaranteed_bound
        else:
            w = construct_dual_hs_witness(inst, vp)
            value = basic_lemma_value(inst, vp, "dual")
            assert knapsack_max(inst, w.q_star, vp) == value
    assert kinds == {"primal": 300, "dual": 300}
