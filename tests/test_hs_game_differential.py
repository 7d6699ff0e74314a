"""Differential test of the Halmos-Savage game's cutting planes against
the one-LP game they replaced (`hs_game_lp`).

The value of every game must be equal exactly.  The Q-vertex weights must
be equal wherever the optimum is unique: where the two differ, each
mixture must attain the value against the whole D-set (the knapsack of
`hs_reference` at it equals the value), so the optimum is not unique.
The games are criterion 4/5's 600 seeded instances at every P-vertex,
and seeded 12-outcome pairs built like the benchmark's at every P-vertex
and both kinds.
"""

import random

import pytest

from hs_game_lp import lp_game
from hs_reference import (
    criterion_4_5_instances,
    knapsack_max,
    knapsack_min,
    mixture_pair_instance,
)
from robust_ftap.halmos_savage import PRIMAL, _expectation_game
from robust_ftap.measures import mix


def _inner(inst, weights, vp, kind):
    q = mix(inst.Q.vertices, weights)
    return (knapsack_min if kind == PRIMAL else knapsack_max)(inst, q, vp)


def check_game(inst, vp, kind):
    """The cutting-plane game agrees with the LP game."""
    game, ref = _expectation_game(inst, vp, kind), lp_game(inst, vp, kind)
    assert game.value == ref.value
    if tuple(game.weights) != tuple(ref.x_weights):
        assert _inner(inst, game.weights, vp, kind) == game.value
        assert _inner(inst, ref.x_weights, vp, kind) == game.value


def test_criterion_4_5_games_match_lp():
    # (games with 2K <= n, games with 2K > n): K Q-vertices on n outcomes;
    # the dense games' optima tend to mix more Q-vertices, and so to take
    # more master LPs
    sizes = [0, 0]
    for kind, inst in criterion_4_5_instances():
        for vp in inst.P.vertices:
            check_game(inst, vp, kind)
            sizes[2 * len(inst.Q.vertices) > len(inst.P.support)] += 1
    assert min(sizes) > 200


@pytest.mark.parametrize("seed", [1, 411, 8123])
def test_benchmark_like_pairs_match_lp(seed):
    rng = random.Random(seed)
    for _ in range(20):
        inst = mixture_pair_instance(rng)
        for vp in inst.P.vertices:
            for kind in ("primal", "dual"):
                check_game(inst, vp, kind)
