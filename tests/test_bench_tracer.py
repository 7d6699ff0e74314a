"""The benchmark's tracer runs against the library it wraps.

`bench/tracing.py` wraps library functions by name and, while counting,
reads `lp_core.matrix_rank`, `LinearProgram.upper` and
`halmos_savage.NO_QUALIFYING_SET`.  One tiny market and one vacuous
Halmos-Savage witness under the tracer fail here when one of those names
is deleted or moved, or when `enumerate_basic_feasible` solves its bases
through a name other than the module global the tracer rebinds.
"""

import importlib.util
import os
from fractions import Fraction

from robust_ftap import halmos_savage, lp_core, market
from robust_ftap.measures import AmbiguitySet, BoundedFunction, ProbabilityMeasure, SampleSpace

F = Fraction

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_and_counts_the_library():
    tracing = _tracing()
    space = SampleSpace(["u", "m", "d"])
    P = AmbiguitySet(space, [ProbabilityMeasure(space, [F(1, 2), F(1, 4), F(1, 4)])])
    m = market.Market(space, [0], [[1], [0], [-1]], P)
    inst = halmos_savage.HsInstance(
        P, AmbiguitySet(space, [ProbabilityMeasure(space, [F(1, 3)] * 3)]), F(3, 4), F(1, 8)
    )
    solve_lp = lp_core.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert market.check_na(m)[0]
        assert len(market.martingale_polytope(m).vertices) == 2
        assert market.superhedge(m, BoundedFunction(space, [1, 0, 0])).price == F(1, 2)
        w = halmos_savage.construct_hs_witness(inst, P.vertices[0])
        assert w.guaranteed_bound == halmos_savage.NO_QUALIFYING_SET
    finally:
        tracer.uninstall()
    assert lp_core.solve_lp is solve_lp
    metrics = tracer.metrics(1, 0.0)
    assert metrics["lp_core.solve_square.calls"] > 0
    assert metrics["lp_core.enumerate_basic_feasible.bases"] > 0
    assert metrics["halmos_savage.witnesses"] == 1
