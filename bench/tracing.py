"""Per-layer tracing by wrapping the program's public functions from outside.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the wrapped calls made inside it, so every second of a traced run
is charged to exactly one layer (or to the benchmark's own loop).  Counts
are computed from call arguments and results, so they do not depend on the
machine.  Wrappers are installed by rebinding the module globals that name
each function (``market.solve_lp`` as well as ``lp_core.solve_lp``), and
removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import importlib
from collections import Counter
from math import comb
from time import perf_counter

MODULES = ("lp_core", "measures", "halmos_savage", "market", "large_market", "cli")

# (module that defines the function, function name, span name)
WRAPPED = (
    ("lp_core", "solve_lp", "lp_core.solve_lp"),
    ("lp_core", "minimax_value", "lp_core.minimax_value"),
    ("lp_core", "enumerate_basic_feasible", "lp_core.enumerate_basic_feasible"),
    ("lp_core", "solve_square", "lp_core.solve_square"),
    ("halmos_savage", "check_hypothesis_primal", "halmos_savage.scan"),
    ("halmos_savage", "check_hypothesis_dual", "halmos_savage.scan"),
    ("halmos_savage", "hs_modulus", "halmos_savage.scan"),
    ("halmos_savage", "indicator_restricted_value", "halmos_savage.scan"),
    ("halmos_savage", "construct_hs_witness", "halmos_savage.witness"),
    ("halmos_savage", "construct_dual_hs_witness", "halmos_savage.witness"),
    ("market", "check_na", "market.check_na"),
    ("market", "martingale_polytope", "market.martingale_polytope"),
    ("market", "check_ftap", "market.check_ftap"),
    ("market", "superhedge", "market.superhedge"),
    ("large_market", "scan_aa1", "large_market.scan"),
    ("large_market", "scan_aa2", "large_market.scan"),
    ("large_market", "certify_moduli", "large_market.moduli"),
    ("large_market", "martingale_sets", "large_market.martingale_sets"),
    ("large_market", "build_contiguous_sequence", "large_market.contiguity"),
    ("large_market", "weak_contiguity_witness", "large_market.contiguity"),
    ("cli", "_load_json", "cli.load"),
    ("cli", "load_market", "cli.load"),
    ("cli", "load_sequence", "cli.load"),
    ("cli", "load_payoff", "cli.load"),
    ("cli", "load_hs_pair", "cli.load"),
    ("cli", "main", "cli.main"),
    ("cli", "verify_certificate", "cli.verify_certificate"),
)
EVENT_SPAN = "measures.event_evals"

# Reported per-layer metrics, as (name, unit).  Counts are per pass over
# the workload's inputs; self times are seconds per pass.
PER_LAYER = (
    ("lp_core.solve_lp.calls", "count"),
    ("lp_core.solve_lp.self_s", "s"),
    ("lp_core.solve_lp.optimal", "count"),
    ("lp_core.solve_lp.infeasible", "count"),
    ("lp_core.solve_lp.unbounded", "count"),
    ("lp_core.solve_lp.constraint_rows", "count"),
    ("lp_core.solve_lp.bounded_vars", "count"),
    ("lp_core.minimax_value.calls", "count"),
    ("lp_core.minimax_value.self_s", "s"),
    ("lp_core.enumerate_basic_feasible.calls", "count"),
    ("lp_core.enumerate_basic_feasible.self_s", "s"),
    ("lp_core.enumerate_basic_feasible.bases", "count"),
    ("lp_core.enumerate_basic_feasible.vertices", "count"),
    ("lp_core.solve_square.calls", "count"),
    ("measures.event_evals.calls", "count"),
    ("measures.event_evals.self_s", "s"),
    ("halmos_savage.events_scanned", "count"),
    ("halmos_savage.scan.self_s", "s"),
    ("halmos_savage.witness.self_s", "s"),
    ("halmos_savage.witnesses", "count"),
    ("market.check_na.calls", "count"),
    ("market.check_na.self_s", "s"),
    ("market.check_na.calls_per_market", "calls/market"),
    ("market.distinct_markets", "count"),
    ("market.martingale_polytope.calls", "count"),
    ("market.martingale_polytope.self_s", "s"),
    ("market.check_ftap.self_s", "s"),
    ("market.superhedge.self_s", "s"),
    ("large_market.scan.self_s", "s"),
    ("large_market.scan.lps", "count"),
    ("large_market.scan.lps_feasible", "count"),
    ("large_market.moduli.self_s", "s"),
    ("large_market.martingale_sets.calls", "count"),
    ("large_market.contiguity.self_s", "s"),
    ("cli.load.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.verify_certificate.self_s", "s"),
    ("cli.cert_bytes", "bytes"),
    ("cli.transcript_entries", "count"),
    ("bench.self_s", "s"),
    ("bench.ref_tick_ms", "ms"),
    ("trace.certs_per_s", "operations/s"),
    ("trace.untraced_certs_per_s", "operations/s"),
    ("trace.overhead_pct", "%"),
)


def _support_size(P) -> int:
    return sum(1 for i in range(P.space.size) if any(v.mass[i] > 0 for v in P.vertices))


class Tracer:
    """Span stack, self times and counts for one traced phase."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.markets: set = set()
        self._stack: list[list] = []  # [span name, child seconds]
        self._saved: list[tuple] = []
        self._lp_core = importlib.import_module("robust_ftap.lp_core")
        self._hs = importlib.import_module("robust_ftap.halmos_savage")

    # span bookkeeping ------------------------------------------------------

    def _wrap(self, fn, span, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[span] += end - start - frame[1]
                self.counts[span + ".calls"] += 1
                if stack:
                    stack[-1][1] += end - start
            if counter is not None:
                counter(parent, args, result)
                if stack:
                    # counting is tracer work: keep it out of the parent too
                    stack[-1][1] += perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counters from arguments and results ------------------------------------

    def _count_lp(self, parent, args, sol):
        lp = args[0]
        c = self.counts
        c["lp_core.solve_lp." + sol.status.lower()] += 1
        c["lp_core.solve_lp.constraint_rows"] += len(lp.constraints)
        c["lp_core.solve_lp.bounded_vars"] += sum(1 for u in lp.upper if u is not None)
        if parent == "large_market.scan":
            c["large_market.scan.lps"] += 1
            c["large_market.scan.lps_feasible"] += sol.status == "Optimal"

    def _count_bases(self, parent, args, verts):
        rows, rhs = args[0], args[1]
        rank = self._lp_core.matrix_rank
        r = rank(rows)
        consistent = rank([list(row) + [b] for row, b in zip(rows, rhs)]) == r
        if consistent and r:
            self.counts["lp_core.enumerate_basic_feasible.bases"] += comb(len(rows[0]), r)
        self.counts["lp_core.enumerate_basic_feasible.vertices"] += len(verts)

    def _count_scan(self, parent, args, result):
        first = args[0]
        P = first.P if hasattr(first, "P") else first
        self.counts["halmos_savage.events_scanned"] += 2 ** _support_size(P)

    def _count_witness(self, parent, args, w):
        self.counts["halmos_savage.witnesses"] += 1
        if w.guaranteed_bound != self._hs.NO_QUALIFYING_SET:
            self.counts["halmos_savage.events_scanned"] += 2 ** _support_size(args[0].P)

    def _count_market(self, parent, args, result):
        self.markets.add(args[0])

    # install / uninstall ----------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module("robust_ftap." + name) for name in MODULES}
        counters = {
            "solve_lp": self._count_lp,
            "enumerate_basic_feasible": self._count_bases,
            "check_hypothesis_primal": self._count_scan,
            "check_hypothesis_dual": self._count_scan,
            "hs_modulus": self._count_scan,
            "indicator_restricted_value": self._count_scan,
            "construct_hs_witness": self._count_witness,
            "construct_dual_hs_witness": self._count_witness,
            "check_na": self._count_market,
        }
        for home, name, span in WRAPPED:
            original = getattr(mods[home], name)
            wrapper = self._wrap(original, span, counters.get(name))
            for mod in mods.values():
                if getattr(mod, name, None) is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)
        pm = mods["measures"].ProbabilityMeasure
        self._saved.append((pm, "__call__", pm.__call__))
        pm.__call__ = self._wrap(pm.__call__, EVENT_SPAN, None)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # report -------------------------------------------------------------------

    def metrics(self, passes: int, total_s: float) -> dict[str, float]:
        """Per-pass values of every traced metric; ``bench.self_s`` is the
        traced time not spent under any wrapped call."""
        c = self.counts
        out: dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.startswith("trace.") or name == "bench.ref_tick_ms":
                continue
            if name == "bench.self_s":
                value = total_s - sum(self.self_s.values())
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]]
            elif name == "market.check_na.calls_per_market":
                calls = _per_pass(c["market.check_na.calls"], passes)
                out[name] = calls / len(self.markets) if self.markets else 0.0
                continue
            elif name == "market.distinct_markets":
                out[name] = len(self.markets)
                continue
            else:
                value = c[name]
            out[name] = value / passes if unit == "s" else _per_pass(value, passes)
        return out


def _per_pass(total: int, passes: int) -> int:
    if total % passes:
        raise ValueError(f"count {total} is not the same in each of {passes} passes")
    return total // passes
