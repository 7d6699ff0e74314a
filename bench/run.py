"""robust-ftap benchmark: one workload, one process, one caller.

    python3 bench/run.py --workload market-lp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop: the caller sends the next
operation only after the previous one completes.  The inputs of one pass
are generated from ``--seed``.  A first pass checks every result against
the benchmark's own computations; the run then repeats whole passes for
``--seconds`` seconds, comparing each result with the checked one.  Every
call into the program is timed at a fixed reference speed (see
``refclock.py``), and an item's time is its median over the timed passes.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` half of the time runs untraced
and half traced, and the object holds the per-layer metrics (see
README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="robust-ftap benchmark")
    parser.add_argument("--workload", required=True, choices=("market-lp", "hs-events", "cli-certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import every program module from ``src/``."""
    for name in ("errors", "measures", "lp_core", "market", "halmos_savage", "large_market", "cli"):
        importlib.import_module("robust_ftap." + name)


class Loop:
    """Closed-loop passes over one workload's items, with checking."""

    def __init__(self, workload, items, clock):
        self.wl = workload
        self.clock = clock
        self.items = items
        self.checked: dict[int, object] = {}
        self.correct = True
        self.errors: list[str] = []

    def _check(self, k, item, result) -> bool:
        if k in self.checked and self.checked[k][0] == result:
            return self.checked[k][1]
        try:
            ok = self.wl.check(item, result)
        except Exception as exc:  # any disagreement marks the run incorrect
            self.correct = False
            self.errors.append(f"{self.wl.name} item {k}: {type(exc).__name__}: {exc}")
            ok = True
        self.checked[k] = (result, ok)
        return ok

    def _attempt(self, k, item):
        """Run one item; returns its timings, or None if it failed."""
        try:
            result, times = self.wl.run(item)
        except Exception as exc:
            self.errors.append(f"{self.wl.name} item {k} raised {type(exc).__name__}: {exc}")
            return None
        ok = self._check(k, item, result)
        self.clock.restart()
        return times if ok else None

    def warm_up(self) -> tuple[int, int]:
        """One untimed pass that checks every result against the reference
        computations; returns (attempted, failed)."""
        failed = sum(self._attempt(k, item) is None for k, item in enumerate(self.items))
        return len(self.items), failed

    def passes(self, seconds: float, on_result=None) -> dict:
        """Whole passes for ``seconds`` of wall-clock time: the run stops
        at the end of the pass nearest to that time.

        Returns, per item, the median operation and certificate times over
        the passes in which it succeeded, with the operation counts.
        """
        ops = [[] for _ in self.items]
        certs = [[] for _ in self.items]
        npass, attempted, failed = 0, 0, 0
        self.clock.restart()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if npass and elapsed + elapsed / npass / 2 >= seconds:
                break
            for k, item in enumerate(self.items):
                attempted += 1
                times = self._attempt(k, item)
                if times is None:
                    failed += 1
                    continue
                ops[k].append(times["op_s"])
                certs[k].append(times.get("cert_s", times["op_s"]))
                if on_result is not None:
                    on_result(times)
            npass += 1
        return {"op": [statistics.median(t) for t in ops if t],
                "cert": [statistics.median(t) for t in certs if t],
                "passes": npass, "attempted": attempted, "failed": failed,
                "elapsed": elapsed}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robust_ftap", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/robust_ftap")
    sys.path.insert(0, HERE)
    import refclock

    clock = refclock.Clock()
    sys.path.insert(0, SRC)
    _, import_s = clock.timed(_import_program)
    import gen
    import tracing
    import workloads

    data = gen.generate(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        cls = workloads.WORKLOADS[args.workload]

        def set_up():
            wl = cls(workdir) if args.workload == "cli-certify" else cls()
            wl.clock = clock
            return wl, wl.setup(data)

        setups = []
        for _ in range(SETUP_REPEATS):
            (wl, items), setup_s = clock.timed(set_up)
            setups.append(setup_s)
        loop = Loop(wl, items, clock)
        warm_attempted, warm_failed = loop.warm_up()

        if args.trace:
            plain = loop.passes(args.seconds / 2)
            tracer = tracing.Tracer()

            def count(times):
                if times and "cert_bytes" in times:
                    tracer.counts["cli.cert_bytes"] += times["cert_bytes"]
                    tracer.counts["cli.transcript_entries"] += times["transcript_entries"]

            wall_before = clock.wall_s
            tracer.install()
            try:
                traced = loop.passes(args.seconds / 2, count)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(traced["passes"], clock.wall_s - wall_before)
            untraced_rate = len(plain["op"]) / sum(plain["op"])
            traced_rate = len(traced["op"]) / sum(traced["op"])
            metrics["trace.certs_per_s"] = traced_rate
            metrics["trace.untraced_certs_per_s"] = untraced_rate
            metrics["trace.overhead_pct"] = 100 * (untraced_rate - traced_rate) / untraced_rate
            metrics["bench.ref_tick_ms"] = statistics.median(clock.ticks) * 1000
            units = dict(tracing.PER_LAYER)
            out = {k: _metric(metrics[k], units[k]) for k, _ in tracing.PER_LAYER}
            attempted = warm_attempted + plain["attempted"] + traced["attempted"]
            failed = warm_failed + plain["failed"] + traced["failed"]
            runs = (plain, traced)
        else:
            run = loop.passes(args.seconds)
            out = {
                "setup_s": _metric(import_s + statistics.median(setups), "s"),
                "certs_per_s": _metric(len(run["op"]) / sum(run["op"]), "operations/s"),
                "cert_p50_ms": _metric(statistics.median(run["cert"]) * 1000, "ms"),
            }
            out["peak_rss_mib"] = _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            attempted = warm_attempted + run["attempted"]
            failed = warm_failed + run["failed"]
            runs = (run,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for line in loop.errors:
        print(line, file=sys.stderr)
    for r in runs:
        print(f"{args.workload}: {r['passes']} timed passes of {len(items)} items "
              f"in {r['elapsed']:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": loop.correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
