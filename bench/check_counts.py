"""Determinism check for the traced run's count metrics.

    python3 bench/check_counts.py --workload hs-events --seed 1 --other-seed 2 --seconds 10

Runs ``bench/run.py --trace 1`` twice on ``--seed`` and once on
``--other-seed``.  Every count metric (units ``count`` and ``bytes``) must
be identical in the two runs on the same seed, and the counts must differ
on the other seed, which shows that the inputs follow the seed argument.
Prints one JSON line with the verdict and the first run's metrics, and
exits 1 if the check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = ("count", "bytes")


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--other-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    run = traced_metrics(args.workload, args.seed, args.seconds)
    first = counts(run)
    second = counts(traced_metrics(args.workload, args.seed, args.seconds))
    other = counts(traced_metrics(args.workload, args.other_seed, args.seconds))
    unequal = sorted(k for k in first if first[k] != second[k])
    moved = sorted(k for k in first if first[k] != other[k])
    ok = not unequal and bool(moved)
    print(json.dumps({"workload": args.workload, "deterministic": not unequal,
                      "unequal": unequal, "moved_on_other_seed": moved, "ok": ok,
                      "metrics": {k: v["value"] for k, v in run.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
