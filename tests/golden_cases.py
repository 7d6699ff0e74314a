"""The golden corpus: every subcommand on a fixed set of inputs, and the
standard output each case must print byte for byte.

The inputs are in ``tests/golden/inputs`` and the expected standard output
of each case in ``tests/golden/expected/<case>.out``.  The module needs
nothing but the standard library, so the corpus also runs without
site-packages:

    python -S tests/golden_cases.py --check

runs every case in-process, diffs its output against the expected file,
then runs ``verify`` on every JSON certificate; it exits 1 on any
difference.  Under ``python -O -S`` it runs with asserts stripped as well,
which shows that no check of the library or of ``verify`` rests on an
``assert``.  ``tests/test_golden.py`` runs the same cases under pytest.
After an intended change of output, rewrite the expected files with

    python tests/golden_cases.py

and say in CHANGES.md which certificates changed and why.
"""

import argparse
import contextlib
import difflib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":  # run as a script: the package is in ../src
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from robust_ftap.cli import main  # noqa: E402

INPUTS = os.path.join(HERE, "golden", "inputs")
EXPECTED = os.path.join(HERE, "golden", "expected")


def input_path(name):
    return os.path.join(INPUTS, name)


LEVELS = ["--epsilon", "1/4", "--delta", "1/8"]
SHRINKING, FLAT, WIDENING = (
    input_path("sequence_shrinking.json"),
    input_path("sequence_flat.json"),
    input_path("sequence_widening.json"),
)

# case name -> argv; every case exits 0 and writes a JSON certificate
# unless its argv asks for --format text
CASES = {
    "check-na-holds": ["check-na", "--input", input_path("market_na.json")],
    "check-na-fails": ["check-na", "--input", input_path("market_arb.json")],
    "check-na-two-assets": ["check-na", "--input", input_path("market_two_assets.json")],
    "martingale-polytope": ["martingale-polytope", "--input", input_path("market_na.json")],
    "martingale-polytope-two-assets":
        ["martingale-polytope", "--input", input_path("market_two_assets.json")],
    # the support {u, d} with increments (1, 0): q_u = 0 is forced
    "martingale-polytope-arb": ["martingale-polytope", "--input", input_path("market_arb.json")],
    "ftap-holds": ["ftap", "--input", input_path("market_two_assets.json")],
    "ftap-fails": ["ftap", "--input", input_path("market_arb.json")],
    "superhedge": ["superhedge", "--input", input_path("market_na.json"),
                   "--payoff", input_path("payoff_na.json")],
    "superhedge-two-assets": ["superhedge", "--input", input_path("market_two_assets.json"),
                              "--payoff", input_path("payoff_two_assets.json")],
    "superhedge-na-fails": ["superhedge", "--input", input_path("market_arb.json"),
                            "--payoff", input_path("payoff_arb.json")],
    "hs-check-primal": ["hs-check", "--input", input_path("pair.json"), *LEVELS],
    "hs-check-dual": ["hs-check", "--input", input_path("pair.json"), *LEVELS, "--kind", "dual"],
    "hs-check-primal-fails":
        ["hs-check", "--input", input_path("pair_primal_fails.json"), *LEVELS],
    "hs-witness": ["hs-witness", "--input", input_path("pair.json"), *LEVELS],
    "hs-witness-vertex-1":
        ["hs-witness", "--input", input_path("pair.json"), *LEVELS, "--vertex-index", "1"],
    "hs-witness-vacuous": ["hs-witness", "--input", input_path("pair.json"),
                           "--epsilon", "3/4", "--delta", "1/8"],
    "hs-witness-fails": ["hs-witness", "--input", input_path("pair_primal_fails.json"), *LEVELS],
    "hs-dual-witness": ["hs-dual-witness", "--input", input_path("pair.json"), *LEVELS],
    "hs-dual-witness-vertex-1":
        ["hs-dual-witness", "--input", input_path("pair.json"), *LEVELS, "--vertex-index", "1"],
    "hs-dual-witness-primal-fails":
        ["hs-dual-witness", "--input", input_path("pair_primal_fails.json"), *LEVELS],
    # 3 Q-vertices on 4 outcomes: the game's optimum mixes two of them
    "hs-witness-dense": ["hs-witness", "--input", input_path("pair_dense.json"), *LEVELS,
                         "--vertex-index", "1"],
    "hs-dual-witness-dense": ["hs-dual-witness", "--input", input_path("pair_dense.json"),
                              *LEVELS, "--vertex-index", "1"],
    "hs-modulus": ["hs-modulus", "--input", input_path("pair.json"), "--epsilon", "1/4"],
    "hs-modulus-none-qualifying":
        ["hs-modulus", "--input", input_path("pair.json"), "--epsilon", "2"],
    "scan-aa1": ["scan-aa1", "--input", SHRINKING, "--alpha-grid", "1/2",
                 "--c-schedule", "1,1/2,1/3,1/4"],
    "scan-aa1-default-grid": ["scan-aa1", "--input", FLAT],
    "scan-aa1-none": ["scan-aa1", "--input", FLAT, "--c-schedule", "1/20,1/30,1/40"],
    "scan-aa2": ["scan-aa2", "--input", WIDENING],
    "scan-aa2-none": ["scan-aa2", "--input", SHRINKING],
    "certify-naa1": ["certify-naa1", "--input", WIDENING, "--epsilon-grid", "1/4,1/2"],
    "certify-naa1-default-grid": ["certify-naa1", "--input", SHRINKING],
    "certify-naa2": ["certify-naa2", "--input", SHRINKING, "--epsilon-grid", "1/4"],
    "certify-naa2-default-grid": ["certify-naa2", "--input", WIDENING],
    "build-contiguous": ["build-contiguous", "--input", WIDENING],
    "build-contiguous-shrinking": ["build-contiguous", "--input", SHRINKING],
    "weak-contiguity": ["weak-contiguity", "--input", SHRINKING, "--epsilon", "1/2"],
    "weak-contiguity-widening": ["weak-contiguity", "--input", WIDENING, "--epsilon", "1/2"],
    "weak-contiguity-vacuous": ["weak-contiguity", "--input", SHRINKING, "--epsilon", "2"],
    "check-na-fails-text":
        ["check-na", "--input", input_path("market_arb.json"), "--format", "text"],
    "superhedge-text": ["superhedge", "--input", input_path("market_na.json"),
                        "--payoff", input_path("payoff_na.json"), "--format", "text"],
    "hs-witness-text": ["hs-witness", "--input", input_path("pair.json"), *LEVELS,
                        "--format", "text"],
    "build-contiguous-text": ["build-contiguous", "--input", WIDENING, "--format", "text"],
}


def expected(name: str) -> str:
    with open(os.path.join(EXPECTED, f"{name}.out"), encoding="utf-8") as fh:
        return fh.read()


def json_cases() -> list[str]:
    """The cases that write a JSON certificate, which `verify` accepts."""
    return sorted(n for n, argv in CASES.items() if "--format" not in argv)


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, standard output and standard error of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check() -> int:
    """Run every case and verify every JSON certificate; the number of
    failures, each described on stderr."""
    failures = 0
    for name, argv in sorted(CASES.items()):
        code, out, err = run(argv)
        want = expected(name)
        if code == 0 and err == "" and out == want:
            continue
        failures += 1
        sys.stderr.write(f"{name}: exit {code}, stderr {err!r}\n")
        sys.stderr.writelines(difflib.unified_diff(
            want.splitlines(True), out.splitlines(True), f"expected/{name}.out", name))
    for name in json_cases():
        path = os.path.join(EXPECTED, f"{name}.out")
        result = run(["verify", "--certificate", path])
        if result != (0, "certificate accepted\n", ""):
            failures += 1
            sys.stderr.write(f"verify {name}: {result!r}\n")
    print(f"{len(CASES)} golden cases run, {len(json_cases())} certificates "
          f"given to verify, {failures} failures")
    return failures


def _rewrite() -> None:
    os.makedirs(EXPECTED, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out, _ = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        with open(os.path.join(EXPECTED, f"{name}.out"), "w", encoding="utf-8") as fh:
            fh.write(out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or rewrite the golden outputs.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the expected files instead of rewriting them")
    if parser.parse_args().check:
        sys.exit(1 if check() else 0)
    _rewrite()
