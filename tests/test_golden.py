"""Golden certificates: the output of every subcommand on a fixed corpus,
compared byte for byte.

The inputs are in ``tests/golden/inputs`` and the expected standard output
of each case in ``tests/golden/expected/<case>.out``.  After an intended
change of output, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which certificates changed and why.
"""

import os
import sys

import pytest

from robust_ftap.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "golden", "inputs")
EXPECTED = os.path.join(HERE, "golden", "expected")


def _in(name):
    return os.path.join(INPUTS, name)


LEVELS = ["--epsilon", "1/4", "--delta", "1/8"]
SHRINKING, FLAT, WIDENING = (
    _in("sequence_shrinking.json"),
    _in("sequence_flat.json"),
    _in("sequence_widening.json"),
)

# case name -> argv; every case exits 0 and writes a JSON certificate
# unless its argv asks for --format text
CASES = {
    "check-na-holds": ["check-na", "--input", _in("market_na.json")],
    "check-na-fails": ["check-na", "--input", _in("market_arb.json")],
    "check-na-two-assets": ["check-na", "--input", _in("market_two_assets.json")],
    "martingale-polytope": ["martingale-polytope", "--input", _in("market_na.json")],
    "martingale-polytope-two-assets":
        ["martingale-polytope", "--input", _in("market_two_assets.json")],
    "ftap-holds": ["ftap", "--input", _in("market_two_assets.json")],
    "ftap-fails": ["ftap", "--input", _in("market_arb.json")],
    "superhedge": ["superhedge", "--input", _in("market_na.json"),
                   "--payoff", _in("payoff_na.json")],
    "superhedge-two-assets": ["superhedge", "--input", _in("market_two_assets.json"),
                              "--payoff", _in("payoff_two_assets.json")],
    "superhedge-na-fails": ["superhedge", "--input", _in("market_arb.json"),
                            "--payoff", _in("payoff_arb.json")],
    "hs-check-primal": ["hs-check", "--input", _in("pair.json"), *LEVELS],
    "hs-check-dual": ["hs-check", "--input", _in("pair.json"), *LEVELS, "--kind", "dual"],
    "hs-check-primal-fails":
        ["hs-check", "--input", _in("pair_primal_fails.json"), *LEVELS],
    "hs-witness": ["hs-witness", "--input", _in("pair.json"), *LEVELS],
    "hs-witness-vertex-1":
        ["hs-witness", "--input", _in("pair.json"), *LEVELS, "--vertex-index", "1"],
    "hs-witness-vacuous": ["hs-witness", "--input", _in("pair.json"),
                           "--epsilon", "3/4", "--delta", "1/8"],
    "hs-witness-fails": ["hs-witness", "--input", _in("pair_primal_fails.json"), *LEVELS],
    "hs-dual-witness": ["hs-dual-witness", "--input", _in("pair.json"), *LEVELS],
    "hs-dual-witness-vertex-1":
        ["hs-dual-witness", "--input", _in("pair.json"), *LEVELS, "--vertex-index", "1"],
    "hs-dual-witness-primal-fails":
        ["hs-dual-witness", "--input", _in("pair_primal_fails.json"), *LEVELS],
    "hs-modulus": ["hs-modulus", "--input", _in("pair.json"), "--epsilon", "1/4"],
    "hs-modulus-none-qualifying":
        ["hs-modulus", "--input", _in("pair.json"), "--epsilon", "2"],
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
        ["check-na", "--input", _in("market_arb.json"), "--format", "text"],
    "superhedge-text": ["superhedge", "--input", _in("market_na.json"),
                        "--payoff", _in("payoff_na.json"), "--format", "text"],
    "hs-witness-text": ["hs-witness", "--input", _in("pair.json"), *LEVELS,
                        "--format", "text"],
    "build-contiguous-text": ["build-contiguous", "--input", WIDENING, "--format", "text"],
}


def _expected(name):
    with open(os.path.join(EXPECTED, f"{name}.out"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_is_unchanged(name, capsys):
    assert main(CASES[name]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == _expected(name)


@pytest.mark.parametrize(
    "name", sorted(n for n, argv in CASES.items() if "--format" not in argv)
)
def test_golden_certificate_verifies(name, capsys):
    path = os.path.join(EXPECTED, f"{name}.out")
    assert main(["verify", "--certificate", path]) == 0
    assert capsys.readouterr().out == "certificate accepted\n"


def test_cap_exceeded_message(capsys):
    argv = ["hs-witness", "--input", _in("pair.json"), *LEVELS, "--max-enum", "4"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "enumeration cap exceeded: enumeration over 5 outcomes exceeds cap 4 "
        "(32 events refused)\n",
    )


def _rewrite() -> None:
    import contextlib
    import io

    os.makedirs(EXPECTED, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        with open(os.path.join(EXPECTED, f"{name}.out"), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())


if __name__ == "__main__":
    _rewrite()
    sys.exit(0)
