"""Golden certificates: the output of every subcommand on a fixed corpus
(`golden_cases.CASES`), compared byte for byte.  `golden_cases.py` says
how to rewrite the expected files after an intended change of output.
"""

import os

import pytest

from golden_cases import CASES, EXPECTED, LEVELS, expected, input_path, json_cases
from robust_ftap import halmos_savage
from robust_ftap.cli import main


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_is_unchanged(name, capsys):
    assert main(CASES[name]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == expected(name)


@pytest.mark.parametrize("name", json_cases())
def test_golden_certificate_verifies(name, capsys):
    path = os.path.join(EXPECTED, f"{name}.out")
    assert main(["verify", "--certificate", path]) == 0
    assert capsys.readouterr().out == "certificate accepted\n"


@pytest.mark.parametrize("name", sorted(
    n for n, argv in CASES.items() if argv[0] in ("build-contiguous", "weak-contiguity")
))
def test_contiguity_builders_check_no_hypothesis(name, capsys, monkeypatch):
    # the modulus table decides each level's hypothesis, so the builders
    # give the same certificates with both hypothesis checks raising
    def rescan(*args):
        raise RuntimeError("a contiguity builder rescanned a hypothesis")

    for check in ("check_hypothesis_primal", "check_hypothesis_dual"):
        monkeypatch.setattr(halmos_savage, check, rescan)
    assert main(CASES[name]) == 0
    assert capsys.readouterr() == (expected(name), "")


def test_cap_exceeded_message(capsys):
    argv = ["hs-witness", "--input", input_path("pair.json"), *LEVELS, "--max-enum", "4"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "enumeration cap exceeded: enumeration over 5 outcomes exceeds cap 4 "
        "(32 events refused)\n",
    )
