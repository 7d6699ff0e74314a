"""Fuzz of the input loaders and `verify`, driven through `main`.

Each example takes a golden input (or an emitted certificate), replaces
one node of its JSON tree by a drawn value, or writes drawn bytes in its
place, and runs a subcommand on it.  Whatever the file holds, no
exception may escape `main`, stderr must carry no traceback, and the exit
code must be 0 (a certificate, or an accepted one), 1 (an input error, or
a rejected certificate) or 2 (the enumeration cap).
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ftap.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "golden", "inputs")
EXPECTED = os.path.join(HERE, "golden", "expected")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# case -> (subcommand, flag of the fuzzed file, its seed, the other
# arguments); the enumerating subcommands get a small cap, so a grown input
# is refused quickly with exit 2
CASES = {
    "check-na": ("check-na", "--input", "market_na.json", []),
    "superhedge": (
        "superhedge", "--input", "market_na.json",
        ["--payoff", os.path.join(INPUTS, "payoff_na.json")],
    ),
    "superhedge-payoff": (
        "superhedge", "--payoff", "payoff_na.json",
        ["--input", os.path.join(INPUTS, "market_na.json")],
    ),
    "hs-check": (
        "hs-check", "--input", "pair.json",
        ["--epsilon", "1/4", "--delta", "1/8", "--max-enum", "5"],
    ),
    "certify-naa1": (
        "certify-naa1", "--input", "sequence_flat.json",
        ["--epsilon-grid", "1/2", "--max-enum", "3"],
    ),
    "verify-check-na": (
        "verify", "--certificate", os.path.join(EXPECTED, "check-na-fails.out"), []
    ),
    "verify-hs-witness": (
        "verify", "--certificate", os.path.join(EXPECTED, "hs-witness.out"), []
    ),
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["0", "1", "-1", "1/2", "2/4", "1/0", "0.5", "1e3", "", "u", "d", "a"]
    ),
    st.text(max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every path into the JSON tree, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


@st.composite
def fuzzed_files(draw, seed):
    """The text of a damaged copy of `seed`: one node replaced, or bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    tree = _read(seed)
    paths = list(_paths(tree))
    path = paths[draw(st.integers(0, len(paths) - 1))]
    return json.dumps(_replace(tree, path, draw(json_values))).encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_exception_escapes(case, data):
    command, flag, seed, rest = CASES[case]
    content = data.draw(fuzzed_files(os.path.join(INPUTS, seed)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.json")
        with open(path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, flag, path] + rest)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
