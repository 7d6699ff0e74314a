"""Differential and boundary tests of the rational boundary.

Values become Fractions once, at `measures.rational`, and the hot sums
then run in integers over a common denominator.  On hypothesis-drawn
inputs each integer path must give exactly what the Fraction expression it
replaced gives (`fraction_sums`): the sign and sum checks and the
expectation of a `ProbabilityMeasure`, `Market.gain`, the expected
increments of `Market.martingale_claims`, the charging column of the
market LPs, the vertex list of `enumerate_basic_feasible` in its order,
and `codec.parse_rational` on accepted and rejected text alike.  The boundary
tests pin that stored fields are Fractions whatever the input type, and
the edge forms of a rational string.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fraction_sums as ref
from robust_ftap import market
from robust_ftap.cli import main
from robust_ftap.codec import parse_rational
from robust_ftap.errors import CertificateError, InputError
from robust_ftap.lp_core import EQ, Constraint, LinearProgram, enumerate_basic_feasible
from robust_ftap.market import Market, check_na, full_support_martingale
from robust_ftap.measures import (
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
    rational,
)

F = Fraction

# denominators with distinct prime factors, so that the lcm of a row is
# larger than any one of its denominators
rationals = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))


def _space(n):
    return SampleSpace([f"o{k}" for k in range(n)])


@st.composite
def masses(draw):
    """Probability vectors, vectors off by a small rational, and vectors
    with a negative entry."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1
    mass = [F(w, sum(weights)) for w in weights]
    kind = draw(st.sampled_from(["probability", "off", "negative"]))
    if kind == "off":
        mass[draw(st.integers(0, n - 1))] += draw(rationals)
    elif kind == "negative":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        shift = draw(rationals.filter(lambda x: x > 0))
        mass[i] -= shift
        mass[j] += shift
    event(kind)
    return mass


@st.composite
def markets(draw):
    """Markets of 1 to 6 outcomes and 0 to 3 assets with rational prices,
    under one drawn P-vertex (outcomes outside its support are ignored)."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    s0 = draw(st.lists(rationals, min_size=d, max_size=d))
    s1 = [draw(st.lists(rationals, min_size=d, max_size=d)) for _ in range(n)]
    space = _space(n)
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    vertex = ProbabilityMeasure(space, [F(w, sum(weights)) for w in weights])
    P = AmbiguitySet(space, [vertex])
    return Market(space, s0, s1, P)


@settings(max_examples=300, deadline=None)
@given(masses())
def test_probability_checks_match(mass):
    want = ref.probability_defect(mass)
    if want is None:
        assert ProbabilityMeasure(_space(len(mass)), mass).mass == tuple(mass)
    else:
        with pytest.raises(ValueError, match=want):
            ProbabilityMeasure(_space(len(mass)), mass)


@settings(max_examples=300, deadline=None)
@given(masses(), st.data())
def test_expectations_match(mass, data):
    if ref.probability_defect(mass) is not None:
        return
    space = _space(len(mass))
    values = data.draw(st.lists(rationals, min_size=len(mass), max_size=len(mass)))
    q, f = ProbabilityMeasure(space, mass), BoundedFunction(space, values)
    got = q.expectation(f)
    assert type(got) is Fraction
    assert got == ref.expectation(q, f)


@settings(max_examples=300, deadline=None)
@given(markets(), st.data())
def test_gains_match(m, data):
    entries = st.one_of(rationals, st.integers(-3, 3))
    H = data.draw(st.lists(entries, min_size=m.d, max_size=m.d))
    for o in m.space.outcomes:
        got = m.gain(H, o)
        assert type(got) is Fraction
        assert got == ref.gain(m, H, o)


@settings(max_examples=300, deadline=None)
@given(markets(), st.data())
def test_expected_increments_match(m, data):
    # a drawn measure on the support, and the full-support martingale
    # measure when there is one: the claims fail, or hold, alike
    n = len(m.support)
    weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1
    qs = [m.measure(F(w, sum(weights)) for w in weights)]
    if check_na(m)[0]:
        qs.append(full_support_martingale(m))
    for q in qs:
        want = ref.expected_increments(m, q)
        bad = next((i for i, e in enumerate(want) if e != 0), None)
        event("martingale" if bad is None else "not a martingale")
        if bad is None:
            claims = m.martingale_claims(q, "q")
            assert [c.lhs for c in claims] == list(want)
            assert all(type(c.lhs) is Fraction for c in claims)
        else:
            message = f"q: expected increment of asset {bad}: {want[bad]} = 0 is false"
            with pytest.raises(CertificateError) as err:
                m.martingale_claims(q, "q")
            assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(markets(), st.data())
def test_charge_column_matches(m, data):
    charged = data.draw(st.lists(st.sampled_from(m.support), min_size=1, unique=True))
    got = market._charge_column(m, charged)
    assert got == ref.charge_column(m, charged)
    assert all(type(x) is Fraction for x in got)


# small entries make degenerate systems, where bases share a vertex
small = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2]))


@st.composite
def systems(draw):
    """A q = b with 1 to 4 rows and 2 to 9 columns.  A column is drawn
    afresh, all zero, or a multiple of an earlier one: the last two make
    prefixes that depend on a column, which the enumeration must skip."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 9))
    by_column: list[list[Fraction]] = []
    for _ in range(cols):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            by_column.append([F(0)] * rows)
        elif kind == "repeat" and by_column:
            earlier = draw(st.sampled_from(by_column))
            factor = draw(st.sampled_from([F(1), F(2), F(-1), F(1, 2)]))
            by_column.append([factor * a for a in earlier])
        else:
            by_column.append(draw(st.lists(small, min_size=rows, max_size=rows)))
    A = [list(row) for row in zip(*by_column)]
    return A, draw(st.lists(small, min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_vertex_order_matches(system):
    A, b = system
    got = enumerate_basic_feasible(A, b)
    want = ref.enumerate_basic_feasible(A, b)
    event("degenerate" if len(want) > 1 else f"{len(want)} vertices")
    assert got == want


# the grammar of a rational string, with leading zeros and surrounding spaces
DIGIT = "0123456789"
rational_texts = st.builds(
    lambda ws, sign, whole, tail, we: f"{ws}{sign}{whole}{tail}{we}",
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "-"]),
    st.text(DIGIT, min_size=1, max_size=6),
    st.one_of(
        st.just(""),
        st.builds(lambda a, b: f"/{a}{b}", st.sampled_from(DIGIT[1:]), st.text(DIGIT, max_size=4)),
        st.builds(lambda f: f".{f}", st.text(DIGIT, min_size=1, max_size=12)),
    ),
    st.sampled_from(["", " ", "\n"]),
)


@settings(max_examples=500, deadline=None)
@given(rational_texts)
def test_parse_rational_matches_fraction(text):
    got = parse_rational(text)
    assert type(got) is Fraction
    assert got == Fraction(text) == ref.parse_rational(text)


def _outcome(f, value):
    try:
        return f(value, "x")
    except InputError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text("0123456789-/. +e_x١", max_size=8), rational_texts))
def test_parse_rational_matches_reference_on_any_text(text):
    assert _outcome(parse_rational, text) == _outcome(ref.parse_rational, text)


@pytest.mark.parametrize(
    "bad", ["1/0", "1/-3", "1/02", "", "a", "1.2345678901234", "1e3", 1.5, True, None]
)
def test_rejected_forms_match(bad):
    with pytest.raises(InputError) as err:
        parse_rational(bad, "x")
    with pytest.raises(InputError) as want:
        ref.parse_rational(bad, "x")
    assert str(err.value) == str(want.value)


# --- boundary --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("007", F(7)), ("-0", F(0)), ("0/5", F(0)), ("-3/6", F(-1, 2)), (" 1/2 ", F(1, 2))],
)
def test_edge_forms(text, expected):
    got = parse_rational(text)
    assert got == expected and type(got) is Fraction


DIGITS = "1" * 5000  # past the 4300-digit limit of int/str conversion


@pytest.mark.parametrize(
    "text",
    [DIGITS, "1/" + DIGITS, DIGITS + ".5"],
    ids=["integer", "denominator", "decimal"],
)
def test_long_digit_string_names_its_field(tmp_path, capsys, text):
    market_obj = {
        "outcomes": ["u", "d"], "d": 1, "S0": [text], "S1": [["2"], ["1/2"]],
        "ambiguity_vertices": [["1/2", "1/2"]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(market_obj))
    assert main(["check-na", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: market.S0[0]: Exceeds the limit")
    assert "Traceback" not in err


def test_rational_keeps_a_fraction():
    x = F(1, 3)
    assert rational(x) is x
    for v in (2, True, "3/6"):
        assert type(rational(v)) is Fraction and rational(v) == F(v)


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


def test_constraint_and_lp_store_fractions():
    row = Constraint([1, True, "1/2"], EQ, False)
    assert _all_fractions(row.coeffs + (row.rhs,))
    assert row.coeffs == (1, 1, F(1, 2)) and row.rhs == 0
    lp = LinearProgram([1, "2", True], "max", [row], lower=[0, None, "1/3"])
    assert _all_fractions(lp.objective)
    assert _all_fractions(b for b in lp.lower if b is not None)


def test_measure_and_market_store_fractions():
    space = _space(2)
    for mass in ([True, 0], [1, False], ["1/2", "1/2"], [F(1, 2), "1/2"]):
        assert _all_fractions(ProbabilityMeasure(space, mass).mass)
    P = AmbiguitySet(space, [ProbabilityMeasure(space, ["1/2", "1/2"])])
    m = Market(space, [1, "1/2"], [[True, 2], ["3/2", False]], P)
    assert _all_fractions(m.s0) and all(_all_fractions(row) for row in m.s1)
    assert all(_all_fractions(m.delta_s(o)) for o in space.outcomes)
    assert m.s1[0] == (1, 2) and m.delta_s("o1") == (F(1, 2), F(-1, 2))


def test_index_is_a_lookup_with_the_same_error():
    space = SampleSpace(["a", "b", "c"])
    assert [space.index(o) for o in "abc"] == [0, 1, 2]
    for label in ("d", ["a"]):
        with pytest.raises(KeyError, match=r"unknown outcome"):
            space.index(label)
