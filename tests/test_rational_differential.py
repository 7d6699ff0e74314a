"""Differential and boundary tests of the rational boundary.

Values become Fractions once, at `measures.rational`, and the hot sums
then run in integers over a common denominator.  On hypothesis-drawn
(and, for `measures.mix`, seeded) inputs each integer path must give
exactly what the Fraction expression it replaced gives (`fraction_sums`):
the sign and sum checks and the expectation of a `ProbabilityMeasure`,
`measures.mix` with its errors, `Market.gain` and `Market.gains`, the
expected increments of `Market.martingale_claims`, the charging column of
the market LPs, the vertex list of `enumerate_basic_feasible` in its order,
and `codec.parse_rational` on accepted and rejected text alike.  The boundary
tests pin that stored fields are Fractions whatever the input type, and
the edge forms of a rational string.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fraction_sums as ref
from robust_ftap import market
from robust_ftap.cli import main
from robust_ftap.codec import parse_rational
from robust_ftap.errors import CertificateError, DimensionMismatch, InputError
from robust_ftap.lp_core import EQ, Constraint, LinearProgram, enumerate_basic_feasible
from robust_ftap.market import Market, check_na, full_support_martingale
from robust_ftap.measures import (
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
    mix,
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
    gains = m.gains(H)
    assert gains == tuple(ref.gain(m, H, o) for o in m.support)
    assert all(type(g) is Fraction for g in gains)


@settings(max_examples=300, deadline=None)
@given(markets(), st.data())
def test_expected_increments_match(m, data):
    # a drawn measure on the support, one on the whole space (its mass off
    # the support is not read), and the full-support martingale measure
    # when there is one: the claims fail, or hold, alike
    drawn = []
    for n in (len(m.support), m.space.size):
        weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        if not any(weights):
            weights[0] = 1
        drawn.append([F(w, sum(weights)) for w in weights])
    qs = [m.measure(drawn[0]), ProbabilityMeasure(m.space, drawn[1])]
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


MIX_KINDS = ("probability", "negative", "off", "space", "count")


def _random_mixture(rng, kind):
    """1 to 4 measures on 1 to 5 outcomes, each over its own denominator,
    and weights with zeros among them, broken as ``kind`` says: a negative
    weight, weights off 1 by a small rational, one measure on another
    space (of the same size or not), or one weight too many."""
    n, K = rng.randint(1, 5), rng.randint(1, 4)
    space = _space(n)

    def measure(on):
        counts = [rng.randint(0, 6) for _ in range(on.size)]
        counts[rng.randrange(on.size)] += 1
        return ProbabilityMeasure(on, [F(c, sum(counts)) for c in counts])

    measures = [measure(space) for _ in range(K)]
    counts = [rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(K)]
    counts[rng.randrange(K)] += 1
    weights = [F(c, sum(counts)) for c in counts]
    if kind == "negative":
        i, j = rng.randrange(K), rng.randrange(K)
        shift = weights[i] + F(rng.randint(1, 4), rng.choice([1, 2, 3, 7]))
        weights[i] -= shift
        weights[j] += shift
        if i == j:
            weights[i] -= shift  # one weight, so it goes negative alone
    elif kind == "off":
        weights[rng.randrange(K)] += F(rng.choice([-1, 1]), rng.randint(2, 9))
    elif kind == "space":
        other = SampleSpace([f"x{k}" for k in range(rng.choice([n, n + 1]))])
        measures.insert(rng.randint(1, K), measure(other))
        weights.insert(0, F(0))
    elif kind == "count":
        weights.append(F(0))
    return measures, weights


def _mix_outcome(f, measures, weights):
    try:
        q = f(measures, weights)
    except (DimensionMismatch, ValueError) as exc:
        return type(exc), str(exc)
    assert all(type(x) is Fraction for x in q.mass)
    return q.mass, q.numerators, q.denominator


def test_mix_matches_fraction_sums():
    # seeded mixtures of every kind, including zero weights, a single
    # measure and measures over different denominators
    rng = random.Random(314)
    seen = set()
    for k in range(1500):
        kind = MIX_KINDS[k % len(MIX_KINDS)]
        measures, weights = _random_mixture(rng, kind)
        got = _mix_outcome(mix, measures, weights)
        assert got == _mix_outcome(ref.mix, measures, weights)
        failed = type(got[0]) is type
        assert failed == (kind != "probability")
        if kind == "probability":
            seen.add("zero weight" if 0 in weights else "no zero weight")
            seen.add("one measure" if len(measures) == 1 else "several measures")
            if len({m.denominator for m in measures}) > 1:
                seen.add("different denominators")
        else:
            seen.add(got)
    assert seen >= {
        "zero weight", "no zero weight", "one measure", "several measures",
        "different denominators",
        (ValueError, "weights must be nonnegative and sum to 1"),
        (DimensionMismatch, "measures on different spaces"),
        (DimensionMismatch, "one weight per measure required"),
    }


INTEGER_KINDS = ("probability", "common factor", "negative", "off", "length", "denominator")


def _random_integers(rng, kind):
    """Numerators over a denominator on 1 to 6 outcomes, with zeros among
    them, broken as ``kind`` says: every integer times a common factor (a
    measure still), a negative entry with the sum kept, a sum off the
    denominator, one entry too many, or a denominator <= 0."""
    n = rng.randint(1, 6)
    nums = [rng.choice([0, 0, 1, 2, 3, 5, 8]) for _ in range(n)]
    nums[rng.randrange(n)] += 1
    d = sum(nums)
    if kind == "common factor":
        k = rng.choice([2, 3, 6, 10])
        nums, d = [a * k for a in nums], d * k
    elif kind == "negative":
        i, j = rng.randrange(n), rng.randrange(n)
        shift = nums[i] + rng.randint(1, 4)
        nums[i] -= shift
        nums[j] += shift
        if i == j:
            nums[i] -= shift  # one entry, so it goes negative alone
    elif kind == "off":
        d += rng.choice([1, 2] if d == 1 else [-1, 1, 2])
    elif kind == "length":
        nums.append(rng.choice([0, 1]))
        d += nums[-1]
    elif kind == "denominator":
        d = rng.choice([0, -d])
    return _space(n), nums, d


def _measure_outcome(build):
    try:
        q = build()
    except (DimensionMismatch, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    assert all(type(x) is Fraction for x in q.mass)
    return q, q.mass, q.numerators, q.denominator


def test_from_integers_matches_the_fraction_constructor():
    # seeded integer vectors with zeros and with a common factor: the
    # integer constructor builds the measure, field for field, and raises
    # the error, type and message, that the Fraction constructor does
    rng = random.Random(3301)
    seen = set()
    for k in range(1800):
        kind = INTEGER_KINDS[k % len(INTEGER_KINDS)]
        space, nums, d = _random_integers(rng, kind)
        got = _measure_outcome(lambda: ProbabilityMeasure.from_integers(space, nums, d))
        if kind == "denominator":
            # no Fraction has a denominator <= 0 (Fraction(a, d) moves the
            # sign of d into a, or raises ZeroDivisionError at 0): the
            # integer constructor refuses it by name, the masses are refused
            assert got == (ValueError, f"probability masses need a positive denominator, not {d}")
            assert type(_measure_outcome(
                lambda: ProbabilityMeasure(space, [F(a, d) for a in nums])
            )[0]) is type
            continue
        want = _measure_outcome(lambda: ProbabilityMeasure(space, [F(a, d) for a in nums]))
        assert got == want
        if type(got[0]) is type:
            seen.add(got)
        else:
            assert got[0] == want[0]  # the measures compare equal too
            seen.add("reduced" if got[3] < d else "as given")
            seen.add("zero entry" if 0 in nums else "no zero entry")
    assert seen >= {
        "reduced", "as given", "zero entry", "no zero entry",
        (ValueError, "probability masses must be nonnegative"),
        (ValueError, "probability masses must sum to exactly 1"),
    }
    assert any(type(o) is tuple and o[0] is DimensionMismatch for o in seen)


def _random_na_market(rng):
    """A market of 2 to 6 outcomes and 1 or 2 assets under 1 to 3 P-vertices
    that has no arbitrage, drawn afresh until it has none."""
    while True:
        n, d = rng.randint(2, 6), rng.randint(1, 2)
        space = _space(n)
        s0 = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d)]
        s1 = [[F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d)] for _ in range(n)]
        vertices = []
        for _ in range(rng.randint(1, 3)):
            counts = [rng.choice([0, 1, 2, 3]) for _ in range(n)]
            counts[rng.randrange(n)] += 1
            vertices.append(ProbabilityMeasure(space, [F(c, sum(counts)) for c in counts]))
        m = Market(space, s0, s1, AmbiguitySet(space, vertices))
        if check_na(m)[0]:
            return m


def _sides(claims):
    return [(c.description, c.lhs, c.relation, c.rhs) for c in claims]


def test_superhedge_claims_match_the_fraction_path():
    # each claim of a superhedge, built from integers, equals the claim the
    # Fraction expressions give: price + gain of H against f, E_q[f] against
    # the price, and E_q[increment] against 0
    rng = random.Random(3302)
    for _ in range(150):
        m = _random_na_market(rng)
        for _ in range(2):
            values = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in m.space.outcomes]
            f = BoundedFunction(m.space, values)
            cert = market.superhedge(m, f)
            q = cert.attaining_q
            want = [
                (f"hedge dominates payoff at {o}", cert.price + ref.gain(m, cert.H, o), ">=",
                 f.value_at(o))
                for o in m.support
            ]
            want.append(
                ("attaining measure reaches the price", ref.expectation(q, f), "=", cert.price)
            )
            want += [
                (f"attaining measure: expected increment of asset {i}", e, "=", 0)
                for i, e in enumerate(ref.expected_increments(m, q))
            ]
            assert _sides(cert.claims) == want
            assert all(type(c.lhs) is Fraction and type(c.rhs) is Fraction for c in cert.claims)
            # the attaining measure is the one its masses build as Fractions
            twin = ProbabilityMeasure(m.space, q.mass)
            assert (q, q.mass, q.numerators, q.denominator) == (
                twin, twin.mass, twin.numerators, twin.denominator
            )


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
    lp = LinearProgram([1, "2", True], "max", [row])
    assert _all_fractions(lp.objective)


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
