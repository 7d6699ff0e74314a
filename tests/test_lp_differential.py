"""Differential test of the integer simplex against the Fraction simplex it
replaced (`fraction_simplex.reference_solve_lp`), and of the integer
certificate checks against the Fraction checks they replaced.

Both engines build the same columns, artificials and row flips and follow
Bland's rule, so they make the same pivots: every field of their solutions
(status, primal, dual, value, the Farkas vector of an Infeasible LP and
the feasible point and ray of an Unbounded one) must be exactly equal,
and each must pass the check for its status.  A solution with one field
forged by a small rational must be accepted or rejected alike by the
integer check on the scaled rows and by the reference check on the rows
as given.  A free variable is two nonnegative columns
(`free_columns.standard_form`).
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fraction_simplex
from fraction_simplex import reference_solve_lp
from free_columns import standard_form
from robust_ftap.errors import CertificateError
from robust_ftap.lp_core import (
    EQ,
    GE,
    LE,
    Constraint,
    LinearProgram,
    check_infeasible,
    check_optimal,
    check_unbounded,
    solve_lp,
)

F = Fraction

CHECKS = {
    "Optimal": check_optimal,
    "Infeasible": check_infeasible,
    "Unbounded": check_unbounded,
}

REFERENCE_CHECKS = {
    "Optimal": fraction_simplex.check_optimal,
    "Infeasible": fraction_simplex.check_infeasible,
    "Unbounded": fraction_simplex.check_unbounded,
}

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))

# (lower, upper) per variable: free, nonnegative, boxed, upper bound only,
# and a general interval.  A variable with lower bound 0 is one column, any
# other is free and two columns; a lower bound other than 0 is a >= row on
# it and an upper bound a <= row, after the drawn rows
bounds = st.one_of(
    st.just((None, None)),
    st.just((F(0), None)),
    st.just((F(-1), F(1))),
    st.tuples(st.none(), rationals),
    st.tuples(rationals, rationals),
)


@st.composite
def linear_programs(draw):
    n = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.builds(
                Constraint,
                st.lists(rationals, min_size=n, max_size=n),
                st.sampled_from([LE, EQ, GE]),
                rationals,
            ),
            max_size=5,
        )
    )
    box = draw(st.lists(bounds, min_size=n, max_size=n))
    for j, (lo, up) in enumerate(box):
        unit = [int(k == j) for k in range(n)]
        if lo is not None and lo != 0:
            rows.append(Constraint(unit, GE, lo))
        if up is not None:
            rows.append(Constraint(unit, LE, up))
    return standard_form(
        draw(st.lists(rationals, min_size=n, max_size=n)),
        draw(st.sampled_from(["max", "min"])),
        rows,
        free=[j for j, (lo, _) in enumerate(box) if lo != 0],
    )


def _assert_same(lp):
    sol = solve_lp(lp)
    ref = reference_solve_lp(lp)
    for field in ("status", "primal", "dual", "value", "point"):
        assert getattr(sol, field) == getattr(ref, field), field
    CHECKS[sol.status](lp, sol)
    return sol


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_matches_fraction_simplex(lp):
    event(_assert_same(lp).status)


# the fields that make up the certificate of each status
FORGEABLE = {
    "Optimal": ("value", "primal", "dual"),
    "Infeasible": ("dual",),
    "Unbounded": ("primal", "point"),
}


def _accepts(check, lp, sol):
    try:
        check(lp, sol)
    except CertificateError:
        return False
    return True


def _plain(v):
    """An integral rational as a plain int, as a hand-forged solution has."""
    return int(v) if v.denominator == 1 else v


@settings(max_examples=400, deadline=None)
@given(linear_programs(), st.data())
def test_checks_agree_on_forged_solutions(lp, data):
    sol = solve_lp(lp)
    name = data.draw(
        st.sampled_from([f for f in FORGEABLE[sol.status] if getattr(sol, f) != ()])
    )
    delta = data.draw(rationals)  # 0 leaves the solution as it is
    if name == "value":
        forged = replace(sol, value=sol.value + delta)
    else:
        vec = list(getattr(sol, name))
        vec[data.draw(st.integers(0, len(vec) - 1))] += delta
        forged = replace(sol, **{name: tuple(vec)})
    if data.draw(st.booleans()):
        forged = replace(
            forged,
            **{
                f: tuple(map(_plain, getattr(forged, f)))
                for f in ("primal", "dual", "point")
            },
            value=None if forged.value is None else _plain(forged.value),
        )
    accepted = _accepts(CHECKS[sol.status], lp, forged)
    assert accepted == _accepts(REFERENCE_CHECKS[sol.status], lp, forged)
    assert accepted or delta
    event(f"{sol.status} {name}: {'accepted' if accepted else 'rejected'}")


nonzero = st.builds(
    lambda a, b, sign: F(sign * a, b),
    st.integers(1, 6), st.integers(1, 4), st.sampled_from([1, -1]),
)


def _rejected(lp, sol):
    with pytest.raises(CertificateError):
        check_optimal(lp, sol)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(linear_programs(), st.data())
def test_the_one_optimality_check_rejects_a_changed_optimum(lp, data):
    # `solve_lp` checks an optimum on the integers it reads off the tableau
    # and `check_optimal` runs the same check on a solution's Fractions:
    # it accepts the solver's optimum, and rejects it with one primal
    # entry, one dual sign or the value changed
    sol = solve_lp(lp)
    event(sol.status)
    if sol.status != "Optimal":
        return
    check_optimal(lp, sol)
    _rejected(lp, replace(sol, value=sol.value + data.draw(nonzero)))
    # a primal entry with a nonzero cost moves the objective off the value;
    # one with cost 0 is pushed below 0
    j = data.draw(st.integers(0, lp.num_vars - 1))
    primal = list(sol.primal)
    primal[j] += data.draw(nonzero) if lp.objective[j] else -primal[j] - 1
    _rejected(lp, replace(sol, primal=tuple(primal)))
    # a nonzero dual of an inequality row has a sign its row fixes
    signed = [i for i, (y, row) in enumerate(zip(sol.dual, lp.constraints))
              if y and row.relation != EQ]
    if signed:
        i = data.draw(st.sampled_from(signed))
        dual = list(sol.dual)
        dual[i] = -dual[i]
        _rejected(lp, replace(sol, dual=tuple(dual)))
        event("dual sign flipped")


BEALE = LinearProgram(
    [F(-3, 4), 150, F(-1, 50), 6],
    "min",
    [
        Constraint([F(1, 4), -60, F(-1, 25), 9], LE, 0),
        Constraint([F(1, 2), -90, F(-1, 50), 3], LE, 0),
        Constraint([0, 0, 1, 0], LE, 1),
    ],
)


@pytest.mark.parametrize(
    "lp,status",
    [
        (BEALE, "Optimal"),
        (standard_form([1], "max", [Constraint([1], GE, 1), Constraint([1], LE, 0)],
                       free=[0]), "Infeasible"),
        (standard_form([1], "min", [Constraint([1], GE, 2), Constraint([1], LE, 1)],
                       free=[0]), "Infeasible"),
        (standard_form([1], "max", [Constraint([1], GE, 0)], free=[0]), "Unbounded"),
        (standard_form([0, 1], "max", [Constraint([1, -1], EQ, 0)], free=[1]),
         "Unbounded"),
    ],
)
def test_fixed_instances(lp, status):
    assert _assert_same(lp).status == status
