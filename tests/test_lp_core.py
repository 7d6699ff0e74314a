"""Exact simplex core: strong duality, degeneracy, vertex enumeration,
and the bilinear minimax exchange."""

import copy
import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from free_columns import standard_form
from minimax_reference import check_against_reference
from robust_ftap import lp_core, market
from robust_ftap.cli import load_market
from robust_ftap.errors import CertificateError, DimensionMismatch, EmptyPolytope
from robust_ftap.lp_core import (
    Constraint,
    EQ,
    GE,
    HPolytope,
    LE,
    LinearProgram,
    LpSolution,
    MinimaxInstance,
    VertexPolytope,
    check_infeasible,
    check_optimal,
    check_unbounded,
    enumerate_basic_feasible,
    matrix_rank,
    minimax_value,
    solve_lp,
    solve_square,
)
from robust_ftap.measures import BoundedFunction
from test_market import _random_market

F = Fraction


class TestSolveLp:
    def test_single_variable_bound(self):
        lp = LinearProgram([1], "max", [Constraint([1], LE, 3)])
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == 3

    def test_every_variable_is_nonnegative(self):
        # min x with no row: x >= 0 bounds it, so the optimum is x = 0
        lp = LinearProgram([1], "min", [])
        sol = solve_lp(lp)
        assert (sol.status, sol.value, sol.primal) == ("Optimal", 0, (0,))
        check_optimal(lp, sol)
        # there is no per-variable bound to pass
        with pytest.raises(TypeError):
            LinearProgram([1], "min", [], lower=[None])

    def test_infeasible(self):
        # x free, as the columns x+ and x-
        lp = standard_form(
            [1], "max", [Constraint([1], GE, 1), Constraint([1], LE, 0)], free=[0]
        )
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        check_infeasible(lp, sol)
        # the multipliers combine x >= 1 and x <= 0 into 0 >= 1
        assert sol.dual[0] > 0 and sol.dual[1] < 0

    def test_infeasible_through_upper_bound(self):
        # x >= 2 against the bound row x <= 1 of a variable bounded below:
        # the Farkas vector needs the multiplier of the bound row
        lp = LinearProgram([1], "min", [Constraint([1], GE, 2), Constraint([1], LE, 1)])
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        assert sol.dual[1] < 0
        check_infeasible(lp, sol)
        with pytest.raises(CertificateError):
            check_infeasible(lp, replace(sol, dual=(sol.dual[0], F(0))))

    def test_martingale_mass(self):
        # min q_u subject to q_u + q_d = 1, q_u - q_d/2 = 0, q >= 0
        lp = LinearProgram(
            [1, 0],
            "min",
            [
                Constraint([1, 1], EQ, 1),
                Constraint([1, F(-1, 2)], EQ, 0),
            ],
        )
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == F(1, 3)
        assert sol.primal == (F(1, 3), F(2, 3))

    def test_unbounded(self):
        # max x over x >= 0, x free as the columns x+ and x-
        lp = standard_form([1], "max", [Constraint([1], GE, 0)], free=[0])
        sol = solve_lp(lp)
        assert sol.status == "Unbounded"
        # the returned ray improves the objective and preserves feasibility
        ray = sol.primal
        assert sum(c * r for c, r in zip([F(1), F(-1)], ray)) > 0
        check_unbounded(lp, sol)
        with pytest.raises(CertificateError, match="improve"):
            check_unbounded(lp, replace(sol, primal=(F(0), F(0))))
        with pytest.raises(CertificateError, match=">= row"):
            check_unbounded(lp, replace(sol, primal=(F(0), F(1))))
        with pytest.raises(CertificateError, match="negative entry"):
            check_unbounded(lp, replace(sol, primal=(F(0), F(-1))))
        # the feasible point is part of the certificate
        assert sol.point == (F(0), F(0))
        with pytest.raises(CertificateError, match="primal infeasible"):
            check_unbounded(lp, replace(sol, point=(F(0), F(1))))
        with pytest.raises(CertificateError, match="primal has a negative entry"):
            check_unbounded(lp, replace(sol, point=(F(1), F(-1))))
        with pytest.raises(CertificateError, match="feasible point"):
            check_unbounded(lp, replace(sol, point=()))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LinearProgram([1, 2], "max", [Constraint([1], LE, 0)])

    def test_beale_cycling_instance(self):
        # classic degenerate instance on which naive pivoting cycles;
        # Bland's rule must terminate at value -1/20
        lp = LinearProgram(
            [F(-3, 4), 150, F(-1, 50), 6],
            "min",
            [
                Constraint([F(1, 4), -60, F(-1, 25), 9], LE, 0),
                Constraint([F(1, 2), -90, F(-1, 50), 3], LE, 0),
                Constraint([0, 0, 1, 0], LE, 1),
            ],
        )
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == F(-1, 20)
        check_optimal(lp, sol)

    def test_free_variables_and_equalities(self):
        # min x subject to x + h >= 1, x - h/2 >= 0 (superhedging shape),
        # x and h free, each as two columns
        lp = standard_form(
            [1, 0],
            "min",
            [Constraint([1, 1], GE, 1), Constraint([1, F(-1, 2)], GE, 0)],
            free=[0, 1],
        )
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == F(1, 3)
        check_optimal(lp, sol)


def _random_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    sense = rng.choice(["max", "min"])
    obj = [F(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n)]
    cons = []
    for _ in range(m):
        coeffs = [F(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n)]
        rel = rng.choice([LE, GE, EQ])
        rhs = F(rng.randint(-10, 10), rng.randint(1, 10))
        cons.append(Constraint(coeffs, rel, rhs))
    free, box = [], []
    for j in range(n):
        kind = rng.randrange(3)  # 0: x_j >= 0; 1: x_j free, boxed; 2: free
        if kind:
            free.append(j)
        if kind == 1:  # -1 <= x_j <= 1 on a free variable: two rows
            unit = [int(k == j) for k in range(n)]
            box += [Constraint(unit, GE, -1), Constraint(unit, LE, 1)]
    return standard_form(obj, sense, cons + box, free)


class TestStrongDuality:
    def test_random_instances_verify_exactly(self):
        rng = random.Random(2024)
        statuses = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
        for _ in range(400):
            lp = _random_lp(rng)
            sol = solve_lp(lp)
            statuses[sol.status] += 1
            # each check proves its outcome exactly: optimality by weak
            # duality, infeasibility by a Farkas combination, unboundedness
            # by an improving ray of the homogeneous system
            {
                "Optimal": check_optimal,
                "Infeasible": check_infeasible,
                "Unbounded": check_unbounded,
            }[sol.status](lp, sol)
        # the generator must actually exercise all three outcomes
        assert all(v > 0 for v in statuses.values()), statuses

    def test_box_lp_against_vertex_oracle(self):
        # max c.x over [-1,1]^n with one extra <= row: the optimum of an LP
        # over a polytope is attained at a vertex, so compare against brute
        # force over all box corners that satisfy the extra row, whenever
        # some corner is feasible (the optimum then lies on a face whose
        # value is attained at a corner of that face; with a single extra
        # row we instead check bounds: LP value >= every feasible corner)
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 3)
            c = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            row = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            rhs = F(rng.randint(0, 5), 1)
            units = [[int(k == j) for k in range(n)] for j in range(n)]
            box = [
                Constraint(u, rel, b) for u in units for rel, b in ((GE, -1), (LE, 1))
            ]
            cons = [Constraint(row, LE, rhs)] + box
            # free variables, each as two columns, boxed by rows
            lp = standard_form(c, "max", cons, free=range(n))
            sol = solve_lp(lp)
            assert sol.status == "Optimal"  # 0 is feasible, box is compact
            check_optimal(lp, sol)
            corners = []
            for mask in range(2**n):
                corner = [F(1) if mask >> i & 1 else F(-1) for i in range(n)]
                if sum(a * v for a, v in zip(row, corner)) <= rhs:
                    corners.append(corner)
            for corner in corners:
                assert sol.value >= sum(a * v for a, v in zip(c, corner))


class TestCertificateChecks:
    LP = LinearProgram([1], "max", [Constraint([1], LE, 3)])

    def test_rejects_infeasible_primal(self):
        sol = solve_lp(self.LP)
        with pytest.raises(CertificateError, match="primal infeasible"):
            check_optimal(self.LP, replace(sol, primal=(F(4),), value=F(4)))

    def test_rejects_a_wrong_reduced_cost_sign(self):
        # max x_1 subject to x_1 <= 1, x_2 <= 1: x = 0 with y = 0 is feasible,
        # has dual signs and y.b = c.x = 0, but c - y.A = (1, 0) has a
        # positive entry, so x_1 can grow; only the reduced costs tell
        lp = LinearProgram([1, 0], "max", [Constraint([1, 0], LE, 1), Constraint([0, 1], LE, 1)])
        sol = solve_lp(lp)
        assert sol.value == 1
        check_optimal(lp, sol)
        forged = replace(sol, primal=(F(0), F(0)), dual=(F(0), F(0)), value=F(0))
        with pytest.raises(CertificateError, match="reduced cost sign"):
            check_optimal(lp, forged)

    # min x s.t. x <= 3, x >= 1: the optimum is x = 1, with duals (0, 1)
    BAND = LinearProgram([1], "min", [Constraint([1], LE, 3), Constraint([1], GE, 1)])

    def test_rejects_a_false_optimum_by_the_dual_sign_alone(self):
        # x = 2 with duals (1/2, 1/2): feasible, c - y.A = 0, y.b = 2 = c.x;
        # only the sign of the <= row's dual (<= 0 for min) is wrong
        sol = solve_lp(self.BAND)
        assert (sol.primal, sol.dual, sol.value) == ((1,), (0, 1), 1)
        forged = replace(sol, primal=(F(2),), dual=(F(1, 2), F(1, 2)), value=F(2))
        with pytest.raises(CertificateError, match=r"^dual sign \(<= row\)$"):
            check_optimal(self.BAND, forged)

    def test_rejects_a_false_optimum_by_the_duality_gap_alone(self):
        # x = 2 with duals (0, 1): feasible, dual signs right, c - y.A = 0,
        # c.x = 2 is the stored value; only y.b = 1 differs from it
        forged = LpSolution("Optimal", primal=(F(2),), dual=(F(0), F(1)), value=F(2))
        with pytest.raises(CertificateError, match="^strong duality gap$"):
            check_optimal(self.BAND, forged)

    def test_rejects_a_false_optimum_by_its_stored_value_alone(self):
        # x = 2 with duals (0, 1) and the value 1 that the duals prove:
        # only c.x = 2 differs from the stored value
        forged = LpSolution("Optimal", primal=(F(2),), dual=(F(0), F(1)), value=F(1))
        with pytest.raises(CertificateError, match="^stored value differs from primal objective$"):
            check_optimal(self.BAND, forged)

    # each forgery appends a zero, which every other check would read
    # through zip and accept; only the length check rejects it
    @pytest.mark.parametrize("field", ["primal", "dual"])
    def test_rejects_an_optimum_of_the_wrong_length(self, field):
        sol = solve_lp(self.BAND)
        forged = replace(sol, **{field: getattr(sol, field) + (F(0),)})
        with pytest.raises(CertificateError, match="^solution vectors have the wrong length$"):
            check_optimal(self.BAND, forged)

    def test_rejects_a_farkas_vector_by_its_sign_alone(self):
        # x <= -1 and x <= 5 over x >= 0: y = (-1, 1/2) combines them into
        # -x/2 <= -7/2, a contradiction, but a <= row's multiplier must be
        # <= 0, or the combination's inequality points the wrong way
        lp = LinearProgram([0], "min", [Constraint([1], LE, -1), Constraint([1], LE, 5)])
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        forged = replace(sol, dual=(F(-1), F(1, 2)))
        with pytest.raises(CertificateError, match=r"^Farkas sign \(<= row\)$"):
            check_infeasible(lp, forged)

    def test_rejects_a_farkas_vector_of_the_wrong_length(self):
        lp = LinearProgram([1], "min", [Constraint([1], GE, 2), Constraint([1], LE, 1)])
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        with pytest.raises(CertificateError, match="^Farkas vector has the wrong length$"):
            check_infeasible(lp, replace(sol, dual=sol.dual + (F(0),)))

    @pytest.mark.parametrize(
        "field, what", [("primal", "ray"), ("point", "feasible point")]
    )
    def test_rejects_an_unbounded_vector_of_the_wrong_length(self, field, what):
        lp = LinearProgram([1], "max", [Constraint([1], GE, 0)])
        sol = solve_lp(lp)
        assert sol.status == "Unbounded"
        forged = replace(sol, **{field: getattr(sol, field) + (F(0),)})
        with pytest.raises(CertificateError, match=f"^{what} has the wrong length$"):
            check_unbounded(lp, forged)

    def test_rejects_wrong_status(self):
        sol = solve_lp(self.LP)
        for check in (check_infeasible, check_unbounded):
            with pytest.raises(CertificateError, match="status"):
                check(self.LP, sol)
        # an optimum relabelled: every other check of check_optimal holds
        for status in ("Infeasible", "Unbounded"):
            with pytest.raises(CertificateError, match=f"^status '{status}' is not Optimal$"):
                check_optimal(self.LP, replace(sol, status=status))

    def test_rejects_forged_farkas_vectors(self):
        rng = random.Random(77)
        checked = 0
        while checked < 50:
            lp = _random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "Infeasible":
                continue
            checked += 1
            negated = replace(sol, dual=tuple(-y for y in sol.dual))
            with pytest.raises(CertificateError):
                check_infeasible(lp, negated)

    def test_checks_survive_python_O(self):
        # the checks raise CertificateError, so `python -O` keeps them
        code = textwrap.dedent(
            """
            from dataclasses import replace
            from robust_ftap.errors import CertificateError
            from robust_ftap.lp_core import (
                Constraint, LE, LinearProgram, check_optimal, solve_lp)
            lp = LinearProgram([1], "max", [Constraint([1], LE, 3)])
            forged = replace(solve_lp(lp), primal=(4,), value=4)
            try:
                check_optimal(lp, forged)
            except CertificateError as exc:
                print(__debug__, "rejected:", exc)
            else:
                print(__debug__, "accepted")

            from fractions import Fraction
            from robust_ftap import claims, market
            from robust_ftap.measures import (
                AmbiguitySet, BoundedFunction, ProbabilityMeasure, SampleSpace)
            try:
                claims.claim("claimed bound", Fraction(1, 3), ">=", Fraction(1, 2))
            except CertificateError as exc:
                print("entry rejected:", exc)
            else:
                print("entry accepted")
            space = SampleSpace(["u", "d"])
            P = AmbiguitySet(space, [ProbabilityMeasure(space, ["1/2", "1/2"])])
            m = market.Market(space, [1], [[2], [0]], P)
            solve = market.solve_lp
            market.solve_lp = lambda lp: replace(solve(lp), status="Unbounded")
            try:
                market.check_na(m)
            except CertificateError as exc:
                print("check_na rejected:", exc)
            else:
                print("check_na accepted")
            # an arbitrage market: the full-support LP reaches t* = 0, and
            # its dual, which names H, is forged
            arb = market.Market(space, [1], [[2], [1]], P)
            def forged(lp):
                sol = solve(lp)
                return replace(sol, dual=tuple(-y for y in sol.dual))
            market.solve_lp = forged
            try:
                market.check_na(arb)
            except CertificateError as exc:
                print("arbitrage rejected:", exc)
            else:
                print("arbitrage accepted")
            # an NA market: superhedge reads H off its LP's dual, forged;
            # its LP shares the phase 1 of the market's martingale LP
            na = market.Market(space, [1], [[2], [0]], P)
            market.solve_lp = solve
            market.check_na(na)
            market.solve_lp = forged
            payoff = BoundedFunction(space, [1, 0])
            try:
                market.superhedge(na, payoff)
            except CertificateError as exc:
                print("superhedge rejected:", exc)
            else:
                print("superhedge accepted")
            """
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines() == [
            "False rejected: primal infeasible (<= row)",
            "entry rejected: claimed bound: 1/3 >= 1/2 is false",
            "check_na rejected: the full-support martingale LP is Unbounded",
            "arbitrage rejected: gain of H at u: -1 >= 0 is false",
            "superhedge rejected: hedge dominates payoff at u: 0 >= 1 is false",
        ]


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _golden_markets():
    out = []
    for name in ("market_na.json", "market_arb.json", "market_two_assets.json"):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            out.append(load_market(json.load(fh)))
    return out


def _market_lps(monkeypatch, markets, rng):
    """Every LP that check_ftap and (under NA) three superhedges solve on
    the markets, each with whether it found a kept phase-1 outcome."""
    seen = []
    solve = market.solve_lp

    def recording(lp):
        seen.append((lp, bool(lp._phase1)))
        return solve(lp)

    monkeypatch.setattr(market, "solve_lp", recording)
    for m in markets:
        na, _ = market.check_ftap(m)
        for _ in range(3 if na else 0):
            values = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(m.space.size)]
            market.superhedge(m, BoundedFunction(m.space, values))
    return seen


def _objective(rng, n):
    return [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)], rng.choice(["max", "min"])


@pytest.fixture
def phase_two(monkeypatch):
    """solve(lp) -> (solve_lp(lp), the tableau pivots it made after phase 1)."""
    state = {"phase1": False, "pivots": 0}
    pivot, phase_one = lp_core._Tableau.pivot, lp_core._phase_one

    def counted(tab, r, j):
        state["pivots"] += not state["phase1"]
        pivot(tab, r, j)

    def marked(lp):
        state["phase1"] = True
        try:
            return phase_one(lp)
        finally:
            state["phase1"] = False

    monkeypatch.setattr(lp_core._Tableau, "pivot", counted)
    monkeypatch.setattr(lp_core, "_phase_one", marked)

    def solve(lp):
        state["pivots"] = 0
        return solve_lp(lp), state["pivots"]

    return solve


@pytest.fixture
def phase_one_runs(monkeypatch):
    """The number of phase 1 runs so far."""
    runs = [0]
    phase_one = lp_core._phase_one

    def counted(lp):
        runs[0] += 1
        return phase_one(lp)

    monkeypatch.setattr(lp_core, "_phase_one", counted)
    return runs


class TestKeptPhaseOne:
    def test_siblings_solve_like_fresh_lps_on_random_lps(self, phase_two):
        rng = random.Random(2611)
        statuses = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
        for _ in range(300):
            lp = _random_lp(rng)
            first = phase_two(lp)
            statuses[first[0].status] += 1
            assert phase_two(lp) == first  # a second solve: phase 2 alone
            for c, sense in [(lp.objective, lp.sense), _objective(rng, lp.num_vars)]:
                sibling, fresh = lp.with_objective(c, sense), LinearProgram(c, sense, lp.constraints)
                assert sibling == fresh
                assert phase_two(sibling) == phase_two(fresh)
        assert all(statuses.values()), statuses

    def test_siblings_solve_like_fresh_lps_on_market_lps(self, monkeypatch, phase_two):
        rng = random.Random(2612)
        markets = _golden_markets() + [_random_market(rng) for _ in range(60)]
        seen = _market_lps(monkeypatch, markets, rng)
        shared = sum(kept for _, kept in seen)
        assert shared >= 30 and len(seen) - shared >= 30
        for lp, _ in seen:
            # the LP as the market solved it, then a sibling of it
            assert phase_two(lp) == phase_two(LinearProgram(lp.objective, lp.sense, lp.constraints))
            c, sense = _objective(rng, lp.num_vars)
            fresh = LinearProgram(c, sense, lp.constraints)
            assert phase_two(lp.with_objective(c, sense)) == phase_two(fresh)

    def test_phase_one_runs_once_per_row_set(self, phase_one_runs):
        rows = [Constraint([1, 1, 1], EQ, 1), Constraint([1, -1, 2], LE, F(1, 2))]
        lp = LinearProgram([1, 0, 2], "max", rows)
        sol = solve_lp(lp)
        assert solve_lp(lp) == sol and phase_one_runs == [1]
        sibling = lp.with_objective([0, 1, 0], "min")
        for other in (sibling, sibling.with_objective([3, 1, 1], "max"), lp):
            solve_lp(other)
        assert phase_one_runs == [1]
        # equal rows in a new LP are another row set, with their own phase 1
        assert solve_lp(LinearProgram([1, 0, 2], "max", rows)) == sol
        assert phase_one_runs == [2]

    def test_infeasible_rows_keep_their_farkas_solution(self, phase_one_runs):
        # x + y <= 1 and x + y >= 2
        lp = LinearProgram([1, 1], "max", [Constraint([1, 1], LE, 1), Constraint([1, 1], GE, 2)])
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        for c, sense in (([1, 1], "min"), ([-2, 5], "max"), ([0, 0], "min")):
            sibling = lp.with_objective(c, sense)
            assert solve_lp(sibling) == sol == solve_lp(LinearProgram(c, sense, lp.constraints))
            check_infeasible(sibling, sol)
        assert phase_one_runs == [1 + 3]  # the three fresh LPs

    def test_with_objective_refuses_bad_input(self):
        lp = LinearProgram([1, 2], "max", [Constraint([1, 1], LE, 3)])
        for c in ([1], [1, 2, 3], []):
            with pytest.raises(DimensionMismatch, match=f"objective has {len(c)} coefficients"):
                lp.with_objective(c, "max")
        with pytest.raises(ValueError, match="sense"):
            lp.with_objective([1, 2], "maximize")
        assert (lp.objective, lp.sense) == ((1, 2), "max") and lp._phase1 == []

    def test_kept_tableau_is_unchanged_by_sibling_solves(self):
        lp = LinearProgram([1, 0, 2], "max", [Constraint([1, 1, 1], EQ, 1),
                                              Constraint([1, -1, 2], LE, F(1, 2))])
        solve_lp(lp)
        (kept,) = lp._phase1
        snapshot = copy.deepcopy((kept.rows, kept.basis))
        ids = [id(row) for row in kept.rows]
        solved = 0
        for objective in ([1, 0, 2], [0, 1, 0], [-1, 3, 1], [5, -2, 0]):
            for sense in ("max", "min"):
                other = LinearProgram(objective, sense, lp.constraints)
                assert solve_lp(lp.with_objective(objective, sense)) == solve_lp(other)
                solved += 1
        assert solved == 8 and lp._phase1 == [kept]
        assert (kept.rows, kept.basis) == snapshot
        assert [id(row) for row in kept.rows] == ids

    def test_pivot_rebinds_the_rows_it_changes(self):
        # why a shallow copy of the kept tableau's rows is enough: _pivot
        # assigns a new list to every row it changes, the negated pivot row
        # included, and writes into none
        rows = [[-2, 1, 3], [4, -1, 0], [0, 5, 1]]
        snapshot, copied = copy.deepcopy(rows), rows[:]
        lp_core._pivot(copied, 0, 0)
        assert copied != snapshot and rows == snapshot
        assert all(a is not b for a, b in zip(copied[:2], rows[:2]))
        assert copied[2] is rows[2]  # its entry at the pivot column is 0


class TestLinearAlgebra:
    def test_solve_square(self):
        assert solve_square([[F(2), F(0)], [F(0), F(4)]], [F(1), F(1)]) == [
            F(1, 2),
            F(1, 4),
        ]
        assert solve_square([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None
        # a negative entry: not a basic feasible solution
        assert solve_square([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(3)]) is None

    def test_matrix_rank(self):
        assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert matrix_rank([]) == 0

    def test_simplex_vertices(self):
        verts = enumerate_basic_feasible([[F(1), F(1), F(1)]], [F(1)])
        assert sorted(verts) == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        ]

    def test_martingale_system_vertex(self):
        verts = enumerate_basic_feasible(
            [[F(1), F(1)], [F(1), F(-1, 2)]], [F(1), F(0)]
        )
        assert verts == [(F(1, 3), F(2, 3))]

    def test_inconsistent_system(self):
        assert enumerate_basic_feasible(
            [[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]
        ) == []
        # the third row is the sum of the first two, its rhs is not
        rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)], [F(1), F(1), F(2)]]
        assert enumerate_basic_feasible(rows, [F(1), F(1), F(3)]) == []

    def test_rank_one_vertices(self):
        # one row: every vertex is b / a_j at a column with b / a_j >= 0
        verts = enumerate_basic_feasible([[F(2), F(0), F(-1), F(1, 3)]], [F(1)])
        assert verts == [(F(1, 2), 0, 0, 0), (0, 0, 0, F(3))]
        # b = 0: every column with a nonzero entry gives the origin, listed once
        assert enumerate_basic_feasible([[F(1), F(-1)]], [F(0)]) == [(0, 0)]

    def test_dependent_column_pair(self):
        # column 1 is twice column 0, so the bases {0, 1, 2} and {0, 1, 3}
        # are singular; {0, 2, 3} and {1, 2, 3} give one vertex each
        rows = [[F(1), F(2), F(1), F(0)], [F(-1), F(-2), F(1), F(1)],
                [F(-1), F(-2), F(0), F(1)]]
        verts = enumerate_basic_feasible(rows, [F(1), F(2), F(2)])
        assert verts == [(F(1), 0, 0, F(3)), (0, F(1, 2), 0, F(3))]

    def test_negative_basis_entry_is_infeasible(self):
        # the bases {0, 2} and {1, 2} give q_2 = 3 >= 0 but a negative
        # entry at their first column, and {0, 1} is singular: no vertex
        rows = [[F(-1), F(-2), F(0)], [F(1), F(2), F(1)]]
        assert enumerate_basic_feasible(rows, [F(1), F(2)]) == []

    def test_degenerate_vertex_listed_at_its_first_basis(self):
        # q = (1, 0, 0) solves the bases {0, 1} and {0, 2} (and the vertex
        # (0, 1/2, 1/2) only {1, 2}): the degenerate vertex comes first,
        # once
        verts = enumerate_basic_feasible(
            [[F(1), F(1), F(1)], [F(0), F(1), F(-1)]], [F(1), F(0)]
        )
        assert verts == [(F(1), 0, 0), (0, F(1, 2), F(1, 2))]

    def test_every_basis_is_solved_once(self, monkeypatch):
        # the third row is the sum of the first two: rank 2 over 5 columns,
        # so C(5, 2) = 10 bases are tried, the count the enumeration cap
        # reports, each by one solve_square
        calls = []

        def counted(matrix, rhs):
            calls.append(len(matrix))
            return solve_square(matrix, rhs)

        monkeypatch.setattr(lp_core, "solve_square", counted)
        rows = [[1, 1, 1, 1, 1], [1, -1, 2, 0, -2], [2, 0, 3, 1, -1]]
        verts = enumerate_basic_feasible(rows, [1, 0, 1])
        assert calls == [2] * comb(5, 2)
        # (0, 0, 0, 1, 0) solves the four bases through column 3 and is
        # listed once, at {0, 3}
        assert verts == [
            (F(1, 2), F(1, 2), 0, 0, 0), (0, 0, 0, 1, 0), (F(2, 3), 0, 0, 0, F(1, 3)),
            (0, F(2, 3), F(1, 3), 0, 0), (0, 0, F(1, 2), 0, F(1, 2)),
        ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: enumerate_basic_feasible([[1, 1], [1, -1]], [1]),
            lambda: enumerate_basic_feasible([[1, 1]], [1, 0]),
            lambda: enumerate_basic_feasible([[1, 1], [1, 1, 1]], [1, 1]),
            lambda: enumerate_basic_feasible([[1, 1], [1]], [1, 1]),
            lambda: enumerate_basic_feasible([], []),
            lambda: solve_square([[1, 0], [0, 1]], [1]),
            lambda: solve_square([[1, 0], [0]], [1, 1]),
            lambda: solve_square([[1, 0]], [1]),
            lambda: solve_square([], []),
            lambda: matrix_rank([[1, 0], [0]]),
            lambda: matrix_rank([[1], [0, 1]]),
        ],
        ids=[
            "enumerate-missing-rhs", "enumerate-extra-rhs", "enumerate-longer-row",
            "enumerate-shorter-row", "enumerate-no-rows", "solve-missing-rhs",
            "solve-ragged", "solve-not-square", "solve-no-rows", "rank-shorter-row",
            "rank-longer-row",
        ],
    )
    def test_malformed_shapes_raise(self, call):
        with pytest.raises(DimensionMismatch):
            call()


def _simplex_h(dim):
    cons = []
    for i in range(dim):
        unit = [F(1) if j == i else F(0) for j in range(dim)]
        cons.append(Constraint(unit, GE, 0))
    cons.append(Constraint([F(1)] * dim, EQ, 1))
    return HPolytope(dim, cons)


class TestMinimax:
    def test_matching_pennies(self):
        B = [[1, -1], [-1, 1]]
        X = VertexPolytope([[1, 0], [0, 1]])
        Y = VertexPolytope([[1, 0], [0, 1]])
        inst = MinimaxInstance(B, X, Y)
        res = minimax_value(inst)
        assert res.value == 0
        check_against_reference(inst, res)

    def test_degenerate_x(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 3)
            B = [
                [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            x0 = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
            X = VertexPolytope([x0])
            yverts = [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
            inst = MinimaxInstance(B, X, VertexPolytope(yverts))
            res = minimax_value(inst)
            bx = [sum(B[i][j] * x0[j] for j in range(n)) for i in range(n)]
            expected = min(
                sum(v[i] * bx[i] for i in range(n)) for v in yverts
            )
            assert res.value == expected
            check_against_reference(inst, res)

    def test_dset_game(self):
        # X = conv{(9/10,1/10),(1/10,9/10)}, Y = {0<=h<=1, E_P[h] >= 1/2}
        # with P=(1/2,1/2), B = identity -> value 1/2
        X = VertexPolytope([[F(9, 10), F(1, 10)], [F(1, 10), F(9, 10)]])
        cons = [
            Constraint([1, 0], GE, 0),
            Constraint([1, 0], LE, 1),
            Constraint([0, 1], GE, 0),
            Constraint([0, 1], LE, 1),
            Constraint([F(1, 2), F(1, 2)], GE, F(1, 2)),
        ]
        inst = MinimaxInstance([[1, 0], [0, 1]], X, HPolytope(2, cons))
        res = minimax_value(inst)
        assert res.value == F(1, 2)
        assert res.y_star == (F(1, 2), F(1, 2))
        check_against_reference(inst, res)

    def test_ragged_vertices_raise(self):
        # the game's dot products would zip a missing coordinate away and
        # give x* of the wrong dimension
        with pytest.raises(DimensionMismatch):
            VertexPolytope([[1, 0], [0]])

    def test_empty_y_raises(self):
        X = VertexPolytope([[1]])
        cons = [Constraint([1], GE, 1), Constraint([1], LE, 0)]
        with pytest.raises(EmptyPolytope):
            minimax_value(MinimaxInstance([[1]], X, HPolytope(1, cons)))

    def test_inner_infimum_minus_infinity_raises(self):
        # Y = {y >= 0}, B = [[1]], X = {-1}: inf over y >= 0 of -y is -inf
        X = VertexPolytope([[-1]])
        Y = HPolytope(1, [Constraint([1], GE, 0)])
        with pytest.raises(EmptyPolytope):
            minimax_value(MinimaxInstance([[1]], X, Y))

    @pytest.mark.parametrize("kind", ["vertices", "rows"])
    def test_one_lp_per_call(self, monkeypatch, kind):
        calls = []

        def counting(lp):
            calls.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(lp_core, "solve_lp", counting)
        X = VertexPolytope([[1, 0], [0, 1], [F(1, 2), F(1, 2)]])
        Y = VertexPolytope([[1, 0], [0, 1]]) if kind == "vertices" else _simplex_h(2)
        res = minimax_value(MinimaxInstance([[1, -1], [-2, 3]], X, Y))
        assert len(calls) == 1
        assert res.value == F(1, 7)

    def test_saddle_value_random(self):
        rng = random.Random(99)
        for _ in range(60):
            xdim = rng.randint(1, 4)
            ydim = rng.randint(1, 4)
            B = [
                [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(xdim)]
                for _ in range(ydim)
            ]
            xverts = [
                [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(xdim)]
                for _ in range(rng.randint(1, 3))
            ]
            X = VertexPolytope(xverts)
            if rng.random() < 0.5:
                Y = _simplex_h(ydim)
            else:
                Y = VertexPolytope(
                    [
                        [F(1) if j == i else F(0) for j in range(ydim)]
                        for i in range(ydim)
                    ]
                )
            inst = MinimaxInstance(B, X, Y)
            res = minimax_value(inst)
            check_against_reference(inst, res)
            # (x*, y*) is a saddle point, so the payoff there is the value
            bx = [
                sum(B[i][j] * res.x_star[j] for j in range(xdim))
                for i in range(ydim)
            ]
            assert sum(res.y_star[i] * bx[i] for i in range(ydim)) == res.value
            # x* must be the stored mixture of X vertices
            mixed = [
                sum(res.x_weights[k] * xverts[k][j] for k in range(len(xverts)))
                for j in range(xdim)
            ]
            assert tuple(mixed) == res.x_star
