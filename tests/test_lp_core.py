"""Exact simplex core: strong duality, degeneracy, vertex enumeration,
and the bilinear minimax exchange."""

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest

from robust_ftap.errors import CertificateError, DimensionMismatch, EmptyPolytope
from robust_ftap.lp_core import (
    Constraint,
    EQ,
    GE,
    HPolytope,
    LE,
    LinearProgram,
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

F = Fraction


class TestSolveLp:
    def test_single_variable_bound(self):
        lp = LinearProgram([1], "max", [Constraint([1], LE, 3)], lower=[0])
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == 3

    def test_infeasible(self):
        lp = LinearProgram(
            [1], "max", [Constraint([1], GE, 1), Constraint([1], LE, 0)]
        )
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        check_infeasible(lp, sol)
        # the multipliers combine x >= 1 and x <= 0 into 0 >= 1
        assert sol.dual[0] > 0 and sol.dual[1] < 0

    def test_infeasible_through_upper_bound(self):
        # x >= 2 against the bound x <= 1: the Farkas vector needs the
        # multiplier of the upper-bound row, reported in upper_dual
        lp = LinearProgram([1], "min", [Constraint([1], GE, 2)], upper=[1])
        sol = solve_lp(lp)
        assert sol.status == "Infeasible"
        assert sol.upper_dual[0] < 0
        check_infeasible(lp, sol)
        with pytest.raises(CertificateError):
            check_infeasible(lp, replace(sol, upper_dual=(F(0),)))

    def test_martingale_mass(self):
        # min q_u subject to q_u + q_d = 1, q_u - q_d/2 = 0, q >= 0
        lp = LinearProgram(
            [1, 0],
            "min",
            [
                Constraint([1, 1], EQ, 1),
                Constraint([1, F(-1, 2)], EQ, 0),
            ],
            lower=[0, 0],
        )
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == F(1, 3)
        assert sol.primal == (F(1, 3), F(2, 3))

    def test_unbounded(self):
        lp = LinearProgram([1], "max", [Constraint([1], GE, 0)])
        sol = solve_lp(lp)
        assert sol.status == "Unbounded"
        # the returned ray improves the objective and preserves feasibility
        ray = sol.primal
        assert sum(c * r for c, r in zip([F(1)], ray)) > 0
        check_unbounded(lp, sol)
        with pytest.raises(CertificateError, match="improve"):
            check_unbounded(lp, replace(sol, primal=(F(0),)))
        with pytest.raises(CertificateError, match=">= row"):
            check_unbounded(lp, replace(sol, primal=(F(-1),)))

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
            lower=[0, 0, 0, 0],
        )
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        assert sol.value == F(-1, 20)
        check_optimal(lp, sol)

    def test_free_variables_and_equalities(self):
        # min x subject to x + h >= 1, x - h/2 >= 0 (superhedging shape)
        lp = LinearProgram(
            [1, 0],
            "min",
            [Constraint([1, 1], GE, 1), Constraint([1, F(-1, 2)], GE, 0)],
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
    lower, upper = [], []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            lower.append(F(0))
            upper.append(None)
        elif kind == 1:
            lower.append(F(-1))
            upper.append(F(1))
        else:
            lower.append(None)
            upper.append(None)
    return LinearProgram(obj, sense, cons, lower=lower, upper=upper)


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
            lp = LinearProgram(
                c,
                "max",
                [Constraint(row, LE, rhs)],
                lower=[-1] * n,
                upper=[1] * n,
            )
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
    LP = LinearProgram([1], "max", [Constraint([1], LE, 3)], lower=[0])

    def test_rejects_infeasible_primal(self):
        sol = solve_lp(self.LP)
        with pytest.raises(CertificateError, match="primal infeasible"):
            check_optimal(self.LP, replace(sol, primal=(F(4),), value=F(4)))

    def test_rejects_wrong_status(self):
        sol = solve_lp(self.LP)
        for check in (check_infeasible, check_unbounded):
            with pytest.raises(CertificateError, match="status"):
                check(self.LP, sol)

    def test_rejects_forged_farkas_vectors(self):
        rng = random.Random(77)
        checked = 0
        while checked < 50:
            lp = _random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "Infeasible":
                continue
            checked += 1
            negated = replace(
                sol,
                dual=tuple(-y for y in sol.dual),
                upper_dual=tuple(-u for u in sol.upper_dual),
            )
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
            lp = LinearProgram([1], "max", [Constraint([1], LE, 3)], lower=[0])
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
                AmbiguitySet, ProbabilityMeasure, SampleSpace)
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
            "check_na rejected: the boxed arbitrage LP at u is Unbounded",
        ]


class TestLinearAlgebra:
    def test_solve_square(self):
        assert solve_square([[F(2), F(0)], [F(0), F(4)]], [F(1), F(1)]) == [
            F(1, 2),
            F(1, 4),
        ]
        assert solve_square([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None

    def test_matrix_rank(self):
        assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2

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
        res = minimax_value(MinimaxInstance(B, X, Y))
        assert res.value == 0

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
            res = minimax_value(MinimaxInstance(B, X, VertexPolytope(yverts)))
            bx = [sum(B[i][j] * x0[j] for j in range(n)) for i in range(n)]
            expected = min(
                sum(v[i] * bx[i] for i in range(n)) for v in yverts
            )
            assert res.value == expected

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
        res = minimax_value(MinimaxInstance([[1, 0], [0, 1]], X, HPolytope(2, cons)))
        assert res.value == F(1, 2)
        assert res.y_star == (F(1, 2), F(1, 2))

    def test_empty_y_raises(self):
        X = VertexPolytope([[1]])
        cons = [Constraint([1], GE, 1), Constraint([1], LE, 0)]
        with pytest.raises(EmptyPolytope):
            minimax_value(MinimaxInstance([[1]], X, HPolytope(1, cons)))

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
            res = minimax_value(MinimaxInstance(B, X, Y))
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
