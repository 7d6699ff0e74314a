"""Reference exact simplex over ``fractions.Fraction``.

This is the dense two-phase Bland-rule tableau that ``robust_ftap.lp_core``
used before its integer (fraction-free) tableau.  It is kept only as the
slow reference path of the differential test: both engines start from the
same columns, artificials and row flips and choose the same pivots, so
every field of their solutions must agree exactly.

It also keeps the engine's former certificate checks, which work in
Fractions on the LP's constraints as given (``check_optimal``,
``check_infeasible``, ``check_unbounded``): the reference for the integer
checks on the scaled rows.  Like the engine, it takes an LP in standard
form, every variable >= 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from robust_ftap.errors import CertificateError
from robust_ftap.lp_core import EQ, GE, LE, LinearProgram, LpSolution

ZERO = Fraction(0)
ONE = Fraction(1)


class _Tableau:
    """Dense simplex tableau for min c.z, A z = b, z >= 0 over Fractions."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], ncols: int):
        self.A = rows
        self.b = rhs
        self.m = len(rows)
        self.ncols = ncols
        # artificial columns are ncols .. ncols+m-1, identity basis
        self.basis = [ncols + i for i in range(self.m)]
        for i in range(self.m):
            row = self.A[i]
            row.extend(ONE if j == i else ZERO for j in range(self.m))
        self.total = ncols + self.m

    def pivot(self, r: int, j: int, red: list[Fraction], const: list[Fraction]) -> None:
        A, b = self.A, self.b
        piv = A[r][j]
        inv = ONE / piv
        A[r] = [a * inv for a in A[r]]
        b[r] *= inv
        prow = A[r]
        for k in range(self.m):
            if k == r:
                continue
            f = A[k][j]
            if f:
                A[k] = [a - f * p for a, p in zip(A[k], prow)]
                b[k] -= f * b[r]
        f = red[j]
        if f:
            for c in range(self.total):
                red[c] -= f * prow[c]
            const[0] -= f * b[r]
        self.basis[r] = j

    def price(self, cost: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        # cost has length total; returns (reduced row, [objective constant])
        red = list(cost)
        const = [ZERO]
        for r, bv in enumerate(self.basis):
            f = red[bv]
            if f:
                prow = self.A[r]
                for c in range(self.total):
                    red[c] -= f * prow[c]
                const[0] -= f * self.b[r]
        return red, const

    def run(
        self,
        cost: list[Fraction],
        allow_enter: list[bool],
    ) -> tuple[str, list[Fraction], list[Fraction], Optional[int]]:
        """Bland-rule simplex; returns (status, reduced_row, const, entering).

        status "optimal" or "unbounded"; on "unbounded" `entering` is the
        column whose increase improves without bound.
        """
        red, const = self.price(cost)
        while True:
            enter = -1
            for j in range(self.total):
                if allow_enter[j] and red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", red, const, None
            leave = -1
            best: Optional[Fraction] = None
            for r in range(self.m):
                a = self.A[r][enter]
                if a > 0:
                    ratio = self.b[r] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded", red, const, enter
            self.pivot(leave, enter, red, const)


def reference_solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact two-phase simplex with Bland's rule and dual extraction."""
    n = lp.num_vars
    minimize = lp.sense == "min"
    c = [f if minimize else -f for f in lp.objective]

    rows = [(row.coeffs, row.relation, row.rhs) for row in lp.constraints]
    m = len(rows)

    # slack columns: one per inequality row, after the n variables
    slack_of_row: list[Optional[int]] = []
    nslack = 0
    for _, rel, _ in rows:
        if rel == EQ:
            slack_of_row.append(None)
        else:
            slack_of_row.append(n + nslack)
            nslack += 1
    ncols = n + nslack

    tab_rows: list[list[Fraction]] = []
    tab_rhs: list[Fraction] = []
    flip: list[int] = []
    for r, (coeffs, rel, b) in enumerate(rows):
        row = list(coeffs) + [ZERO] * nslack
        sc = slack_of_row[r]
        if sc is not None:
            row[sc] = ONE if rel == LE else -ONE
        if b < 0:
            row = [-a for a in row]
            b = -b
            flip.append(-1)
        else:
            flip.append(1)
        tab_rows.append(row)
        tab_rhs.append(b)

    tab = _Tableau(tab_rows, tab_rhs, ncols)
    total = tab.total

    # phase 1
    cost1 = [ZERO] * ncols + [ONE] * m
    allow = [True] * total
    status, red1, _const1, _ = tab.run(cost1, allow)
    _require(status == "optimal", "phase 1 reported an unbounded sum of artificials")
    phase1_value = sum(
        tab.b[r] for r in range(m) if tab.basis[r] >= ncols
    )
    if phase1_value > 0:
        # Farkas certificate: multipliers from phase-1 reduced costs of the
        # artificial columns, mapped back through the row flips.
        lam = [flip[i] * (ONE - red1[ncols + i]) for i in range(m)]
        return LpSolution(status="Infeasible", dual=tuple(lam))

    # drive artificials out of the basis where possible (zero-level pivots)
    red_dummy = [ZERO] * total
    const_dummy = [ZERO]
    for r in range(m):
        if tab.basis[r] >= ncols:
            for j in range(ncols):
                if tab.A[r][j]:
                    tab.pivot(r, j, red_dummy, const_dummy)
                    break

    # phase 2: artificial columns stay in the tableau (they carry the dual
    # multipliers) but may not enter
    cost2 = c + [ZERO] * (total - n)
    allow2 = [True] * ncols + [False] * m
    status, red2, const2, enter = tab.run(cost2, allow2)

    # the basic solution: feasible, and optimal unless a ray improves it
    x = [ZERO] * n
    for r, bv in enumerate(tab.basis):
        if bv < n:
            x[bv] = tab.b[r]

    if status == "unbounded":
        ray = [ZERO] * n
        if enter < n:
            ray[enter] = ONE
        for r in range(m):
            a = tab.A[r][enter]
            bv = tab.basis[r]
            if a and bv < n:
                ray[bv] = -a
        return LpSolution(status="Unbounded", primal=tuple(ray), point=tuple(x))

    # optimal: duals
    value_min = -const2[0]
    value = value_min if minimize else -value_min

    lam = [-red2[ncols + i] for i in range(m)]  # artificial cost 0 in phase 2
    lam = [flip[i] * lam[i] for i in range(m)]
    if not minimize:
        lam = [-v for v in lam]
    return LpSolution(status="Optimal", primal=tuple(x), dual=tuple(lam), value=value)


# ---------------------------------------------------------------------------
# reference certificate checks over Fractions
# ---------------------------------------------------------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificateError(what)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact dot product; zero terms are skipped, as Fraction products cost."""
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def _row_sums(lp: LinearProgram, y: Sequence[Fraction]) -> list[Fraction]:
    """sum_i y_i a_ij for each variable j."""
    out = [ZERO] * lp.num_vars
    for yi, row in zip(y, lp.constraints):
        if yi:
            for j, a in enumerate(row.coeffs):
                if a:
                    out[j] += yi * a
    return out


def _require_feasible(lp: LinearProgram, x: Sequence[Fraction]) -> None:
    """x satisfies every row of the LP and x >= 0."""
    for row in lp.constraints:
        lhs = _dot(row.coeffs, x)
        if row.relation == LE:
            _require(lhs <= row.rhs, "primal infeasible (<= row)")
        elif row.relation == GE:
            _require(lhs >= row.rhs, "primal infeasible (>= row)")
        else:
            _require(lhs == row.rhs, "primal infeasible (= row)")
    _require(all(xj >= 0 for xj in x), "primal has a negative entry")


def check_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of an Optimal solution against the original LP.

    Checks primal feasibility, dual sign conventions, the sign of each
    reduced cost c_j - y.A_j, and equality of primal and dual objectives;
    raises CertificateError on any exact violation.
    """
    _require(sol.status == "Optimal", f"status {sol.status!r} is not Optimal")
    x = sol.primal
    _require(
        len(x) == lp.num_vars and len(sol.dual) == len(lp.constraints),
        "solution vectors have the wrong length",
    )
    _require_feasible(lp, x)

    maximize = lp.sense == "max"
    # row multipliers: for max, y >= 0 on <= rows, y <= 0 on >= rows
    for y, row in zip(sol.dual, lp.constraints):
        if row.relation == LE:
            _require((y >= 0) if maximize else (y <= 0), "dual sign (<= row)")
        elif row.relation == GE:
            _require((y <= 0) if maximize else (y >= 0), "dual sign (>= row)")
    for cj, s in zip(lp.objective, _row_sums(lp, sol.dual)):
        _require((cj - s <= 0) if maximize else (cj - s >= 0), "reduced cost sign")

    dual_obj = _dot(sol.dual, [row.rhs for row in lp.constraints])
    primal_obj = _dot(lp.objective, x)
    _require(primal_obj == sol.value, "stored value differs from primal objective")
    _require(dual_obj == sol.value, "strong duality gap")


def check_infeasible(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a Farkas certificate of infeasibility.

    The multipliers are y = `sol.dual` on the rows, with y <= 0 on <= rows
    and y >= 0 on >= rows.  With g_j = sum_i y_i a_ij, every feasible x
    would have g.x >= y.b; the certificate requires g <= 0, so g.x <= 0 on
    x >= 0, and y.b > 0 contradicts it.  Raises CertificateError on any
    exact violation.
    """
    _require(sol.status == "Infeasible", f"status {sol.status!r} is not Infeasible")
    _require(len(sol.dual) == len(lp.constraints), "Farkas vector has the wrong length")
    for y, row in zip(sol.dual, lp.constraints):
        if row.relation == LE:
            _require(y <= 0, "Farkas sign (<= row)")
        elif row.relation == GE:
            _require(y >= 0, "Farkas sign (>= row)")
    bound = _dot(sol.dual, [row.rhs for row in lp.constraints])
    _require(
        all(gj <= 0 for gj in _row_sums(lp, sol.dual)),
        "Farkas combination has a positive entry",
    )
    _require(bound > 0, "Farkas combination is not contradictory")


def check_unbounded(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a feasible point x = `sol.point` and an
    improving ray d = `sol.primal`.

    x must satisfy every row of the LP and x >= 0, and d the homogeneous
    system (a.d <= 0, >= 0 or = 0 with the row's relation; d >= 0) and
    strictly improve the objective; x + s d is then feasible for every
    s >= 0, and the LP value is unbounded.  Raises CertificateError on any
    exact violation.
    """
    _require(sol.status == "Unbounded", f"status {sol.status!r} is not Unbounded")
    n = lp.num_vars
    d = sol.primal
    _require(len(d) == n, "ray has the wrong length")
    _require(len(sol.point) == n, "feasible point has the wrong length")
    _require_feasible(lp, sol.point)
    for row in lp.constraints:
        lhs = _dot(row.coeffs, d)
        if row.relation == LE:
            _require(lhs <= 0, "ray leaves a <= row")
        elif row.relation == GE:
            _require(lhs >= 0, "ray leaves a >= row")
        else:
            _require(lhs == 0, "ray leaves an = row")
    _require(all(dj >= 0 for dj in d), "ray has a negative entry")
    gain = _dot(lp.objective, d)
    _require(gain > 0 if lp.sense == "max" else gain < 0, "ray does not improve")
