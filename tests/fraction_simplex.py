"""Reference exact simplex over ``fractions.Fraction``.

This is the dense two-phase Bland-rule tableau that ``robust_ftap.lp_core``
used before its integer (fraction-free) tableau.  It is kept only as the
slow reference path of the differential test: both engines start from the
same columns, artificials and row flips and choose the same pivots, so
every field of their solutions must agree exactly.

It also keeps the engine's former certificate checks, which work in
Fractions on the LP's constraints as given (``check_optimal``,
``check_infeasible``, ``check_unbounded``): the reference for the integer
checks on the scaled rows.
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

    def reduced_costs(self, cost: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
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
        red, const = self.reduced_costs(cost)
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

    # A variable is nonnegative or free; a free one is split into u+ - u-.
    # Column map entries are (var, sign) pairs contributing sign * z_col to
    # x_var.
    cols: list[tuple[int, int]] = []
    for j in range(n):
        cols.append((j, 1))
        if lp.lower[j] is None:
            cols.append((j, -1))

    rows = [(row.coeffs, row.relation, row.rhs) for row in lp.constraints]
    m = len(rows)

    nz = len(cols)
    # slack columns: one per inequality row
    slack_of_row: list[Optional[int]] = []
    nslack = 0
    for _, rel, _ in rows:
        if rel == EQ:
            slack_of_row.append(None)
        else:
            slack_of_row.append(nz + nslack)
            nslack += 1
    ncols = nz + nslack

    tab_rows: list[list[Fraction]] = []
    tab_rhs: list[Fraction] = []
    flip: list[int] = []
    for r, (coeffs, rel, b) in enumerate(rows):
        row = [ZERO] * ncols
        for col, (j, s) in enumerate(cols):
            if coeffs[j]:
                row[col] = s * coeffs[j]
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
    assert status == "optimal"
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
    cost2 = [ZERO] * total
    for col, (j, s) in enumerate(cols):
        cost2[col] = s * c[j]
    allow2 = [True] * ncols + [False] * m
    status, red2, const2, enter = tab.run(cost2, allow2)

    # the basic solution: feasible, and optimal unless a ray improves it
    z = [ZERO] * total
    for r, bv in enumerate(tab.basis):
        z[bv] = tab.b[r]
    x = [ZERO] * n
    for col, (j, s) in enumerate(cols):
        x[j] += s * z[col]

    if status == "unbounded":
        assert enter is not None
        ray = [ZERO] * n
        if enter < nz:
            j, s = cols[enter]
            ray[j] += s
        for r in range(m):
            a = tab.A[r][enter]
            bv = tab.basis[r]
            if a and bv < nz:
                vj, vs = cols[bv]
                ray[vj] += vs * (-a)
        return LpSolution(status="Unbounded", primal=tuple(ray), point=tuple(x))

    # optimal: duals and reduced costs
    value_min = -const2[0]
    value = value_min if minimize else -value_min

    lam = [-red2[ncols + i] for i in range(m)]  # artificial cost 0 in phase 2
    lam = [flip[i] * lam[i] for i in range(m)]
    if not minimize:
        lam = [-v for v in lam]
    reduced = [ZERO] * n
    for j in range(n):
        r = lp.objective[j] - sum(
            lam[i] * rows[i][0][j] for i in range(m)
        )
        reduced[j] = r

    return LpSolution(
        status="Optimal",
        primal=tuple(x),
        dual=tuple(lam),
        value=value,
        reduced_costs=tuple(reduced),
    )


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
    """x satisfies every row and every sign of the LP."""
    for row in lp.constraints:
        lhs = _dot(row.coeffs, x)
        if row.relation == LE:
            _require(lhs <= row.rhs, "primal infeasible (<= row)")
        elif row.relation == GE:
            _require(lhs >= row.rhs, "primal infeasible (>= row)")
        else:
            _require(lhs == row.rhs, "primal infeasible (= row)")
    for j, xj in enumerate(x):
        if lp.lower[j] is not None:
            _require(xj >= 0, "primal below lower bound")


def check_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of an Optimal solution against the original LP.

    Checks primal feasibility, dual sign conventions, stationarity of the
    reduced costs, and equality of primal and dual objectives; raises
    CertificateError on any exact violation.
    """
    _require(sol.status == "Optimal", f"status {sol.status!r} is not Optimal")
    n = lp.num_vars
    x = sol.primal
    _require(
        len(x) == n
        and len(sol.dual) == len(lp.constraints)
        and len(sol.reduced_costs) == n,
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
    reduced = [cj - s for cj, s in zip(lp.objective, _row_sums(lp, sol.dual))]
    for j in range(n):
        r = reduced[j]
        _require(r == sol.reduced_costs[j], "stored reduced cost mismatch")
        if lp.lower[j] is None:
            _require(r == 0, "free variable has nonzero reduced cost")
        else:
            _require((r <= 0) if maximize else (r >= 0), "reduced cost sign")

    dual_obj = _dot(sol.dual, [row.rhs for row in lp.constraints])
    primal_obj = _dot(lp.objective, x)
    _require(primal_obj == sol.value, "stored value differs from primal objective")
    _require(dual_obj == sol.value, "strong duality gap")


def check_infeasible(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a Farkas certificate of infeasibility.

    The multipliers are y = `sol.dual` on the rows, with y <= 0 on <= rows
    and y >= 0 on >= rows.  With g_j = sum_i y_i a_ij, every feasible x
    would have g.x >= y.b; the certificate requires g_j = 0 for free
    variables and g_j <= 0 for nonnegative ones, so g.x <= 0, and y.b > 0
    contradicts it.  Raises CertificateError on any exact violation.
    """
    _require(sol.status == "Infeasible", f"status {sol.status!r} is not Infeasible")
    _require(len(sol.dual) == len(lp.constraints), "Farkas vector has the wrong length")
    for y, row in zip(sol.dual, lp.constraints):
        if row.relation == LE:
            _require(y <= 0, "Farkas sign (<= row)")
        elif row.relation == GE:
            _require(y >= 0, "Farkas sign (>= row)")
    bound = _dot(sol.dual, [row.rhs for row in lp.constraints])
    for j, gj in enumerate(_row_sums(lp, sol.dual)):
        if lp.lower[j] is None:
            _require(gj == 0, "Farkas combination nonzero on a free variable")
        else:
            _require(gj <= 0, "Farkas combination positive on a bounded variable")
    _require(bound > 0, "Farkas combination is not contradictory")


def check_unbounded(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a feasible point x = `sol.point` and an
    improving ray d = `sol.primal`.

    x must satisfy every row and sign of the LP, and d the homogeneous
    system (a.d <= 0, >= 0 or = 0 with the row's relation; d_j >= 0 for a
    nonnegative variable) and strictly improve the objective; x + s d is then
    feasible for every s >= 0, and the LP value is unbounded.  Raises
    CertificateError on any exact violation.
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
    for j in range(n):
        if lp.lower[j] is not None:
            _require(d[j] >= 0, "ray leaves a lower bound")
    gain = _dot(lp.objective, d)
    _require(gain > 0 if lp.sense == "max" else gain < 0, "ray does not improve")
