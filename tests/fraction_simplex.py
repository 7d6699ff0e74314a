"""Reference exact simplex over ``fractions.Fraction``.

This is the dense two-phase Bland-rule tableau that ``robust_ftap.lp_core``
used before its integer (fraction-free) tableau.  It is kept only as the
slow reference path of the differential test: both engines start from the
same columns, artificials and row flips and choose the same pivots, so
every field of their solutions must agree exactly.  The one addition is
that an Infeasible result also reports the Farkas multipliers of the
appended upper-bound rows, in ``upper_dual``, as the engine does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from robust_ftap.lp_core import EQ, LE, LinearProgram, LpSolution

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

    # Variable handling: a lower bound is shifted away (x = lo + u, u >= 0);
    # an unbounded-below variable is split into u+ - u-; an upper bound
    # becomes an appended constraint row.  Column map entries are
    # (var, sign) pairs contributing sign * z_col to x_var.
    col_of_var: list[list[tuple[int, int]]] = []
    shift = [ZERO] * n
    cols: list[tuple[int, int]] = []
    for j in range(n):
        if lp.lower[j] is not None:
            shift[j] = lp.lower[j]
            col_of_var.append([(len(cols), 1)])
            cols.append((j, 1))
        else:
            col_of_var.append([(len(cols), 1), (len(cols) + 1, -1)])
            cols.append((j, 1))
            cols.append((j, -1))

    rows: list[tuple[tuple[Fraction, ...], str, Fraction]] = [
        (row.coeffs, row.relation, row.rhs) for row in lp.constraints
    ]
    upper_rows: list[int] = []  # variable index per appended upper row
    for j in range(n):
        if lp.upper[j] is not None:
            unit = tuple(ONE if k == j else ZERO for k in range(n))
            rows.append((unit, LE, lp.upper[j]))
            upper_rows.append(j)
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
    for r, (coeffs, rel, rhs) in enumerate(rows):
        row = [ZERO] * ncols
        for col, (j, s) in enumerate(cols):
            if coeffs[j]:
                row[col] = s * coeffs[j]
        sc = slack_of_row[r]
        if sc is not None:
            row[sc] = ONE if rel == LE else -ONE
        b = rhs - sum(coeffs[j] * shift[j] for j in range(n))
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
        upper_farkas = [ZERO] * n
        for k, j in enumerate(upper_rows):
            upper_farkas[j] = lam[len(lp.constraints) + k]
        return LpSolution(
            status="Infeasible",
            dual=tuple(lam[: len(lp.constraints)]),
            upper_dual=tuple(upper_farkas),
        )

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
    x = list(shift)
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
    obj_shift = sum(c[j] * shift[j] for j in range(n))
    value_min = -const2[0] + obj_shift
    value = value_min if minimize else -value_min

    lam = [-red2[ncols + i] for i in range(m)]  # artificial cost 0 in phase 2
    lam = [flip[i] * lam[i] for i in range(m)]
    if not minimize:
        lam = [-v for v in lam]
    dual = tuple(lam[: len(lp.constraints)])
    upper_dual_full = [ZERO] * n
    for k, j in enumerate(upper_rows):
        upper_dual_full[j] = lam[len(lp.constraints) + k]

    reduced = [ZERO] * n
    for j in range(n):
        r = lp.objective[j] - sum(
            lam[i] * rows[i][0][j] for i in range(m)
        )
        reduced[j] = r

    return LpSolution(
        status="Optimal",
        primal=tuple(x),
        dual=dual,
        value=value,
        reduced_costs=tuple(reduced),
        upper_dual=tuple(upper_dual_full),
    )
