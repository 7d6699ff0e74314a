"""Exact-rational linear programming with primal/dual certificates.

A two-phase simplex with Bland's anti-cycling rule on an integer tableau:
rows are Python ints over a positive factor per row, and pivots are
fraction-free row operations reduced by the gcd (Edmonds 1967, Bareiss
1968).  Values become `fractions.Fraction`s at one boundary,
`measures.rational`, when a `Constraint` or `LinearProgram` is built (a
Fraction is kept as it is).  The `LinearProgram` then scales its rows and
objective to integers once, and the solution is read off the integer
tableau, so past that boundary the solver works in ints and builds
Fractions only for the `LpSolution`.  Optimal solutions come back with
dual multipliers whose objective equals the primal objective as a
rational, with no tolerance; infeasible ones with Farkas multipliers and
unbounded ones with a feasible point and an improving ray.  Each outcome
is checked exactly before it is returned (`check_optimal`,
`check_infeasible`, `check_unbounded`; a failed check raises
CertificateError), in integers on the LP's scaled rows and never on the
tableau, each solution vector over its common denominator.  Variables
are free or bounded below; an upper bound is an ordinary `<=` row, so
every multiplier is a row's.

Beside the solver, `enumerate_basic_feasible` lists the vertices of
{q >= 0 : A q = b} on the same integer pivots: a depth-first walk over
the column subsets, each prefix of a basis pivoted once and shared by
every basis that extends it, the last column solved in closed form.

`minimax_value`, a bilinear minimax over a vertex-polytope / polytope pair
solved as one LP (its primal the sup-inf order, its checked dual the
inf-sup order), is called by no library module: it stays as the reference
of the game differential test (`tests/hs_game_lp.py`), and the benchmark's
tracer (`bench/tracing.py`) wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .claims import EQ, GE, LE, RELATIONS
from .errors import CertificateError, DimensionMismatch, EmptyPolytope
from .measures import ONE, ZERO, rational, scaled

_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __init__(self, coeffs: Iterable, relation: str, rhs):
        if relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")
        object.__setattr__(self, "coeffs", tuple(map(rational, coeffs)))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rational(rhs))


@dataclass(frozen=True)
class LinearProgram:
    """General-form LP: optimize c.x subject to rows and per-variable lower
    bounds.  A variable with no lower bound is free; an upper bound is a
    `<=` row like any other.

    Its scaled rows, which the solver and the checks read, are built with
    it: `_rows` holds (a, relation, b, s) per constraint, its coefficients
    and rhs times s > 0, the lcm of their denominators.  A positive scale
    keeps the relation, and a row's multiplier is s times that of its
    scaled row.  `_cost` and `_lower` are the objective and the lower
    bounds (0 for a free variable) in the same form, as (integers, scale).
    """

    objective: tuple[Fraction, ...]
    sense: str  # "max" | "min"
    constraints: tuple[Constraint, ...]
    lower: tuple[Optional[Fraction], ...]
    _rows: tuple = field(init=False, repr=False, compare=False)
    _cost: tuple[list[int], int] = field(init=False, repr=False, compare=False)
    _lower: tuple[list[int], int] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        objective: Iterable,
        sense: str,
        constraints: Sequence[Constraint],
        lower: Optional[Sequence] = None,
    ):
        objective = tuple(map(rational, objective))
        n = len(objective)
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        constraints = tuple(constraints)
        for row in constraints:
            if len(row.coeffs) != n:
                raise DimensionMismatch(
                    f"constraint has {len(row.coeffs)} coefficients, expected {n}"
                )
        lo = tuple(
            None if b is None else rational(b)
            for b in (lower if lower is not None else [None] * n)
        )
        if len(lo) != n:
            raise DimensionMismatch("one bound entry per variable required")
        rows = []
        for row in constraints:
            a, s = scaled(row.coeffs + (row.rhs,))
            rows.append((a[:n], row.relation, a[n], s))
        for name, value in (
            ("objective", objective), ("sense", sense), ("constraints", constraints),
            ("lower", lo), ("_rows", tuple(rows)),
            ("_cost", scaled(objective)), ("_lower", scaled([b or ZERO for b in lo])),
        ):
            object.__setattr__(self, name, value)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def upper(self) -> tuple[None, ...]:
        # no variable has an upper bound; kept for bench/tracing.py's bounded_vars
        return (None,) * len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """Solver output.

    For Optimal: `primal` is a feasible point, `dual` holds one multiplier
    per constraint row, `reduced_costs` one per variable (zero for free
    variables), and primal and dual objectives agree exactly in `value`.
    For Infeasible, `dual` carries the Farkas multipliers of the rows (see
    `check_infeasible`); for Unbounded, `point` is a feasible point and
    `primal` an improving ray (see `check_unbounded`).
    """

    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    primal: tuple[Fraction, ...] = ()
    dual: tuple[Fraction, ...] = ()
    value: Optional[Fraction] = None
    reduced_costs: tuple[Fraction, ...] = ()
    point: tuple[Fraction, ...] = ()


# ---------------------------------------------------------------------------
# fraction-free integer elimination
# ---------------------------------------------------------------------------


def _int_row(values: Sequence) -> list[int]:
    """The rational row `values` times a positive factor that makes every
    entry an integer with no common divisor (ints are accepted too)."""
    row, _ = scaled(values)
    g = reduce(gcd, row, 0)
    return [a // g for a in row] if g > 1 else row


def _pivot(rows: list[list[int]], r: int, j: int) -> None:
    """Fraction-free pivot of integer rows on entry (r, j).

    Every row stands for a positive multiple of a rational row.  Row r is
    negated if its entry at j is negative; every other row k with a nonzero
    entry at j becomes ``k * rows[r][j] - k[j] * rows[r]``, divided by the
    gcd of its entries.  That is a positive multiple of the rational row
    operation that clears column j, so the pivot sequence and every ratio
    are those of the same elimination over Fractions.
    """
    prow = rows[r]
    p = prow[j]
    if p < 0:
        prow = rows[r] = [-a for a in prow]
        p = -p
    for k, row in enumerate(rows):
        f = row[j]
        if f and k != r:
            new = [a * p - f * b for a, b in zip(row, prow)]
            g = reduce(gcd, new, 0)
            rows[k] = [a // g for a in new] if g > 1 else new


def _row_reduce(rows: list[list[int]], ncols: int) -> int:
    """Gauss-Jordan elimination in place over the first `ncols` columns of
    integer rows; returns the rank.  Pivot columns are taken left to right
    and the pivot row is the first remaining row with a nonzero entry;
    rows at and beyond the rank end up zero in those columns."""
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        _pivot(rows, rank, col)
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


class _Tableau:
    """Dense simplex tableau for min c.z, A z = b, z >= 0 in Python ints.

    Row i of the input is ``[A_i, s_i e_i, b_i, 0]`` in integers: s_i > 0
    times the rational row ``[A_i, e_i, b_i, 0]``, where artificial column
    ncols + i starts in the basis of row i.  Every stored row stays a
    positive multiple of its rational row, the multiple being its entry in
    the column of its basic variable, where the rational row has a 1.
    After the m constraint rows comes the reduced-cost row
    ``[red, -value, z]``, whose last entry z > 0 is its factor (the column
    of the objective variable).  The ratio of two entries of one row never
    needs the factor.
    """

    def __init__(self, rows: list[list[int]], ncols: int):
        self.m = len(rows)
        self.total = ncols + self.m
        self.basis = [ncols + i for i in range(self.m)]
        self.rows = rows + [[0] * (self.total + 2)]  # reduced costs: see price()

    def pivot(self, r: int, j: int) -> None:
        """Column j enters the basis in row r."""
        _pivot(self.rows, r, j)
        self.basis[r] = j

    def price(self, cost: list[int], scale: int = 1) -> None:
        """Install the reduced-cost row of the rational costs `cost` / `scale`
        (one integer per column): pivoting again on each basic position
        clears the basic columns from it and leaves the constraint rows as
        they are."""
        self.rows[self.m] = cost + [0, scale]
        for r, bv in enumerate(self.basis):
            _pivot(self.rows, r, bv)

    def run(self, allow_enter: list[bool]) -> Optional[int]:
        """Bland-rule simplex on the installed costs.

        Returns None at an optimum, or the entering column whose increase
        improves the objective without bound.
        """
        rows, basis, m, b = self.rows, self.basis, self.m, self.total
        while True:
            obj = rows[m]
            enter = next(
                (j for j in range(self.total) if allow_enter[j] and obj[j] < 0), -1
            )
            if enter < 0:
                return None
            # least ratio b_r / a_r over a_r > 0, compared by cross-multiplying
            # (the positive row factors cancel); ties go to the least basic index
            leave = -1
            for r in range(m):
                a = rows[r][enter]
                if a > 0:
                    if leave < 0:
                        leave = r
                        continue
                    lhs = rows[r][b] * rows[leave][enter]
                    rhs = rows[leave][b] * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave = r
            if leave < 0:
                return enter
            self.pivot(leave, enter)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact two-phase simplex with Bland's rule and dual extraction.

    Every result is checked before it is returned: `check_optimal`,
    `check_infeasible` or `check_unbounded` raises CertificateError if the
    solution does not prove its status.
    """
    n = lp.num_vars
    sign = 1 if lp.sense == "min" else -1  # the solver minimizes sign * c.x
    (low, lden), (cost, cscale) = lp._lower, lp._cost

    # Variable handling: a lower bound is shifted away (x = lo + u, u >= 0);
    # an unbounded-below variable is split into u+ - u-.  Column map entries
    # are (var, sign) pairs contributing sign * z_col to x_var.
    cols: list[tuple[int, int]] = []
    for j in range(n):
        cols.append((j, 1))
        if lp.lower[j] is None:
            cols.append((j, -1))
    rows = lp._rows
    m = len(rows)

    nz = len(cols)
    # slack columns: one per inequality row
    slack: dict[int, int] = {}
    for r, (_, rel, _, _) in enumerate(rows):
        if rel != EQ:
            slack[r] = nz + len(slack)
    ncols = nz + len(slack)

    tab_rows: list[list[int]] = []
    flip: list[int] = []
    for r, (a, rel, b, s) in enumerate(rows):
        row = [cs * a[j] for j, cs in cols] + [0] * len(slack)
        if r in slack:
            row[slack[r]] = s if rel == LE else -s
        # the rhs shifted by the lower bounds, (b lden - a.low) / lden; a row
        # whose shifted rhs is fractional is scaled once more, by t
        shifted = b * lden - _idot(a, low)
        g = gcd(shifted, lden)
        t = lden // g
        flip.append(-1 if shifted < 0 else 1)
        tab_rows.append(
            [flip[r] * t * v for v in row]
            + [t * s if k == r else 0 for k in range(m)]
            + [abs(shifted) // g, 0]
        )

    tab = _Tableau(tab_rows, ncols)
    total = tab.total

    # phase 1
    tab.price([0] * ncols + [1] * m)
    if tab.run([True] * total) is not None:
        raise CertificateError("phase 1 reported an unbounded sum of artificials")
    # the artificials are nonnegative, so the phase-1 value is positive
    # exactly when one of them is basic at a positive level
    if any(tab.basis[r] >= ncols and tab.rows[r][total] for r in range(m)):
        # Farkas certificate: multipliers from phase-1 reduced costs of the
        # artificial columns, mapped back through the row flips.
        obj, z = tab.rows[m], tab.rows[m][-1]
        dual = tuple(Fraction(flip[i] * (z - obj[ncols + i]), z) for i in range(m))
        sol = LpSolution(status="Infeasible", dual=dual)
        check_infeasible(lp, sol)
        return sol

    # drive artificials out of the basis where possible (zero-level pivots)
    for r in range(m):
        if tab.basis[r] >= ncols:
            for j in range(ncols):
                if tab.rows[r][j]:
                    tab.pivot(r, j)
                    break

    # phase 2: artificial columns stay in the tableau (they carry the dual
    # multipliers) but may not enter
    tab.price([sign * cs * cost[j] for j, cs in cols] + [0] * (total - nz), cscale)
    enter = tab.run([True] * ncols + [False] * m)

    # the basic solution, feasible since phase 1 and kept feasible by phase 2
    x = [lo or ZERO for lo in lp.lower]
    for r, bv in enumerate(tab.basis):
        if bv < nz and tab.rows[r][total]:
            j, cs = cols[bv]
            v = Fraction(cs * tab.rows[r][total], tab.rows[r][bv])
            x[j] = v + x[j] if x[j] else v

    if enter is not None:
        ray = [ZERO] * n
        if enter < nz:
            j, cs = cols[enter]
            ray[j] += cs
        for r in range(m):
            bv = tab.basis[r]
            if tab.rows[r][enter] and bv < nz:
                vj, vs = cols[bv]
                ray[vj] -= Fraction(vs * tab.rows[r][enter], tab.rows[r][bv])
        sol = LpSolution(status="Unbounded", primal=tuple(ray), point=tuple(x))
        check_unbounded(lp, sol)
        return sol

    # optimal: everything over the objective row's factor z.  The dual of
    # row i is minus its artificial's reduced cost (cost 0 in phase 2)
    # through the flip, and a variable's reduced cost is that of its first
    # column; both are negated for max.
    obj, z = tab.rows[m], tab.rows[m][-1]
    dual = tuple(Fraction(-sign * flip[i] * obj[ncols + i], z) for i in range(m))
    value = z * _idot(cost, low) - sign * obj[total] * cscale * lden
    sol = LpSolution(
        status="Optimal",
        primal=tuple(x),
        dual=dual,
        value=Fraction(value, z * cscale * lden),
        reduced_costs=tuple(
            Fraction(sign * obj[col], z) for col, (_, cs) in enumerate(cols) if cs > 0
        ),
    )
    check_optimal(lp, sol)
    return sol


# ---------------------------------------------------------------------------
# certificate checks, in integers on the LP's scaled rows
# ---------------------------------------------------------------------------


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificateError(what)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact dot product; zero terms are skipped, as Fraction products cost."""
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v) if a)


def _require_feasible(lp: LinearProgram, x: Sequence) -> tuple[list[int], int]:
    """x = X / D satisfies every row and bound of the LP; returns X and D."""
    X, D = scaled(x)
    for a, rel, b, _ in lp._rows:
        _require(RELATIONS[rel](_idot(a, X), b * D), f"primal infeasible ({rel} row)")
    low, lden = lp._lower
    for xj, lo, bound in zip(X, low, lp.lower):
        if bound is not None:
            _require(xj * lden >= lo * D, "primal below lower bound")
    return X, D


def _multipliers(
    lp: LinearProgram, y: Sequence, *extra: Sequence
) -> tuple[list[int], list[int], int]:
    """The multipliers y of the rows and the vectors `extra` over one
    denominator E > 0.

    Returns W with W_i = E y_i / s_i for the LP's scaled rows (so W.a = E
    times the rational combination), E times the `extra` entries, and E.
    """
    num, d = scaled(list(y) + [v for vec in extra for v in vec])
    scale = reduce(lcm, [s for *_, s in lp._rows], 1)
    W = [w * (scale // s) for w, (*_, s) in zip(num, lp._rows)]
    return W, [v * scale for v in num[len(y):]], d * scale


def _combination(lp: LinearProgram, W: Sequence[int]) -> list[int]:
    """sum_i W_i a_ij over the LP's scaled rows, for each variable j."""
    out = [0] * lp.num_vars
    for w, (a, *_) in zip(W, lp._rows):
        if w:
            out = [o + w * aj for o, aj in zip(out, a)]
    return out


def check_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of an Optimal solution against the original LP.

    Checks primal feasibility, dual sign conventions, stationarity of the
    reduced costs, and equality of primal and dual objectives; raises
    CertificateError on any exact violation.  With the multipliers and
    reduced costs over one denominator E (see `_multipliers`) and the
    objective c = `_cost` / s_c, stationarity c - y.A = r reads
    c_j E = s_c (G_j + R_j) in integers, with G = W.a.
    """
    _require(sol.status == "Optimal", f"status {sol.status!r} is not Optimal")
    n = lp.num_vars
    _require(
        len(sol.primal) == n
        and len(sol.dual) == len(lp.constraints)
        and len(sol.reduced_costs) == n
        and sol.value is not None,
        "solution vectors have the wrong length",
    )
    X, D = _require_feasible(lp, sol.primal)

    maximize = lp.sense == "max"
    # for max, y >= 0 on <= rows, y <= 0 on >= rows
    W, R, E = _multipliers(lp, sol.dual, sol.reduced_costs)
    for w, (_, rel, _, _) in zip(W, lp._rows):
        if rel != EQ:
            nonneg = maximize == (rel == LE)
            _require(w >= 0 if nonneg else w <= 0, f"dual sign ({rel} row)")
    (cost, sc), (low, lden) = lp._cost, lp._lower
    for cj, gj, rj, lo in zip(cost, _combination(lp, W), R, lp.lower):
        _require(cj * E == sc * (gj + rj), "stored reduced cost mismatch")
        if lo is None:
            _require(rj == 0, "free variable has nonzero reduced cost")
        else:
            _require((rj <= 0) if maximize else (rj >= 0), "reduced cost sign")

    # y.b + r.lo, over E * lden
    dual_obj = lden * _idot(W, [b for _, _, b, _ in lp._rows]) + _idot(R, low)
    vn, vd = sol.value.numerator, sol.value.denominator
    _require(
        vd * _idot(cost, X) == vn * sc * D, "stored value differs from primal objective"
    )
    _require(vd * dual_obj == vn * E * lden, "strong duality gap")


def check_infeasible(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a Farkas certificate of infeasibility.

    The multipliers are y = `sol.dual` on the rows, with y <= 0 on <= rows
    and y >= 0 on >= rows.  With g_j = sum_i y_i a_ij, every feasible x
    would have g.x >= y.b; the certificate requires g_j = 0 for free
    variables and g_j <= 0 for variables with a lower bound l_j, so
    g.x <= sum g_j l_j, and y.b - sum g_j l_j > 0 makes the two bounds
    contradict.  Raises CertificateError on any exact violation.
    """
    _require(sol.status == "Infeasible", f"status {sol.status!r} is not Infeasible")
    _require(len(sol.dual) == len(lp.constraints), "Farkas vector has the wrong length")
    W, _, _ = _multipliers(lp, sol.dual)
    for w, (_, rel, _, _) in zip(W, lp._rows):
        if rel != EQ:
            _require((w <= 0) if rel == LE else (w >= 0), f"Farkas sign ({rel} row)")
    # y.b - g.l, over E * lden
    low, lden = lp._lower
    bound = lden * _idot(W, [b for _, _, b, _ in lp._rows])
    for gj, lo, bound_j in zip(_combination(lp, W), low, lp.lower):
        if bound_j is None:
            _require(gj == 0, "Farkas combination nonzero on a free variable")
        else:
            _require(gj <= 0, "Farkas combination positive on a bounded variable")
            bound -= gj * lo
    _require(bound > 0, "Farkas combination is not contradictory")


def check_unbounded(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a feasible point x = `sol.point` and an
    improving ray d = `sol.primal`.

    x must satisfy every row and bound of the LP, and d the homogeneous
    system (a.d <= 0, >= 0 or = 0 with the row's relation; d_j >= 0 under
    a lower bound) and strictly improve the objective; x + s d is then
    feasible for every s >= 0, and the LP value is unbounded.  Raises
    CertificateError on any exact violation.
    """
    _require(sol.status == "Unbounded", f"status {sol.status!r} is not Unbounded")
    n = lp.num_vars
    _require(len(sol.primal) == n, "ray has the wrong length")
    _require(len(sol.point) == n, "feasible point has the wrong length")
    _require_feasible(lp, sol.point)
    d, _ = scaled(sol.primal)
    for a, rel, _, _ in lp._rows:
        _require(RELATIONS[rel](_idot(a, d), 0), f"ray leaves a {rel} row")
    for dj, lo in zip(d, lp.lower):
        if lo is not None:
            _require(dj >= 0, "ray leaves a lower bound")
    gain = _idot(lp._cost[0], d)
    _require(gain > 0 if lp.sense == "max" else gain < 0, "ray does not improve")


# ---------------------------------------------------------------------------
# rational linear algebra helpers
# ---------------------------------------------------------------------------


def _shape(matrix: Sequence[Sequence], rhs: Optional[Sequence] = None) -> int:
    """The common length of the rows of `matrix`; raises DimensionMismatch
    when there is no row, when the rows differ in length, or when `rhs`
    does not hold one entry per row."""
    if not matrix:
        raise DimensionMismatch("the matrix has no rows")
    n = len(matrix[0])
    if any(len(row) != n for row in matrix):
        raise DimensionMismatch("the rows of the matrix differ in length")
    if rhs is not None and len(rhs) != len(matrix):
        raise DimensionMismatch(f"{len(rhs)} right-hand sides for {len(matrix)} rows")
    return n


# no library caller; read by tests/fraction_sums.py and wrapped by bench/tracing.py
def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """The nonnegative solution of a square rational system, by
    fraction-free elimination.

    Returns None when the matrix is singular or the solution has a negative
    entry; the sign test runs on the reduced integer rows, before any
    Fraction is built.  A matrix that is empty, ragged or not square, or a
    rhs of another length, raises DimensionMismatch.
    """
    n = _shape(matrix, rhs)
    if n != len(matrix):
        raise DimensionMismatch(f"the matrix is {len(matrix)} x {n}, not square")
    rows = [_int_row(list(row) + [b]) for row, b in zip(matrix, rhs)]
    if _row_reduce(rows, n) < n:
        return None
    if any(row[n] * row[i] < 0 for i, row in enumerate(rows)):
        return None
    return [Fraction(row[n], row[i]) for i, row in enumerate(rows)]


def matrix_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """The rank of a rational matrix (0 for no rows); ragged rows raise
    DimensionMismatch."""
    if not matrix:
        return 0
    n = _shape(matrix)
    return _row_reduce([_int_row(r) for r in matrix], n)


def enumerate_basic_feasible(
    eq_rows: Sequence[Sequence[Fraction]], eq_rhs: Sequence[Fraction]
) -> list[tuple[Fraction, ...]]:
    """Vertices of {q >= 0 : A q = b}, one per feasible basis.

    Desk-scale method.  The rows are made integers and reduced to `rank`
    independent ones; then the column subsets of size rank are walked depth
    first, in `itertools.combinations` order.  Each prefix of a basis is
    pivoted once, on a copy of the rows, and every basis that extends it
    shares that work.  A column with no nonzero entry in the rows the prefix
    left is a combination of the prefix columns, so no basis through prefix
    and column is tried.  The last column is solved in closed form and its
    signs are tested in integers; a feasible basis is keyed by the reduced
    integers of its entries, and only a new vertex builds Fractions.  A
    vertex is listed at the first basis that yields it.  No rows, ragged
    rows or a rhs of another length raise DimensionMismatch.
    """
    nvars = _shape(eq_rows, eq_rhs)
    # reduce to an independent subset of rows; bail out if inconsistent
    work = [_int_row(list(row) + [b]) for row, b in zip(eq_rows, eq_rhs)]
    rank = _row_reduce(work, nvars)
    if any(row[nvars] for row in work[rank:]):
        return []
    if rank == 0:
        return [tuple([ZERO] * nvars)]
    last = rank - 1

    # a vertex is keyed by the integers (j, numerator, denominator) of its
    # nonzero entries: hashing a Fraction costs a modular inverse
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    out: list[tuple[Fraction, ...]] = []

    def leaves(rows: list[list[int]], basis: list[int], start: int) -> None:
        # the prefix `basis` sits in rows 0..last-1, each with a positive
        # entry at its column and zeros at the others; row `last` is left.
        # With a = row_last[j] > 0 and b its rhs, x_j = b / a and
        # x_{b_i} = (b_i a - row_i[j] b) / (row_i[b_i] a).
        final = rows[last]
        prefix = rows[:last]
        for j in range(start, nvars):
            a, b = final[j], final[nvars]
            if not a:
                continue
            if a < 0:
                a, b = -a, -b
            if b < 0:
                continue
            nums = [row[nvars] * a - row[j] * b for row in prefix]
            if any(v < 0 for v in nums):
                continue
            key = []
            for col, v, row in zip(basis, nums, prefix):
                if v:
                    d = row[col] * a
                    g = gcd(v, d)
                    key.append((col, v // g, d // g))
            if b:
                g = gcd(b, a)
                key.append((j, b // g, a // g))
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                q = [ZERO] * nvars
                for col, num, den in key:
                    q[col] = Fraction(num, den)
                out.append(tuple(q))

    def walk(rows: list[list[int]], basis: list[int], start: int) -> None:
        k = len(basis)
        if k == last:
            leaves(rows, basis, start)
            return
        for j in range(start, nvars - last + k):
            r = next((r for r in range(k, rank) if rows[r][j]), None)
            if r is None:
                continue
            # _pivot rebinds the rows it changes, so a shallow copy is enough
            pivoted = rows[:]
            pivoted[k], pivoted[r] = pivoted[r], pivoted[k]
            _pivot(pivoted, k, j)
            walk(pivoted, basis + [j], j + 1)

    walk(work[:rank], [], 0)
    return out


# ---------------------------------------------------------------------------
# bilinear minimax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexPolytope:
    vertices: tuple[tuple[Fraction, ...], ...]

    def __init__(self, vertices: Iterable[Iterable]):
        vs = tuple(tuple(map(rational, vert)) for vert in vertices)
        if any(len(v) != len(vs[0]) for v in vs):
            raise DimensionMismatch("the vertices differ in dimension")
        object.__setattr__(self, "vertices", vs)

    @property
    def dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0


@dataclass(frozen=True)
class HPolytope:
    """Polytope over free variables given purely by constraint rows."""

    dim: int
    constraints: tuple[Constraint, ...]

    def __init__(self, dim: int, constraints: Sequence[Constraint]):
        constraints = tuple(constraints)
        for row in constraints:
            if len(row.coeffs) != dim:
                raise DimensionMismatch("constraint dimension mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constraints", constraints)


@dataclass(frozen=True)
class MinimaxInstance:
    """Bilinear game f(x, y) = y . B x over x in X (vertices), y in Y."""

    payoff: tuple[tuple[Fraction, ...], ...]
    X: VertexPolytope
    Y: object  # VertexPolytope | HPolytope

    def __init__(self, payoff: Iterable[Iterable], X: VertexPolytope, Y):
        B = tuple(tuple(map(rational, row)) for row in payoff)
        object.__setattr__(self, "payoff", B)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)


@dataclass(frozen=True)
class MinimaxResult:
    value: Fraction
    x_star: tuple[Fraction, ...]
    x_weights: tuple[Fraction, ...]
    y_star: tuple[Fraction, ...]


def minimax_value(inst: MinimaxInstance) -> MinimaxResult:
    """Common value of sup_x inf_y and inf_y sup_x of y.Bx, from one LP.

    The LP is the sup-inf order with the inner inf over Y dualized:
    max sum_r mu_r b_r subject to sum_r mu_r a_r = B x, x = sum_k
    lambda_k x_k, lambda in the simplex.  Its primal gives the value and
    the weights lambda (x*); its dual, which `check_optimal` verifies
    exactly, is the inf-sup order: the multipliers y* of the rows
    sum_r mu_r a_r - B x = 0 lie in Y, satisfy y*.Bx_k <= value for every
    X-vertex, and their objective equals the value.  A vertex-listed Y is
    played as the simplex of its vertex weights w, with y* = sum_l w_l v_l.

    The inner dual wants mu_r >= 0 on >= rows, mu_r <= 0 on <= rows and
    mu_r free on = rows.  A <= row enters as nu_r = -mu_r >= 0 instead,
    with its coefficients and its objective entry negated, so every
    variable but those of = rows is bounded below by 0 and none above.
    The rows, and with them y*, are the same either way.
    """
    B = inst.payoff
    xverts = inst.X.vertices
    if not xverts:
        raise EmptyPolytope("X has no vertices")
    for row in B:
        if len(row) != inst.X.dim:
            raise DimensionMismatch("payoff columns must match X dimension")
    Y = inst.Y
    if isinstance(Y, VertexPolytope) and not Y.vertices:
        raise EmptyPolytope("Y has no vertices")
    if Y.dim != len(B):
        raise DimensionMismatch("payoff rows must match Y dimension")
    if isinstance(Y, VertexPolytope):
        # payoff rows v_l . B over the simplex of vertex weights w
        B = [[_dot(v, col) for col in zip(*B)] for v in Y.vertices]
        L = len(B)
        Y = HPolytope(
            L,
            [Constraint([int(j == l) for j in range(L)], GE, 0) for l in range(L)]
            + [Constraint([1] * L, EQ, 1)],
        )
    ydim, R, K = Y.dim, len(Y.constraints), len(xverts)
    # B x_k, one per X vertex
    bx = [[_dot(row, x) for row in B] for x in xverts]
    # variables (nu_1..nu_R, lambda_1..lambda_K): nu_r = -mu_r on <= rows
    # and mu_r elsewhere, each row's coefficients and rhs signed to match
    signed = [
        ([-a if a else a for a in row.coeffs], -row.rhs) if row.relation == LE
        else (row.coeffs, row.rhs)
        for row in Y.constraints
    ]
    cons = [
        Constraint([a[i] for a, _ in signed] + [-b[i] for b in bx], EQ, 0)
        for i in range(ydim)
    ]
    cons.append(Constraint([ZERO] * R + [ONE] * K, EQ, 1))
    sol = solve_lp(
        LinearProgram(
            objective=[rhs for _, rhs in signed] + [ZERO] * K,
            sense="max",
            constraints=cons,
            lower=[None if row.relation == EQ else ZERO for row in Y.constraints]
            + [ZERO] * K,
        )
    )
    if sol.status == "Unbounded":
        raise EmptyPolytope("Y is empty")
    if sol.status != "Optimal":
        raise EmptyPolytope("Y is empty or the inner infimum over Y is -infinity")
    lam = sol.primal[R:]
    y_star = sol.dual[:ydim]
    if isinstance(inst.Y, VertexPolytope):
        y_star = tuple(_dot(y_star, coord) for coord in zip(*inst.Y.vertices))
    x_star = tuple(_dot(lam, coord) for coord in zip(*xverts))
    return MinimaxResult(
        value=sol.value, x_star=x_star, x_weights=lam, y_star=y_star
    )
