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
tableau, each solution vector over its common denominator.  Every LP
is in standard form: each variable is nonnegative, a free one is written
by the caller as two columns x+ and x-, and any other bound is a row or a
substitution, so every multiplier is a row's and an optimum is certified
by its primal point and row duals alone.

Phase 1 reads only the rows: its costs are on the artificial columns, so
its outcome is the same whatever the objective.  A `LinearProgram` keeps
that outcome, the feasible tableau or the checked Infeasible solution,
the first time it is solved, and `lp.with_objective(c, sense)` is the LP
of another objective that shares the rows and the kept outcome.  Each
later solve of either runs phase 2 alone, with the pivots and the
solution of a fresh LP; a caller that solves many objectives over the
same rows (a market's superhedges) pays for phase 1 once, and hands
nothing to the solver but the LP.

Beside the solver, `enumerate_basic_feasible` lists the vertices of
{q >= 0 : A q = b} on the same integer pivots: the rows are reduced once,
and each column subset of their rank is solved by `solve_square`.

`minimax_value`, a bilinear minimax over a vertex-polytope / polytope pair
solved as one LP (its primal the sup-inf order, its checked dual the
inf-sup order), is called by no library module: it stays as the reference
of the game differential test (`tests/hs_game_lp.py`), and the benchmark's
tracer (`bench/tracing.py`) wraps it.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
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
    """Standard-form LP: optimize c.x subject to rows over x >= 0.  Every
    variable is nonnegative; a free one is two columns x+ and x- with
    x = x+ - x-, and every other bound is a row.

    Its scaled rows, which the solver and the checks read, are built with
    it: `_rows` holds (a, relation, b, s) per constraint, its coefficients
    and rhs times s > 0, the lcm of their denominators.  A positive scale
    keeps the relation, and a row's multiplier is s times that of its
    scaled row.  `_cost` is the objective as (integers, scale).
    `_phase1` holds the outcome of phase 1 on the rows once `solve_lp`
    has run it, and is shared, with `_rows`, by every LP that
    `with_objective` derives.
    """

    objective: tuple[Fraction, ...]
    sense: str  # "max" | "min"
    constraints: tuple[Constraint, ...]
    _rows: tuple = field(init=False, repr=False, compare=False)
    _cost: tuple[list[int], int] = field(init=False, repr=False, compare=False)
    _phase1: list = field(init=False, repr=False, compare=False)

    def __init__(self, objective: Iterable, sense: str, constraints: Sequence[Constraint]):
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
        rows = []
        for row in constraints:
            a, s = scaled(row.coeffs + (row.rhs,))
            rows.append((a[:n], row.relation, a[n], s))
        for name, value in (
            ("objective", objective), ("sense", sense), ("constraints", constraints),
            ("_rows", tuple(rows)), ("_cost", scaled(objective)), ("_phase1", []),
        ):
            object.__setattr__(self, name, value)

    def with_objective(self, objective: Iterable, sense: str) -> LinearProgram:
        """The LP of `objective` and `sense` over the same constraints.  It
        shares this LP's scaled rows and kept phase-1 outcome, so phase 1
        runs once for both; only the new objective is scaled."""
        objective = tuple(map(rational, objective))
        if len(objective) != self.num_vars:
            raise DimensionMismatch(
                f"objective has {len(objective)} coefficients, expected {self.num_vars}"
            )
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        twin = copy(self)
        for name, value in (("objective", objective), ("sense", sense), ("_cost", scaled(objective))):
            object.__setattr__(twin, name, value)
        return twin

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
    per constraint row, and primal and dual objectives agree exactly in
    `value`; the reduced costs follow from the duals (see `check_optimal`).
    For Infeasible, `dual` carries the Farkas multipliers of the rows (see
    `check_infeasible`); for Unbounded, `point` is a feasible point and
    `primal` an improving ray (see `check_unbounded`).
    """

    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    primal: tuple[Fraction, ...] = ()
    dual: tuple[Fraction, ...] = ()
    value: Optional[Fraction] = None
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
    needs the factor.  `flip` is the sign each input row was multiplied
    by to make its rhs nonnegative, which the duals undo.  A copy whose
    `rows` and `basis` are shallow copies pivots apart from the original:
    `_pivot` rebinds the rows it changes and never writes into one.
    """

    def __init__(self, rows: list[list[int]], ncols: int, flip: tuple[int, ...]):
        self.m = len(rows)
        self.total = ncols + self.m
        self.basis = [ncols + i for i in range(self.m)]
        self.rows = rows + [[0] * (self.total + 2)]  # reduced costs: see price()
        self.flip = flip

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

    def run(self, enterable: int) -> Optional[int]:
        """Bland-rule simplex on the installed costs, where only the first
        `enterable` columns may enter.

        Returns None at an optimum, or the entering column whose increase
        improves the objective without bound.
        """
        rows, basis, m, b = self.rows, self.basis, self.m, self.total
        while True:
            obj = rows[m]
            enter = next((j for j in range(enterable) if obj[j] < 0), -1)
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


def _phase_one(lp: LinearProgram) -> _Tableau | LpSolution:
    """Phase 1 of the simplex on the LP's rows alone: the feasible tableau
    after the artificials are driven out, or the checked Infeasible
    solution with its Farkas multipliers.  The objective is not read."""
    n = lp.num_vars
    rows = lp._rows
    m = len(rows)

    # slack columns: one per inequality row, after the n variables
    slack: dict[int, int] = {}
    for r, (_, rel, _, _) in enumerate(rows):
        if rel != EQ:
            slack[r] = n + len(slack)
    ncols = n + len(slack)

    tab_rows: list[list[int]] = []
    flip: list[int] = []
    for r, (a, rel, b, s) in enumerate(rows):
        row = a + [0] * len(slack)
        if r in slack:
            row[slack[r]] = s if rel == LE else -s
        flip.append(-1 if b < 0 else 1)
        tab_rows.append(
            [flip[r] * v for v in row]
            + [s if k == r else 0 for k in range(m)]
            + [abs(b), 0]
        )

    tab = _Tableau(tab_rows, ncols, tuple(flip))
    total = tab.total
    tab.price([0] * ncols + [1] * m)
    tab.run(total)  # a sum of nonnegative artificials is bounded
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
    return tab


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact two-phase simplex with Bland's rule and dual extraction.

    Phase 1 runs once per row set: its outcome is kept on the LP, and on
    every LP that `with_objective` derives from it, the first time one of
    them is solved.  An infeasible LP returns the kept Infeasible
    solution; otherwise phase 2 runs on a copy of the kept tableau, which
    stays as phase 1 left it.  Every result is checked before it is
    returned: `check_optimal`, `check_infeasible` or `check_unbounded`
    raises CertificateError if the solution does not prove its status.
    """
    if not lp._phase1:
        lp._phase1.append(_phase_one(lp))
    kept = lp._phase1[0]
    if isinstance(kept, LpSolution):
        return kept
    tab = copy(kept)
    tab.rows, tab.basis = kept.rows[:], kept.basis[:]
    n, m, total, flip = lp.num_vars, tab.m, tab.total, tab.flip
    ncols = total - m
    sign = 1 if lp.sense == "min" else -1  # the solver minimizes sign * c.x
    cost, cscale = lp._cost

    # phase 2: artificial columns stay in the tableau (they carry the dual
    # multipliers) but may not enter
    tab.price([sign * c for c in cost] + [0] * (total - n), cscale)
    enter = tab.run(ncols)

    # the basic solution, feasible since phase 1 and kept feasible by phase 2
    x = [ZERO] * n
    for r, bv in enumerate(tab.basis):
        if bv < n and tab.rows[r][total]:
            x[bv] = Fraction(tab.rows[r][total], tab.rows[r][bv])

    if enter is not None:
        ray = [ZERO] * n
        if enter < n:
            ray[enter] = ONE
        for r in range(m):
            bv = tab.basis[r]
            if tab.rows[r][enter] and bv < n:
                ray[bv] = Fraction(-tab.rows[r][enter], tab.rows[r][bv])
        sol = LpSolution(status="Unbounded", primal=tuple(ray), point=tuple(x))
        check_unbounded(lp, sol)
        return sol

    # optimal: everything over the objective row's factor z.  The dual of
    # row i is minus its artificial's reduced cost (cost 0 in phase 2)
    # through the flip, negated for max.
    obj, z = tab.rows[m], tab.rows[m][-1]
    dual = tuple(Fraction(-sign * flip[i] * obj[ncols + i], z) for i in range(m))
    sol = LpSolution(
        status="Optimal", primal=tuple(x), dual=dual, value=Fraction(-sign * obj[total], z)
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


def _require_feasible(lp: LinearProgram, X: Sequence[int], D: int) -> None:
    """x = X / D, with D > 0, satisfies every row of the LP and x >= 0."""
    for a, rel, b, _ in lp._rows:
        _require(RELATIONS[rel](_idot(a, X), b * D), f"primal infeasible ({rel} row)")
    _require(all(xj >= 0 for xj in X), "primal has a negative entry")


def _multipliers(lp: LinearProgram, y: Sequence) -> tuple[list[int], int]:
    """The multipliers y of the rows over one denominator E > 0: returns
    W with W_i = E y_i / s_i for the LP's scaled rows (so W.a = E times
    the rational combination), and E."""
    num, d = scaled(y)
    scale = reduce(lcm, [s for *_, s in lp._rows], 1)
    return [w * (scale // s) for w, (*_, s) in zip(num, lp._rows)], d * scale


def _combination(lp: LinearProgram, W: Sequence[int]) -> list[int]:
    """sum_i W_i a_ij over the LP's scaled rows, for each variable j."""
    out = [0] * lp.num_vars
    for w, (a, *_) in zip(W, lp._rows):
        if w:
            out = [o + w * aj for o, aj in zip(out, a)]
    return out


def check_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of an Optimal solution against the original LP.

    Checks primal feasibility (x >= 0 and every row), the sign of each
    row's dual, the sign of each reduced cost c_j - y.A_j (>= 0 for min,
    <= 0 for max), and equality of primal and dual objectives: together
    the weak-duality proof that no feasible point does better.  Raises
    CertificateError on any exact violation.  With the multipliers over
    one denominator E (see `_multipliers`) and the objective c = `_cost`
    / s_c, the reduced cost of x_j is (c_j E - s_c G_j) / (E s_c) in
    integers, with G = W.a.
    """
    _require(sol.status == "Optimal", f"status {sol.status!r} is not Optimal")
    _require(
        len(sol.primal) == lp.num_vars
        and len(sol.dual) == len(lp.constraints)
        and sol.value is not None,
        "solution vectors have the wrong length",
    )
    X, D = scaled(sol.primal)
    _require_feasible(lp, X, D)

    maximize = lp.sense == "max"
    # for max, y >= 0 on <= rows, y <= 0 on >= rows
    W, E = _multipliers(lp, sol.dual)
    for w, (_, rel, _, _) in zip(W, lp._rows):
        if rel != EQ:
            nonneg = maximize == (rel == LE)
            _require(w >= 0 if nonneg else w <= 0, f"dual sign ({rel} row)")
    cost, sc = lp._cost
    for cj, gj in zip(cost, _combination(lp, W)):
        rj = cj * E - sc * gj
        _require((rj <= 0) if maximize else (rj >= 0), "reduced cost sign")

    dual_obj = _idot(W, [b for _, _, b, _ in lp._rows])  # y.b, over E
    vn, vd = sol.value.numerator, sol.value.denominator
    _require(
        vd * _idot(cost, X) == vn * sc * D, "stored value differs from primal objective"
    )
    _require(vd * dual_obj == vn * E, "strong duality gap")


def check_infeasible(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a Farkas certificate of infeasibility.

    The multipliers are y = `sol.dual` on the rows, with y <= 0 on <= rows
    and y >= 0 on >= rows.  With g_j = sum_i y_i a_ij, every feasible x
    would have g.x >= y.b; the certificate requires g <= 0, so g.x <= 0
    on x >= 0, and y.b > 0 contradicts it.  Raises CertificateError on any
    exact violation.
    """
    _require(sol.status == "Infeasible", f"status {sol.status!r} is not Infeasible")
    _require(len(sol.dual) == len(lp.constraints), "Farkas vector has the wrong length")
    W, _ = _multipliers(lp, sol.dual)
    for w, (_, rel, _, _) in zip(W, lp._rows):
        if rel != EQ:
            _require((w <= 0) if rel == LE else (w >= 0), f"Farkas sign ({rel} row)")
    _require(
        all(gj <= 0 for gj in _combination(lp, W)), "Farkas combination has a positive entry"
    )
    rhs = _idot(W, [b for _, _, b, _ in lp._rows])  # y.b, over E
    _require(rhs > 0, "Farkas combination is not contradictory")


def check_unbounded(lp: LinearProgram, sol: LpSolution) -> None:
    """Exact verification of a feasible point x = `sol.point` and an
    improving ray d = `sol.primal`.

    x must satisfy every row of the LP and x >= 0, and d the homogeneous
    system (a.d <= 0, >= 0 or = 0 with the row's relation; d >= 0) and
    strictly improve the objective; x + s d is then feasible for every
    s >= 0, and the LP value is unbounded.  Raises CertificateError on
    any exact violation.
    """
    _require(sol.status == "Unbounded", f"status {sol.status!r} is not Unbounded")
    n = lp.num_vars
    _require(len(sol.primal) == n, "ray has the wrong length")
    _require(len(sol.point) == n, "feasible point has the wrong length")
    _require_feasible(lp, *scaled(sol.point))
    d, _ = scaled(sol.primal)
    for a, rel, _, _ in lp._rows:
        _require(RELATIONS[rel](_idot(a, d), 0), f"ray leaves a {rel} row")
    _require(all(dj >= 0 for dj in d), "ray has a negative entry")
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


def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """The nonnegative solution of a square rational system, by
    fraction-free elimination; `enumerate_basic_feasible` solves each of
    its bases with it.

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
    independent ones; then every column subset of size rank, in
    `itertools.combinations` order, is solved by `solve_square`, and a
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
    rows, rhs = work[:rank], [row[nvars] for row in work[:rank]]
    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []
    for basis in combinations(range(nvars), rank):
        sol = solve_square([[row[j] for j in basis] for row in rows], rhs)
        if sol is None:
            continue
        q = [ZERO] * nvars
        for j, v in zip(basis, sol):
            q[j] = v
        q = tuple(q)
        if q not in seen:
            seen.add(q)
            out.append(q)
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
    with its coefficients and its objective entry negated, and an = row
    as two adjacent columns, mu_r+ with (a_r, b_r) and then mu_r- with
    (-a_r, -b_r), so every variable is nonnegative.  The rows, and with
    them y*, are the same either way.
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
    ydim, K = Y.dim, len(xverts)
    # B x_k, one per X vertex
    bx = [[_dot(row, x) for row in B] for x in xverts]
    # the columns of the mu variables, then lambda_1..lambda_K: each row's
    # coefficients and rhs, negated for nu_r on a <= row, both signs on an
    # = row
    signed = []
    for row in Y.constraints:
        pos, neg = (row.coeffs, row.rhs), ([-a if a else a for a in row.coeffs], -row.rhs)
        signed += {LE: [neg], GE: [pos], EQ: [pos, neg]}[row.relation]
    cons = [
        Constraint([a[i] for a, _ in signed] + [-b[i] for b in bx], EQ, 0)
        for i in range(ydim)
    ]
    cons.append(Constraint([ZERO] * len(signed) + [ONE] * K, EQ, 1))
    sol = solve_lp(LinearProgram([rhs for _, rhs in signed] + [ZERO] * K, "max", cons))
    if sol.status == "Unbounded":
        raise EmptyPolytope("Y is empty")
    if sol.status != "Optimal":
        raise EmptyPolytope("Y is empty or the inner infimum over Y is -infinity")
    lam = sol.primal[len(signed):]
    y_star = sol.dual[:ydim]
    if isinstance(inst.Y, VertexPolytope):
        y_star = tuple(_dot(y_star, coord) for coord in zip(*inst.Y.vertices))
    x_star = tuple(_dot(lam, coord) for coord in zip(*xverts))
    return MinimaxResult(
        value=sol.value, x_star=x_star, x_weights=lam, y_star=y_star
    )
