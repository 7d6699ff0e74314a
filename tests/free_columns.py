"""Free variables in a standard-form LP, as two nonnegative columns.

Every variable of a `robust_ftap.lp_core.LinearProgram` is >= 0.  A test
LP with a free variable x_j writes it as two adjacent columns, x_j+ with
the variable's coefficients and then x_j- with their negation, and reads
x_j = x_j+ - x_j- off the solution.  These are the columns the solver
built itself while it still took free variables, so such an LP keeps
the tableau and pivots it had then.
"""

from robust_ftap.lp_core import Constraint, LinearProgram


def _split(values, free):
    out = []
    for j, v in enumerate(values):
        out += [v, -v] if j in free else [v]
    return out


def standard_form(objective, sense, constraints, free) -> LinearProgram:
    """The LP over x >= 0 in which each variable whose index is in `free`
    is two adjacent columns x_j+ and x_j-."""
    free = set(free)
    return LinearProgram(
        _split(objective, free),
        sense,
        [Constraint(_split(row.coeffs, free), row.relation, row.rhs) for row in constraints],
    )


def merged(x, free) -> tuple:
    """x over the original variables, from a vector over the columns of
    `standard_form(..., free)`: x_j = x_j+ - x_j- for each j in `free`."""
    free, columns, out = set(free), iter(x), []
    for v in columns:
        out.append(v - next(columns) if len(out) in free else v)
    return tuple(out)
