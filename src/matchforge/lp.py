"""Exact linear programming over the rationals, for packing programs.

Programs are stated as: minimise c.x subject to rows (a, b), each
meaning a.x <= b with b >= 0, and x >= 0 implicitly.  Both LPs that
eta builds have this form, both on 0/1 rows with rhs 1: the support
LP of eta_exact (one row per trace) and the Berge LP of berge_witness
(coverage <= 1 on every edge).  Since every rhs is nonnegative, the
origin is feasible and the slack basis is a feasible start.  So no
phase 1 is needed: no artificial columns, and the only statuses are
optimal and unbounded.

Two entries run the same simplex.  solve_ints(objective, rows) takes
ints, each row its coefficients followed by its rhs; eta_exact's
support LPs call it, since their 0/1 rows are built as ints.  solve(lp)
takes the Fractions of a LinearProgram from program(), as
berge_witness does; it scales them to ints (below), calls solve_ints
and scales the value and the duals back.

Tableau simplex.  Pivoting follows Bland's rule (lowest eligible
variable, ties in the ratio test broken by lowest basic variable),
which guarantees termination even on degenerate programs and makes
every run deterministic.  Variables are numbered as the columns of the
full tableau: the program's nv variables, then one slack per row.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): integer
rows over one shared positive denominator det, so each stored row is
det times the rational tableau row.

The tableau is condensed (revised-simplex style): it stores only the
nv nonbasic columns, in slots, plus the rhs, with a map from slot to
variable.  A basic variable's full column is det on its own row and 0
elsewhere, the cost row included, so it carries no information and is
not stored.  Each row holds nv + 1 ints, not nv + rows + 1.

- Integer start.  solve multiplies each row by the LCM of its
  denominators, and its slack entry stays 1.  That only rescales that
  slack variable by a positive constant.  The objective is multiplied
  by the LCM of its denominators.  Both scalings are those of
  matching.integer_weights.  Positive scalings keep the sign of
  every reduced cost, and every ratio of the ratio test keeps its
  order (a row's scale cancels, a column's scale is the same in every
  row), so Bland's rule enters and leaves exactly as over the
  rationals.  The ratio test cross-multiplies instead of dividing.
- Pivot on p, in slot s.  Every other row y, and the cost row, becomes
  (p * y - f * x) // det, where x is the pivot row and f is y's entry
  in slot s; then det = p.  This is the full tableau's update, column
  by column, so the condensed one changes no entry that it keeps.
  The entering variable's column becomes basic and is dropped, and
  slot s takes the leaving variable's: its full column was det on the
  pivot row and 0 elsewhere, so the same update makes it the old det
  on the pivot row (which a pivot does not change) and -f on every
  other row and on the cost row.  Each division is exact: with the
  start basis the identity, det is det B of the current basis B of
  the integer matrix, and every stored entry is det times an entry of
  B^-1 times that matrix, a determinant by Cramer's rule (Sylvester's
  identity).  The cost row counts as one more row of that matrix,
  with a basic column of its own.  Bland's ratio test only pivots on
  positive entries, so det stays positive.
- Values.  A basic variable's value is Fraction(rhs, det).

Entries are minors of the integer program, so on the 0/1 rows that eta
builds they stay small.  When p == det only the pivot row's nonzero
columns change; otherwise every other row is rescaled as well.

Duals and the certificate.  At an optimum, the reduced cost Y_i of
row i's slack (stored in its slot, or 0 when it is basic) is
det * K * y_i / L_i, with K the objective's scale, L_i row i's, and y
an optimal dual: max -b.y s.t. A^T y >= -c, y >= 0.
Before returning, solve_ints proves the optimum in integers, on the
scaled rows (a_i, b_i), the scaled objective c and X = det * x:
X >= 0 and a_i . X <= b_i * det (x is feasible); Y >= 0 and
sum_i a_ij * Y_i >= -c_j * det for each column j (y is feasible); and
c . X == -sum_i b_i * Y_i (equal objectives, so both are optimal).
Otherwise it raises InternalError, with no assert, so python -O checks
the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError
from .matching import integer_weights

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t. coeffs . x <= rhs for each row, x >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None = None
    assignment: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None  # one y_i >= 0 per row


def program(
    objective: Sequence, rows: Sequence[tuple[Sequence, object]]
) -> LinearProgram:
    """Validating constructor with Fraction coercion.

    Raises ValueError on a negative rhs or a row of the wrong length.
    """
    obj = tuple(Fraction(c) for c in objective)
    out = []
    for coeffs, rhs in rows:
        c = tuple(Fraction(x) for x in coeffs)
        if len(c) != len(obj):
            raise ValueError(f"row has {len(c)} coefficients, expected {len(obj)}")
        b = Fraction(rhs)
        if b < 0:
            raise ValueError(f"rhs must be nonnegative, got {b}")
        out.append((c, b))
    return LinearProgram(objective=obj, rows=tuple(out))


def _pivot(rows: list[list[int]], r: int, s: int, det: int) -> int:
    """Pivot on rows[r][s] > 0 over the shared denominator det.

    Every other row becomes (p * row - f * rows[r]) // det, with p the
    pivot and f the row's entry in slot s; a row with f = 0 only
    changes when p != det.  Slot s then takes the leaving variable's
    column: det on row r, -f on every other row.  Returns the new
    denominator p.
    """
    row_r = rows[r]
    p = row_r[s]
    nonzero = [(j, x) for j, x in enumerate(row_r) if x and j != s]
    for i, row_i in enumerate(rows):
        if i == r:
            continue
        f = row_i[s]
        if p == det:
            if f:
                for j, x in nonzero:
                    row_i[j] -= f * x // det
        elif f:
            row_i[:] = [(p * y - f * x) // det for y, x in zip(row_i, row_r)]
        else:
            row_i[:] = [p * y // det if y else 0 for y in row_i]
        row_i[s] = -f
    row_r[s] = det
    return p


def solve(lp: LinearProgram) -> LpSolution:
    """One-phase simplex from the slack basis.  Statuses: optimal, unbounded.

    solve_ints on the scaled rows and objective; its value and duals
    are scaled back (a row's dual by L_i / K, the value by 1 / K).
    """
    scaled = [integer_weights((*coeffs, rhs)) for coeffs, rhs in lp.rows]  # rhs last
    obj, k = integer_weights(lp.objective)
    sol = solve_ints(obj, [row for row, _ in scaled])
    if sol.status != OPTIMAL:
        return sol
    return LpSolution(
        status=OPTIMAL,
        value=sol.value / k,
        assignment=sol.assignment,
        duals=tuple(y * s / k if y else y for (_, s), y in zip(scaled, sol.duals)),
    )


def solve_ints(objective: Sequence[int], rows: Sequence[Sequence[int]]) -> LpSolution:
    """solve() on a program given in ints: min objective . x subject to
    row[:-1] . x <= row[-1] for each row, and x >= 0.

    Raises ValueError, as program() does, on a negative rhs or a row of
    the wrong length.  No scaling is needed: every K and L_i of the
    module docstring is 1.
    """
    nv = len(objective)
    for row in rows:
        if len(row) != nv + 1:
            raise ValueError(f"row has {len(row) - 1} coefficients, expected {nv}")
        if row[-1] < 0:
            raise ValueError(f"rhs must be nonnegative, got {row[-1]}")
    tab = [list(row) for row in rows]
    slots = list(range(nv))  # the nonbasic variable of each slot
    basis = list(range(nv, nv + len(rows)))  # the slacks start basic
    # the slacks cost nothing, so the cost row starts reduced;
    # cost[-1] is -objective times det
    cost = [*objective, 0]
    pivot_rows = [*tab, cost]
    det = 1
    while True:
        # Bland's rule: the lowest variable with a negative reduced cost
        var = min((v for v, c in zip(slots, cost) if c < 0), default=-1)
        if var == -1:
            break
        enter = slots.index(var)
        # Bland's ratio test, cross-multiplied: rhs_i / a_i < rhs_k / a_k
        leave = -1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave == -1:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave == -1:
            return LpSolution(status=UNBOUNDED)
        det = _pivot(pivot_rows, leave, enter, det)
        slots[enter], basis[leave] = basis[leave], slots[enter]

    x = [0] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = tab[i][-1]
    y = [0] * len(rows)  # a basic slack's reduced cost is 0
    for j, v in enumerate(slots):
        if v >= nv:
            y[v - nv] = cost[j]
    _check_optimal(rows, objective, x, y, det)
    zero = Fraction(0)
    return LpSolution(
        status=OPTIMAL,
        value=Fraction(sum(c * v for c, v in zip(objective, x) if v), det),
        assignment=tuple(Fraction(v, det) if v else zero for v in x),
        duals=tuple(Fraction(v, det) if v else zero for v in y),
    )


def _check_optimal(
    rows: list[list[int]], obj: list[int], x: list[int], y: list[int], det: int
) -> None:
    """The certificate above: rows are (a_i, b_i), x is X and y is Y."""
    support = [(j, v) for j, v in enumerate(x) if v]
    if any(v < 0 for _, v in support):
        raise InternalError("optimal assignment has a negative entry")
    if any(v < 0 for v in y):
        raise InternalError("optimal duals have a negative entry")
    need = [-c * det for c in obj]  # what A^T Y must reach, column by column
    for i, (row, yi) in enumerate(zip(rows, y)):
        if sum(row[j] * v for j, v in support) > row[-1] * det:
            raise InternalError(f"optimal assignment violates row {i}")
        if yi:
            need = [n - a * yi if a else n for n, a in zip(need, row)]
    if any(n > 0 for n in need):
        raise InternalError("optimal duals violate a column")
    if sum(obj[j] * v for j, v in support) != -sum(
        row[-1] * yi for row, yi in zip(rows, y)
    ):
        raise InternalError("primal and dual objectives differ")
