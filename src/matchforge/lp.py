"""Exact linear programming over the rationals, for packing programs.

Programs are stated as: minimise c.x subject to rows (a, b), each
meaning a.x <= b with b >= 0, and x >= 0 implicitly.  Both LPs that
eta builds have this form: the support LP of eta_exact (one row per
trace, rhs 1) and the Berge LP of berge_witness (coverage <= 1/3 on
every edge).  Since every rhs is nonnegative, the origin is feasible
and the slack basis is a feasible start.  So no phase 1 is needed: no
artificial columns, and the only statuses are optimal and unbounded.

Tableau simplex.  Pivoting follows Bland's rule (lowest eligible
column, ties in the ratio test broken by lowest basic variable), which
guarantees termination even on degenerate programs and makes every
run deterministic.  An Optimal status comes with an assignment that
satisfies every row exactly; solve() re-checks that, over Fractions
and against the rows as given, before returning, and raises
InternalError if it does not hold.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): integer
rows over one shared positive denominator det, so each stored row is
det times the rational tableau row.

- Integer start.  Each row is multiplied by the LCM of its
  denominators, and its slack entry stays 1.  That only rescales that
  slack variable by a positive constant.  The objective is multiplied
  by the LCM of its denominators.  Positive scalings keep the sign of
  every reduced cost, and every ratio of the ratio test keeps its
  order (a row's scale cancels, a column's scale is the same in every
  row), so Bland's rule enters and leaves exactly as over the
  rationals.  The ratio test cross-multiplies instead of dividing.
- Pivot on p.  Every other row y, and the cost row, becomes
  (p * y - f * x) // det, where x is the pivot row and f is y's entry
  in the pivot column; then det = p.  Each division is exact: with the
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

The LP duals need no second solve.  At an optimum, the stored reduced
cost of row i's slack column is det * K * y_i / L_i, with K the
objective's scale and L_i row i's.  Here y >= 0 is an optimal solution
of the dual, max -b.y subject to A^T y >= -c, whose value is c.x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError

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


def _scaled(xs: Sequence[Fraction]) -> list[int]:
    """xs times the LCM of their denominators."""
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs]


def _pivot(rows: list[list[int]], r: int, c: int, det: int) -> int:
    """Pivot on rows[r][c] > 0 over the shared denominator det.

    Every other row becomes (p * row - f * rows[r]) // det, with p the
    pivot and f the row's entry in column c; a row with f = 0 only
    changes when p != det.  Returns the new denominator p.
    """
    row_r = rows[r]
    p = row_r[c]
    nonzero = [(j, x) for j, x in enumerate(row_r) if x]
    for i, row_i in enumerate(rows):
        if i == r:
            continue
        f = row_i[c]
        if p == det:
            if f:
                for j, x in nonzero:
                    row_i[j] -= f * x // det
        elif f:
            row_i[:] = [(p * y - f * x) // det for y, x in zip(row_i, row_r)]
        else:
            row_i[:] = [p * y // det if y else 0 for y in row_i]
    return p


def solve(lp: LinearProgram) -> LpSolution:
    """One-phase simplex from the slack basis.  Statuses: optimal, unbounded."""
    nv = lp.num_vars
    ncols = nv + len(lp.rows)
    tab: list[list[int]] = []
    for i, (coeffs, rhs) in enumerate(lp.rows):
        ints = _scaled((*coeffs, rhs))
        row = ints[:nv] + [0] * len(lp.rows) + ints[nv:]
        row[nv + i] = 1
        tab.append(row)
    basis = list(range(nv, ncols))
    # the slacks cost nothing, so the cost row starts reduced;
    # cost[-1] is -objective times det times the objective's scale
    cost = _scaled(lp.objective) + [0] * (len(lp.rows) + 1)
    rows = [*tab, cost]
    det = 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter == -1:
            break
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
        det = _pivot(rows, leave, enter, det)
        basis[leave] = enter

    zero = Fraction(0)
    assignment = [zero] * nv
    for i, b in enumerate(basis):
        if b < nv:
            assignment[b] = Fraction(tab[i][-1], det)
    value = sum(
        (c * x for c, x in zip(lp.objective, assignment)), zero
    )
    _check_exact(lp, tuple(assignment))
    return LpSolution(status=OPTIMAL, value=value, assignment=tuple(assignment))


def _check_exact(lp: LinearProgram, x: tuple[Fraction, ...]) -> None:
    """Optimal assignments must satisfy every row without any tolerance."""
    if any(v < 0 for v in x):
        raise InternalError("optimal assignment has a negative entry")
    for i, (coeffs, rhs) in enumerate(lp.rows):
        lhs = sum((a * b for a, b in zip(coeffs, x)), Fraction(0))
        if lhs > rhs:
            raise InternalError(
                f"optimal assignment violates row {i}: {lhs} <= {rhs}"
            )
