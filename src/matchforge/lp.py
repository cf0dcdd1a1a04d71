"""Exact linear programming over the rationals.

Two-phase tableau simplex.  Pivoting follows Bland's rule (lowest
eligible column, ties in the ratio test broken by lowest basic
variable), which guarantees termination even on degenerate programs
and makes every run deterministic.  An Optimal status comes with an
assignment that satisfies every row exactly; solve() re-checks that,
over Fractions and against the rows as given, before returning, and
raises InternalError if it does not hold.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): integer
rows over one shared positive denominator det, so each stored row is
det times the rational tableau row.

- Integer start.  Each row is multiplied by the LCM of its
  denominators, and its slack or artificial entry stays +-1.  That
  only rescales that slack or artificial variable by a positive
  constant, and the artificial of row i costs K / L_i in phase 1 (L_i
  its row's scale, K the LCM of those), a positive multiple of the
  rational phase-1 cost.  The phase-2 objective is multiplied by the
  LCM of its denominators.  Positive scalings keep the sign of every
  reduced cost, and every ratio of the ratio test keeps its order
  (a row's scale cancels, a column's scale is the same in every row),
  so Bland's rule enters and leaves exactly as over the rationals.
  The ratio test cross-multiplies instead of dividing.
- Pivot on p.  Every other row y, and the cost row, becomes
  (p * y - f * x) // det, where x is the pivot row and f is y's entry
  in the pivot column; then det = p.  Each division is exact: with the
  start basis the identity, det is |det B| of the current basis B of
  the integer matrix, and every stored entry is det times an entry of
  B^-1 times that matrix, a determinant by Cramer's rule (Sylvester's
  identity).  The cost row counts as one more row of that matrix,
  with a basic column of its own.  Bland's pivots are positive; a
  leftover artificial may leave on a negative one, which first
  negates its row, so det stays positive.  Deleting a redundant row
  removes an artificial column with a single 1 in that row, which
  leaves |det B| unchanged.
- Values.  A basic variable's value is Fraction(rhs, det).

Entries are minors of the integer program, so on the 0/1 rows that eta
builds they stay small.  When p == det only the pivot row's nonzero
columns change; otherwise every other row is rescaled as well.

Programs are stated as: minimise c.x subject to rows (a, rel, b) with
rel one of <=, =, >=, and x >= 0 implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELS = ("<=", "=", ">=")


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t. rows, x >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None = None
    assignment: tuple[Fraction, ...] | None = None


def program(
    objective: Sequence, rows: Sequence[tuple[Sequence, str, object]]
) -> LinearProgram:
    """Validating constructor with Fraction coercion."""
    obj = tuple(Fraction(c) for c in objective)
    out = []
    for coeffs, rel, rhs in rows:
        if rel not in _RELS:
            raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
        c = tuple(Fraction(x) for x in coeffs)
        if len(c) != len(obj):
            raise ValueError(f"row has {len(c)} coefficients, expected {len(obj)}")
        out.append((c, rel, Fraction(rhs)))
    return LinearProgram(objective=obj, rows=tuple(out))


def _scaled(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """xs times the LCM of their denominators, and that LCM."""
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def _pivot(rows: list[list[int]], r: int, c: int, det: int) -> int:
    """Pivot on rows[r][c] over the shared denominator det.

    Every other row becomes (p * row - f * rows[r]) // det, with p the
    pivot and f the row's entry in column c; a row with f = 0 only
    changes when p != det.  A negative pivot first negates its row,
    so the denominator stays positive.  Returns the new denominator.
    """
    row_r = rows[r]
    p = row_r[c]
    if p < 0:
        row_r[:] = [-x for x in row_r]
        p = -p
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


def _run_simplex(
    tab: list[list[int]],
    basis: list[int],
    cost: list[int],
    blocked: set[int],
    det: int,
) -> tuple[str, int]:
    """Minimise cost over the tableau in place; returns (status, det).

    cost is kept reduced over the same denominator, so cost[-1] is
    -objective times det times the cost's own positive scale.
    """
    ncols = len(cost) - 1
    rows = [*tab, cost]
    while True:
        enter = -1
        for j in range(ncols):
            if j in blocked:
                continue
            if cost[j] < 0:
                enter = j
                break
        if enter == -1:
            return OPTIMAL, det
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
            return UNBOUNDED, det
        det = _pivot(rows, leave, enter, det)
        basis[leave] = enter


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex.  Statuses: optimal, infeasible, unbounded."""
    nv = lp.num_vars
    rows = []
    for coeffs, rel, rhs in lp.rows:
        if rhs < 0:
            coeffs = tuple(-x for x in coeffs)
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((*_scaled((*coeffs, rhs)), rel))

    n_slack = sum(1 for _, _, rel in rows if rel != "=")
    ncols = nv + n_slack + len(rows)  # artificials for every row, used as needed
    art0 = nv + n_slack

    tab: list[list[int]] = []
    basis: list[int] = []
    slack_at = 0
    # an artificial of row i stands for scale_i artificials of the
    # rational row, so its phase-1 cost is k // scale_i (k the LCM)
    art_scale: dict[int, int] = {}
    for i, (ints, scale, rel) in enumerate(rows):
        row = ints[:nv] + [0] * (ncols - nv) + ints[nv:]
        if rel != "=":
            row[nv + slack_at] = 1 if rel == "<=" else -1
            slack_at += 1
        if rel == "<=":
            basis.append(nv + slack_at - 1)
        else:
            col = art0 + i
            row[col] = 1
            art_scale[col] = scale
            basis.append(col)
        tab.append(row)
    artificial_cols = set(art_scale)
    det = 1

    # phase 1: minimise the artificial sum
    if artificial_cols:
        k = math.lcm(*art_scale.values())
        cost = [0] * (ncols + 1)
        for i, b in enumerate(basis):
            if b in artificial_cols:
                f = k // art_scale[b]
                cost = [x - f * t for x, t in zip(cost, tab[i])]
                cost[b] = 0
        status, det = _run_simplex(tab, basis, cost, set(), det)
        if status != OPTIMAL:  # phase 1 is bounded below by 0
            raise InternalError(f"phase 1 ended {status}")
        if cost[-1] != 0:
            return LpSolution(status=INFEASIBLE)
        # remove leftover artificials from the basis
        drop: list[int] = []
        for i, b in enumerate(basis):
            if b not in artificial_cols:
                continue
            piv = next(
                (j for j in range(art0) if tab[i][j] != 0),
                None,
            )
            if piv is None:
                drop.append(i)  # redundant row
            else:
                det = _pivot(tab, i, piv, det)
                basis[i] = piv
        for i in reversed(drop):
            del tab[i]
            del basis[i]

    # phase 2, over the objective times the LCM of its denominators
    obj, _ = _scaled(lp.objective)
    cost = [det * c for c in obj] + [0] * (ncols + 1 - nv)
    for i, b in enumerate(basis):
        if b < nv and obj[b]:
            f = obj[b]
            cost = [x - f * t for x, t in zip(cost, tab[i])]
    status, det = _run_simplex(tab, basis, cost, artificial_cols, det)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

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
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        lhs = sum((a * b for a, b in zip(coeffs, x)), Fraction(0))
        if rel == "<=":
            ok = lhs <= rhs
        elif rel == ">=":
            ok = lhs >= rhs
        else:
            ok = lhs == rhs
        if not ok:
            raise InternalError(
                f"optimal assignment violates row {i}: {lhs} {rel} {rhs}"
            )


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The LP dual, re-expressed in the same min/nonneg-variable form.

    Each primal row i yields dual variable y_i (sign depends on the
    relation; free duals of equality rows split into y+ - y-).  Strong
    duality makes solve(dual_program(p)).value == -solve(p).value a
    sharp cross-check for optimal programs.
    """
    # dual: max b.y  s.t.  A^T y <= c,  y_i <= 0 for <=-rows,
    #       y_i free for =-rows, y_i >= 0 for >=-rows
    cols: list[tuple[Fraction, tuple[Fraction, ...]]] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        col = tuple(coeffs)
        if rel == "<=":
            # y_i = -u, u >= 0
            cols.append((-rhs, tuple(-a for a in col)))
        elif rel == ">=":
            cols.append((rhs, col))
        else:
            cols.append((rhs, col))
            cols.append((-rhs, tuple(-a for a in col)))
    # variables u_k >= 0; maximise sum b_k u_k => minimise -sum
    objective = tuple(-b for b, _ in cols)
    rows = []
    for j in range(lp.num_vars):
        coeffs = tuple(col[j] for _, col in cols)
        rows.append((coeffs, "<=", lp.objective[j]))
    return LinearProgram(objective=objective, rows=tuple(rows))
