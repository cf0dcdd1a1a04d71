"""Exact linear programming over the rationals.

Two-phase tableau simplex.  Pivoting follows Bland's rule (lowest
eligible column, ties in the ratio test broken by lowest basic
variable), which guarantees termination even on degenerate programs
and makes every run deterministic.  All arithmetic is Fraction, so an
Optimal status comes with an assignment that satisfies every row
exactly; solve() re-checks that before returning and raises
InternalError if it does not hold.

The tableau is stored dense, but a pivot only touches the nonzero
entries of the pivot row: slack and artificial columns and 0/1 rows
are mostly zero, and a zero entry leaves the other rows unchanged.
Column and row choices do not look at that, so the pivot sequence and
every value are those of the plain dense update.

Programs are stated as: minimise c.x subject to rows (a, rel, b) with
rel one of <=, =, >=, and x >= 0 implicitly.
"""

from __future__ import annotations

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


def _pivot(
    tab: list[list[Fraction]], basis: list[int], r: int, c: int
) -> list[tuple[int, Fraction]]:
    """Pivot on tab[r][c]; returns the normalised row's nonzero entries.

    Only the columns listed there change in the other rows, so those
    are the only ones updated.
    """
    row_r = tab[r]
    piv = row_r[c]
    if piv != 1:
        row_r[:] = [x / piv if x else x for x in row_r]
    nonzero = [(j, x) for j, x in enumerate(row_r) if x]
    for i, row_i in enumerate(tab):
        if i == r:
            continue
        f = row_i[c]
        if f:
            for j, x in nonzero:
                row_i[j] -= f * x
    basis[r] = c
    return nonzero


def _run_simplex(
    tab: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    blocked: set[int],
) -> str:
    """Minimise cost over the tableau in place.  cost[-1] is -objective."""
    ncols = len(cost) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if j in blocked:
                continue
            if cost[j] < 0:
                enter = j
                break
        if enter == -1:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave == -1:
            return UNBOUNDED
        nonzero = _pivot(tab, basis, leave, enter)
        # keep the cost row reduced
        f = cost[enter]
        if f:
            for j, x in nonzero:
                cost[j] -= f * x


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex.  Statuses: optimal, infeasible, unbounded."""
    nv = lp.num_vars
    rows = []
    for coeffs, rel, rhs in lp.rows:
        if rhs < 0:
            coeffs = tuple(-x for x in coeffs)
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    ncols = nv + n_slack + len(rows)  # artificials for every row, used as needed
    art0 = nv + n_slack

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = 0
    zero = Fraction(0)
    artificial_cols: set[int] = set()
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = [zero] * (ncols + 1)
        for j, x in enumerate(coeffs):
            row[j] = x
        if rel != "=":
            row[nv + slack_at] = Fraction(1) if rel == "<=" else Fraction(-1)
            slack_at += 1
        row[-1] = rhs
        if rel == "<=":
            basis.append(nv + slack_at - 1)
        else:
            col = art0 + i
            row[col] = Fraction(1)
            artificial_cols.add(col)
            basis.append(col)
        tab.append(row)

    # phase 1: minimise the artificial sum
    if artificial_cols:
        cost = [zero] * (ncols + 1)
        for col in artificial_cols:
            cost[col] = Fraction(1)
        for i, b in enumerate(basis):
            if b in artificial_cols:
                cost = [c - t for c, t in zip(cost, tab[i])]
        status = _run_simplex(tab, basis, cost, blocked=set())
        if status != OPTIMAL:  # phase 1 is bounded below by 0
            raise InternalError(f"phase 1 ended {status}")
        if -cost[-1] != 0:
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
                _pivot(tab, basis, i, piv)
        for i in reversed(drop):
            del tab[i]
            del basis[i]

    # phase 2
    cost = [zero] * (ncols + 1)
    for j, c in enumerate(lp.objective):
        cost[j] = c
    for i, b in enumerate(basis):
        if cost[b]:
            f = cost[b]
            cost = [c - f * t for c, t in zip(cost, tab[i])]
    status = _run_simplex(tab, basis, cost, blocked=artificial_cols)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    assignment = [zero] * nv
    for i, b in enumerate(basis):
        if b < nv:
            assignment[b] = tab[i][-1]
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
