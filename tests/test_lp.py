"""Exact simplex on packing programs: statuses, exactness, degeneracy, duality."""

import random
from fractions import Fraction

import pytest

from matchforge import eta
from matchforge import lp as lp_module
from matchforge.classify import is_bridgeless
from matchforge.errors import InternalError
from matchforge.generators import catalog, named, random_cubic
from matchforge.lp import (
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    _check_optimal,
    program,
    solve,
    solve_ints,
)
from matchforge.matching import enumerate_perfect_matchings, integer_weights

INFEASIBLE = "infeasible"  # a status of the general reference below only


def _satisfies(lp: LinearProgram, x) -> bool:
    for coeffs, rhs in lp.rows:
        if sum(c * v for c, v in zip(coeffs, x)) > rhs:
            return False
    return all(v >= 0 for v in x)


def test_program_coercion_and_validation():
    p = program(["1/2", 3], [((1, 1), "7/2")])
    assert p.objective == (Fraction(1, 2), Fraction(3))
    assert p.rows[0] == ((Fraction(1), Fraction(1)), Fraction(7, 2))
    with pytest.raises(ValueError):
        program([1], [((1,), -1)])
    with pytest.raises(ValueError):
        program([1, 2], [((1,), 0)])


def test_two_variable_polytope():
    # maximise x+y over x+2y<=4, x<=3: optimum at (3, 1/2)
    p = program([-1, -1], [((1, 2), 4), ((1, 0), 3)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.value == Fraction(-7, 2)
    assert s.assignment == (Fraction(3), Fraction(1, 2))


def test_unbounded():
    # x0 <= x1 leaves x0 free to grow along with x1
    p = program([-1, 0], [((1, -1), 0)])
    s = solve(p)
    assert s.status == UNBOUNDED
    assert s.value is None and s.assignment is None
    assert solve(program([-1], [])).status == UNBOUNDED
    # and the dual of an unbounded program is infeasible
    assert _fraction_solve(*dual_program(*_general(p))).status == INFEASIBLE


def test_empty_row_list():
    s = solve(program([1, 2], []))
    assert s.status == OPTIMAL
    assert s.value == 0
    assert s.assignment == (Fraction(0), Fraction(0))


def _cycling_program():
    # the classic cycling trap for naive pivot rules
    return program(
        ["-3/4", 150, "-1/50", 6],
        [
            (["1/4", -60, "-1/25", 9], 0),
            (["1/2", -90, "-1/50", 3], 0),
            ([0, 0, 1, 0], 1),
        ],
    )


def test_degenerate_cycling_instance():
    # Bland's rule terminates at value -1/20
    p = _cycling_program()
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.value == Fraction(-1, 20)
    assert s.assignment == (Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0))
    assert _satisfies(p, s.assignment)


def test_exact_awkward_denominators():
    p = program(
        [Fraction(-1, 3), Fraction(-1, 7)],
        [((Fraction(1, 11), Fraction(1, 13)), Fraction(1, 2))],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    # all budget on the better variable: x = 11/2, value = -11/6
    assert s.assignment == (Fraction(11, 2), Fraction(0))
    assert s.value == Fraction(-11, 6)


def test_objective_matches_assignment():
    p = program([5, -2, 1], [((1, 1, 1), 3), ((0, 1, 0), 2)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.assignment == (Fraction(0), Fraction(2), Fraction(0))
    assert sum(c * v for c, v in zip(p.objective, s.assignment)) == s.value
    assert _satisfies(p, s.assignment)


# A general two-phase Fraction simplex, kept as the reference: over
# packing programs the integer tableau must make the same pivots and
# return the same values.  It takes (objective, rows) with rows
# (coeffs, rel, rhs), rel one of <=, =, >=; pivots, if given, records
# each (row, column) pivoted on.


def _general(lp):
    """A packing LinearProgram as (objective, rows) for the reference."""
    return lp.objective, [(coeffs, "<=", rhs) for coeffs, rhs in lp.rows]


def dual_program(objective, rows):
    """The LP dual, re-expressed in the same min/nonneg-variable form.

    Each primal row i yields dual variable y_i (sign depends on the
    relation; free duals of equality rows split into y+ - y-).  Strong
    duality makes the dual's optimum the negated primal optimum.
    """
    # dual: max b.y  s.t.  A^T y <= c,  y_i <= 0 for <=-rows,
    #       y_i free for =-rows, y_i >= 0 for >=-rows
    cols = []
    for coeffs, rel, rhs in rows:
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
    dual_objective = tuple(-b for b, _ in cols)
    dual_rows = [
        (tuple(col[j] for _, col in cols), "<=", c) for j, c in enumerate(objective)
    ]
    return dual_objective, dual_rows


def _fraction_pivot(tab, basis, r, c, pivots=None):
    if pivots is not None:
        pivots.append((r, c))
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


def _fraction_run_simplex(tab, basis, cost, blocked, pivots):
    ncols = len(cost) - 1
    while True:
        enter = next(
            (j for j in range(ncols) if j not in blocked and cost[j] < 0), -1
        )
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
        nonzero = _fraction_pivot(tab, basis, leave, enter, pivots)
        f = cost[enter]
        if f:
            for j, x in nonzero:
                cost[j] -= f * x


def _fraction_solve(objective, rows, pivots=None):
    objective = [Fraction(c) for c in objective]
    nv = len(objective)
    flipped = []
    for coeffs, rel, rhs in rows:
        coeffs, rhs = [Fraction(x) for x in coeffs], Fraction(rhs)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        flipped.append((coeffs, rel, rhs))
    rows = flipped
    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    ncols = nv + n_slack + len(rows)
    art0 = nv + n_slack
    tab, basis, artificial_cols = [], [], set()
    zero = Fraction(0)
    slack_at = 0
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = [zero] * (ncols + 1)
        row[:nv] = coeffs
        if rel != "=":
            row[nv + slack_at] = Fraction(1 if rel == "<=" else -1)
            slack_at += 1
        row[-1] = rhs
        if rel == "<=":
            basis.append(nv + slack_at - 1)
        else:
            row[art0 + i] = Fraction(1)
            artificial_cols.add(art0 + i)
            basis.append(art0 + i)
        tab.append(row)
    if artificial_cols:
        cost = [zero] * (ncols + 1)
        for col in artificial_cols:
            cost[col] = Fraction(1)
        for i, b in enumerate(basis):
            if b in artificial_cols:
                cost = [c - t for c, t in zip(cost, tab[i])]
        assert _fraction_run_simplex(tab, basis, cost, set(), pivots) == OPTIMAL
        if cost[-1] != 0:
            return LpSolution(status=INFEASIBLE)
        drop = []
        for i, b in enumerate(basis):
            if b not in artificial_cols:
                continue
            piv = next((j for j in range(art0) if tab[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                _fraction_pivot(tab, basis, i, piv, pivots)
        for i in reversed(drop):
            del tab[i]
            del basis[i]
    cost = [zero] * (ncols + 1)
    cost[:nv] = objective
    for i, b in enumerate(basis):
        if cost[b]:
            f = cost[b]
            cost = [c - f * t for c, t in zip(cost, tab[i])]
    if _fraction_run_simplex(tab, basis, cost, artificial_cols, pivots) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    assignment = [zero] * nv
    for i, b in enumerate(basis):
        if b < nv:
            assignment[b] = tab[i][-1]
    value = sum((c * x for c, x in zip(objective, assignment)), zero)
    return LpSolution(OPTIMAL, value, tuple(assignment))


def test_strong_duality_random(seed=2024):
    # box-bounded minimisation is always feasible and bounded
    rng = random.Random(seed)
    for _ in range(25):
        nv = rng.randint(1, 4)
        obj = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nv)]
        rows = []
        for j in range(nv):
            unit = tuple(1 if i == j else 0 for i in range(nv))
            rows.append((unit, Fraction(rng.randint(1, 8), rng.randint(1, 3))))
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(Fraction(rng.randint(0, 4)) for _ in range(nv))
            rows.append((coeffs, Fraction(rng.randint(1, 10))))
        p = program(obj, rows)
        s = solve(p)
        assert s.status == OPTIMAL
        d = _fraction_solve(*dual_program(*_general(p)))
        assert d.status == OPTIMAL
        assert d.value == -s.value
        _assert_optimal_duals(p, s)


def _random_program(rng):
    nv = rng.randint(1, 5)
    values = [Fraction(k, d) for k in range(-3, 5) for d in (1, 2, 3)]
    obj = [rng.choice(values) for _ in range(nv)]
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = [rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(nv)]
        rhs = 0 if rng.random() < 0.3 else abs(rng.choice(values))
        rows.append((coeffs, rhs))
    return program(obj, rows)


def _berge_shaped_program(rng):
    # 0/1 columns (perfect matchings), one row per edge with rhs 1/3,
    # plus a row whose denominators differ entry by entry
    nv = rng.randint(2, 10)
    rows = [
        ([int(rng.random() < 0.4) for _ in range(nv)], Fraction(1, 3))
        for _ in range(rng.randint(1, 8))
    ]
    mixed = [Fraction(rng.randint(-2, 3), rng.choice((1, 2, 3, 5, 7))) for _ in range(nv)]
    rhs = Fraction(rng.randint(0, 4), rng.choice((1, 4, 9)))
    rows.insert(rng.randrange(len(rows) + 1), (mixed, rhs))
    obj = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(nv)]
    return program(obj if rng.random() < 0.5 else [-1] * nv, rows)


def _eta_programs(monkeypatch, names):
    """The LPs that eta_exact (through solve_ints) and berge_witness
    (through solve) solve on these graphs, as LinearPrograms."""
    seen = []
    real, real_ints = eta.solve, eta.solve_ints

    def spy_ints(objective, rows):
        seen.append(program(objective, [(row[:-1], row[-1]) for row in rows]))
        return real_ints(objective, rows)

    monkeypatch.setattr(eta, "solve", lambda lp: seen.append(lp) or real(lp))
    monkeypatch.setattr(eta, "solve_ints", spy_ints)
    for name in names:
        eta.eta_exact(named(name))
        eta.berge_witness(named(name))
    return seen


def _assert_optimal_duals(p, s):
    """s.duals, as the reference dual's variables u >= 0 of the <=-rows,
    are feasible there and meet the primal value (strong duality)."""
    objective, rows = dual_program(*_general(p))
    assert len(s.duals) == len(p.rows) and all(u >= 0 for u in s.duals)
    for coeffs, _, rhs in rows:
        assert sum(a * u for a, u in zip(coeffs, s.duals)) <= rhs
    assert sum(b * u for b, u in zip(objective, s.duals)) == -s.value


def _entering_variables(pivots, nv, nrows):
    """The condensed tableau's pivots, (row, slot), as (row, entering
    variable): the slot map and the basis replayed from the slack basis,
    where slot j holds variable j and row i's slack, variable nv + i, is
    basic.  A pivot swaps the slot's variable with the row's basic one.
    """
    slots, basis = list(range(nv)), list(range(nv, nv + nrows))
    out = []
    for r, s in pivots:
        out.append((r, slots[s]))
        slots[s], basis[r] = basis[r], slots[s]
    return out


def _same_as_reference(monkeypatch, programs):
    """Solve each program both ways; require the same pivots, each a
    (leaving row, entering variable), and the same results.

    Returns the statuses met and what the integer pivots looked like.
    """
    pivot = lp_module._pivot
    seen = {"non_unit": 0, "degenerate": 0}
    got_pivots: list = []

    def spy(rows, r, c, det):
        p = rows[r][c]
        got_pivots.append((r, c))
        seen["non_unit"] += p != det
        seen["degenerate"] += rows[r][-1] == 0
        return pivot(rows, r, c, det)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    statuses = set()
    for p in programs:
        got_pivots.clear()
        got = solve(p)
        want_pivots: list = []
        want = _fraction_solve(*_general(p), want_pivots)
        assert _entering_variables(got_pivots, p.num_vars, len(p.rows)) == want_pivots
        assert (got.status, got.value, got.assignment) == (
            want.status,
            want.value,
            want.assignment,
        )
        if got.status == OPTIMAL:
            _assert_optimal_duals(p, got)
        statuses.add(got.status)
    return statuses, seen


def test_integer_tableau_matches_fraction_reference(monkeypatch, seed=77):
    rng = random.Random(seed)
    programs = [_random_program(rng) for _ in range(300)]
    statuses, seen = _same_as_reference(monkeypatch, programs)
    assert statuses == {OPTIMAL, UNBOUNDED}
    assert all(seen.values()), seen


def test_berge_shaped_programs_match_fraction_reference(monkeypatch, seed=78):
    rng = random.Random(seed)
    programs = [_berge_shaped_program(rng) for _ in range(150)]
    programs.append(_cycling_program())
    real = _eta_programs(monkeypatch, ("petersen", "cube", "blanusa1"))
    assert len(real) > 3
    statuses, seen = _same_as_reference(monkeypatch, programs + real)
    assert OPTIMAL in statuses
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", ["petersen", "cube", "blanusa1"])
def test_packing_berge_lp_ends_where_phase_one_did(name):
    # coverage <= 1/3 with max sum(mu) has the phase-1 reduced costs of
    # coverage = 1/3, up to the positive factor n/2, so Bland's rule
    # takes the same pivots and stops at the same assignment
    g = named(name)
    pms = enumerate_perfect_matchings(g)
    third = Fraction(1, 3)
    cols = [[int(e in pm) for pm in pms] for e in range(g.m)]
    packing = solve(program([-1] * len(pms), [(c, third) for c in cols]))
    equality = _fraction_solve([0] * len(pms), [(c, "=", third) for c in cols])
    assert packing.value == -1
    assert packing.assignment == equality.assignment


def _berge_graphs(seed=20261019):
    """catalog(20) and 60 seeded bridgeless cubic graphs with 8..20 vertices."""
    yield from catalog(20)
    rng = random.Random(seed)
    made = 0
    while made < 60:
        g = random_cubic(rng.randrange(8, 21, 2), rng)
        if is_bridgeless(g)[0]:
            made += 1
            yield g


def test_berge_lp_on_unit_rows_takes_the_one_third_pivots(monkeypatch):
    # coverage <= 1 is coverage <= 1/3 with every variable scaled by 3:
    # each matching's column of the integer tableau starts at a third of
    # its entries on the 1/3 rows, which keeps every reduced cost's sign
    # and every ratio test's order, so Bland's rule pivots alike
    pivot = lp_module._pivot
    pivots: list = []
    sparse = {Fraction(1, 3): 0, 1: 0}  # pivots with p == det, per rhs

    def spy(rows, r, c, det):
        pivots.append((r, c))
        sparse[rhs] += rows[r][c] == det
        return pivot(rows, r, c, det)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    for i, g in enumerate(_berge_graphs()):
        pms = enumerate_perfect_matchings(g)
        cols = [[int(e in pm) for pm in pms] for e in range(g.m)]
        runs = []
        for rhs in sparse:
            pivots.clear()
            sol = solve(program([-1] * len(pms), [(c, rhs) for c in cols]))
            runs.append((sol, list(pivots)))
        (third, third_pivots), (unit, unit_pivots) = runs
        assert unit_pivots == third_pivots, i
        assert (third.value, unit.value) == (-1, -3), i
        assert unit.assignment == tuple(3 * x for x in third.assignment), i
    # the point of the unit rows: more pivots skip rescaling the other rows
    assert sparse[1] > sparse[Fraction(1, 3)], sparse


# max x0 + x1 over x0 + x1 <= 1, x0 <= 0: optimum x = (0, 1), y = (1, 0)
CHECKED = ([[1, 1, 1], [1, 0, 0]], [-1, -1])


def _checked_program():
    rows, obj = CHECKED
    return program(obj, [(row[:-1], row[-1]) for row in rows])


def test_check_optimal_accepts_a_certificate_and_nothing_else():
    rows, obj = CHECKED
    _check_optimal(rows, obj, [0, 1], [1, 0], 1)
    _check_optimal(rows, obj, [0, 3], [3, 0], 3)  # the same, over det 3
    bad = {
        "violates row 0": ([1, 1], [1, 0]),
        "assignment has a negative entry": ([0, -1], [1, 0]),
        "duals have a negative entry": ([0, 1], [2, -1]),
        "duals violate a column": ([0, 1], [0, 1]),
        # the slack basis, one pivot short of optimal, with optimal duals:
        # both are feasible but their objectives are 0 and -1
        "objectives differ": ([0, 0], [1, 0]),
    }
    for message, (x, y) in bad.items():
        with pytest.raises(InternalError, match=message):
            _check_optimal(rows, obj, x, y, 1)


def test_solve_returns_the_certified_duals():
    s = solve(_checked_program())
    assert s.assignment == (0, 1) and s.duals == (1, 0) and s.value == -1
    # row scales and the objective's scale cancel out of the duals
    q = program(["-1/2", "-1/2"], [(("1/3", "1/3"), "1/3"), ((2, 0), 0)])
    t = solve(q)
    assert t.assignment == (0, 1) and t.duals == (Fraction(3, 2), 0)
    _assert_optimal_duals(q, t)
    assert solve(program([1, 2], [])).duals == ()


def test_solve_raises_when_the_tableau_is_corrupted(monkeypatch):
    # a wrong final rhs must fail the certificate, not come back as optimal
    pivot = lp_module._pivot

    def corrupt(rows, r, c, det):
        det = pivot(rows, r, c, det)
        rows[r][-1] += det
        return det

    monkeypatch.setattr(lp_module, "_pivot", corrupt)
    with pytest.raises(InternalError):
        solve(_checked_program())


def _support_programs(monkeypatch):
    """The int programs that eta_exact hands to solve_ints on catalog(20)."""
    seen = []
    real = eta.solve_ints

    def spy(objective, rows):
        seen.append((list(objective), [list(row) for row in rows]))
        return real(objective, rows)

    monkeypatch.setattr(eta, "solve_ints", spy)
    for g in catalog(20):
        eta.eta_exact(g)
    monkeypatch.setattr(eta, "solve_ints", real)
    return seen


def _int_scaled(p):
    """p's objective and rows (rhs last), each times the LCM of its
    denominators."""
    rows = [integer_weights((*coeffs, rhs))[0] for coeffs, rhs in p.rows]
    return integer_weights(p.objective)[0], rows


def _with_pivots(monkeypatch, run):
    """run()'s solution and the (row, column, det) of each of its pivots."""
    pivot = lp_module._pivot
    pivots: list = []

    def spy(rows, r, c, det):
        pivots.append((r, c, det))
        return pivot(rows, r, c, det)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    try:
        return run(), pivots
    finally:
        monkeypatch.setattr(lp_module, "_pivot", pivot)


def test_solve_ints_is_solve_on_the_same_numbers(monkeypatch, seed=79):
    support = _support_programs(monkeypatch)
    assert len(support) > 20
    rng = random.Random(seed)
    fractional = [_random_program(rng) for _ in range(150)]
    fractional += [_berge_shaped_program(rng) for _ in range(150)]
    statuses = set()
    for objective, rows in support + [_int_scaled(p) for p in fractional]:
        p = program(objective, [(row[:-1], row[-1]) for row in rows])
        got = _with_pivots(monkeypatch, lambda: solve_ints(objective, rows))
        assert got == _with_pivots(monkeypatch, lambda: solve(p))
        statuses.add(got[0].status)
    assert statuses == {OPTIMAL, UNBOUNDED}


def test_solve_scales_the_int_solution_back(monkeypatch, seed=80):
    # solve on Fraction rows pivots as solve_ints on their int scaling;
    # the value comes back over the objective's scale K, and row i's
    # dual over K / L_i
    rng = random.Random(seed)
    scaled_rows = 0
    for _ in range(200):
        p = _berge_shaped_program(rng)
        k = integer_weights(p.objective)[1]
        scales = [integer_weights((*c, b))[1] for c, b in p.rows]
        got, got_pivots = _with_pivots(monkeypatch, lambda: solve(p))
        ints, int_pivots = _with_pivots(monkeypatch, lambda: solve_ints(*_int_scaled(p)))
        assert got_pivots == int_pivots
        assert (got.status, got.assignment) == (ints.status, ints.assignment)
        if got.status == OPTIMAL:
            assert got.value == ints.value / k
            assert got.duals == tuple(y * s / k for y, s in zip(ints.duals, scales))
            scaled_rows += any(s != 1 for s in scales)
    assert scaled_rows > 50


def test_solve_ints_validates_like_program():
    for objective, rows in [
        ([1], [[1, -1]]),  # negative rhs
        ([1, 2], [[1, 0]]),  # one coefficient short
        ([1], [[1, 2, 3]]),  # one coefficient too many
    ]:
        with pytest.raises(ValueError):
            program(objective, [(row[:-1], row[-1]) for row in rows])
        with pytest.raises(ValueError):
            solve_ints(objective, rows)
    assert solve_ints([1, 2], []) == solve(program([1, 2], []))
