"""Exact simplex: statuses, exactness, degeneracy, duality."""

import random
from fractions import Fraction

import pytest

from matchforge import lp as lp_module
from matchforge.errors import InternalError
from matchforge.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    _check_exact,
    dual_program,
    program,
    solve,
)


def _satisfies(lp: LinearProgram, x) -> bool:
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if rel == "<=" and lhs > rhs:
            return False
        if rel == ">=" and lhs < rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return all(v >= 0 for v in x)


def test_program_coercion_and_validation():
    p = program(["1/2", 3], [((1, 1), "<=", "7/2")])
    assert p.objective == (Fraction(1, 2), Fraction(3))
    assert p.rows[0][2] == Fraction(7, 2)
    with pytest.raises(ValueError):
        program([1], [((1,), "<", 0)])
    with pytest.raises(ValueError):
        program([1, 2], [((1,), "<=", 0)])


def test_two_variable_polytope():
    # maximise x+y over x+2y<=4, x<=3: optimum at (3, 1/2)
    p = program([-1, -1], [((1, 2), "<=", 4), ((1, 0), "<=", 3)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.value == Fraction(-7, 2)
    assert s.assignment == (Fraction(3), Fraction(1, 2))


def test_equality_rows():
    p = program([2, 3], [((1, 1), "=", 5), ((1, 0), ">=", 2)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.value == 2 * 5  # push everything into the cheaper variable
    assert s.assignment == (Fraction(5), Fraction(0))


def test_infeasible():
    s = solve(program([1], [((1,), "<=", -1)]))
    assert s.status == INFEASIBLE
    assert s.value is None and s.assignment is None
    s = solve(program([0, 0], [((1, 1), "=", 1), ((1, 1), "=", 2)]))
    assert s.status == INFEASIBLE


def test_unbounded():
    s = solve(program([-1], [((1,), ">=", 1)]))
    assert s.status == UNBOUNDED
    assert solve(program([-1], [])).status == UNBOUNDED


def test_empty_row_list():
    s = solve(program([1, 2], []))
    assert s.status == OPTIMAL
    assert s.value == 0
    assert s.assignment == (Fraction(0), Fraction(0))


def test_degenerate_cycling_instance():
    # the classic cycling trap for naive pivot rules; Bland's rule
    # terminates at value -1/20
    p = program(
        ["-3/4", 150, "-1/50", 6],
        [
            (["1/4", -60, "-1/25", 9], "<=", 0),
            (["1/2", -90, "-1/50", 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    assert s.value == Fraction(-1, 20)
    assert s.assignment == (Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0))
    assert _satisfies(p, s.assignment)


def test_exact_awkward_denominators():
    p = program(
        [Fraction(-1, 3), Fraction(-1, 7)],
        [((Fraction(1, 11), Fraction(1, 13)), "<=", Fraction(1, 2))],
    )
    s = solve(p)
    assert s.status == OPTIMAL
    # all budget on the better variable: x = 11/2, value = -11/6
    assert s.assignment == (Fraction(11, 2), Fraction(0))
    assert s.value == Fraction(-11, 6)


def test_objective_matches_assignment():
    p = program([5, -2, 1], [((1, 1, 1), "=", 3), ((0, 1, 0), "<=", 2)])
    s = solve(p)
    assert s.status == OPTIMAL
    assert sum(c * v for c, v in zip(p.objective, s.assignment)) == s.value
    assert _satisfies(p, s.assignment)


def test_strong_duality_random(seed=2024):
    # box-bounded minimisation is always feasible and bounded
    rng = random.Random(seed)
    for _ in range(25):
        nv = rng.randint(1, 4)
        obj = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nv)]
        rows = []
        for j in range(nv):
            unit = tuple(1 if i == j else 0 for i in range(nv))
            rows.append((unit, "<=", Fraction(rng.randint(1, 8), rng.randint(1, 3))))
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(Fraction(rng.randint(0, 4)) for _ in range(nv))
            rows.append((coeffs, "<=", Fraction(rng.randint(1, 10))))
        p = program(obj, rows)
        s = solve(p)
        assert s.status == OPTIMAL
        d = solve(dual_program(p))
        assert d.status == OPTIMAL
        assert d.value == -s.value


def test_dual_of_infeasible_primal_unbounded_or_infeasible():
    p = program([1], [((1,), "<=", -1)])
    d = solve(dual_program(p))
    assert d.status in (UNBOUNDED, INFEASIBLE)


def _dense_pivot(tab, basis, r, c, seen=None):
    """Reference pivot: every entry of every row, as a plain dense update.

    Returns the whole pivot row, zeros included, so solve()'s cost-row
    update is dense too.  seen, if given, counts non-unit and degenerate
    (zero right-hand side) pivots.
    """
    piv = tab[r][c]
    if seen is not None:
        seen["non_unit"] += piv != 1
        seen["degenerate"] += tab[r][-1] == 0
    inv = 1 / piv
    tab[r] = [x * inv for x in tab[r]]
    row_r = tab[r]
    for i in range(len(tab)):
        if i == r:
            continue
        f = tab[i][c]
        if f:
            row_i = tab[i]
            tab[i] = [a - f * b for a, b in zip(row_i, row_r)]
    basis[r] = c
    return list(enumerate(row_r))


def _random_program(rng):
    nv = rng.randint(1, 5)
    values = [Fraction(k, d) for k in range(-3, 5) for d in (1, 2, 3)]
    obj = [rng.choice(values) for _ in range(nv)]
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = [rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(nv)]
        rhs = 0 if rng.random() < 0.3 else rng.choice(values)
        rows.append((coeffs, rng.choice(("<=", "=", ">=")), rhs))
    return program(obj, rows)


def test_sparse_pivot_matches_dense_reference(monkeypatch, seed=77):
    rng = random.Random(seed)
    seen = {"non_unit": 0, "degenerate": 0}
    statuses = set()
    for _ in range(300):
        p = _random_program(rng)
        got = solve(p)
        with monkeypatch.context() as m:
            m.setattr(
                lp_module, "_pivot", lambda *a: _dense_pivot(*a, seen=seen)
            )
            want = solve(p)
        assert (got.status, got.value, got.assignment) == (
            want.status,
            want.value,
            want.assignment,
        )
        statuses.add(got.status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert seen["non_unit"] > 0 and seen["degenerate"] > 0


def test_check_exact_raises_on_violated_row():
    p = program([1, 1], [((1, 1), "<=", 1), ((1, 0), "=", 0)])
    _check_exact(p, (Fraction(0), Fraction(1)))
    with pytest.raises(InternalError):
        _check_exact(p, (Fraction(1), Fraction(1)))
    with pytest.raises(InternalError):
        _check_exact(p, (Fraction(0), Fraction(-1)))
