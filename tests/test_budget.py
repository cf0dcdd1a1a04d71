"""Budget: its defaults, and the fields of every refusal it fences."""

import pickle
from dataclasses import fields

import pytest

from matchforge.classify import hamiltonian_cycle, tait_coloring
from matchforge.errors import Budget, BudgetExceeded
from matchforge.eta import eta_exact, find_independent_set_bound
from matchforge.generators import gp, named
from matchforge.matching import enumerate_maximal_matchings, enumerate_perfect_matchings


def test_budget_defaults():
    assert {f.name: f.default for f in fields(Budget)} == {
        "vertex_limit": None,
        "perfect_count": 10**5,
        "maximal_count": 10**6,
        "search_nodes": 10**8,
        "witness_nodes": 10**7,
    }
    # None fences the two enumerations apart
    budget = Budget()
    assert budget.enumeration_count(26, perfect=True) == 10**5
    assert budget.enumeration_count(20, perfect=False) == 10**6
    with pytest.raises(BudgetExceeded, match="^27 vertices exceeds the enumeration limit 26$"):
        budget.enumeration_count(27, perfect=True)
    with pytest.raises(BudgetExceeded, match="^21 vertices exceeds the enumeration limit 20$"):
        budget.enumeration_count(21, perfect=False)


# One refusal per raise site: the call, then (budget, limit, reached)
# and the message, whose text each template keeps from before Budget.
REFUSALS = {
    "perfect vertices": (
        lambda: enumerate_perfect_matchings(gp(14, 1)),
        ("vertex_limit", 26, 28),
        "28 vertices exceeds the enumeration limit 26",
    ),
    "maximal vertices": (
        lambda: enumerate_maximal_matchings(named("nauru")),
        ("vertex_limit", 20, 24),
        "24 vertices exceeds the enumeration limit 20",
    ),
    "perfect count": (
        lambda: enumerate_perfect_matchings(named("cube"), budget=Budget(perfect_count=8)),
        ("perfect_count", 8, 9),
        "more than 8 perfect matchings",
    ),
    "maximal count": (
        lambda: enumerate_maximal_matchings(named("petersen"), budget=Budget(maximal_count=70)),
        ("maximal_count", 70, 71),
        "more than 70 maximal matchings",
    ),
    # petersen's leader masks fit in 30; the seen set jumps from them
    # to 66 masks when their orbits are closed
    "eta seen set": (
        lambda: eta_exact(named("petersen"), budget=Budget(maximal_count=30)),
        ("maximal_count", 30, 66),
        "more than 30 maximal matchings",
    ),
    "tait colouring": (
        lambda: tait_coloring(named("petersen"), budget=Budget(search_nodes=5)),
        ("search_nodes", 5, 6),
        "search budget exhausted after 6 nodes",
    ),
    "hamiltonian cycle": (
        lambda: hamiltonian_cycle(named("nauru"), budget=Budget(search_nodes=3)),
        ("search_nodes", 3, 4),
        "search budget exhausted after 4 nodes",
    ),
    "independent witness": (
        lambda: find_independent_set_bound(named("nauru"), 8, budget=Budget(witness_nodes=346)),
        ("witness_nodes", 346, 347),
        "witness search passed 346 nodes",
    ),
}


@pytest.mark.parametrize("call, fenced, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_names_its_budget(call, fenced, message):
    with pytest.raises(BudgetExceeded) as info:
        call()
    exc = info.value
    assert (exc.budget, exc.limit, exc.reached) == fenced
    assert str(exc) == message
    assert exc.reached > exc.limit


def test_a_refusal_survives_pickling():
    # as a process pool sends a worker's exception back
    exc = pickle.loads(pickle.dumps(BudgetExceeded("maximal_count", 30, 66)))
    assert (exc.budget, exc.limit, exc.reached) == ("maximal_count", 30, 66)
    assert str(exc) == "more than 30 maximal matchings"
