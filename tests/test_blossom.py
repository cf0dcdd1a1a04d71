"""The integer blossom engine: scale invariance and its optimality check."""

import random

import pytest

from matchforge import errors
from matchforge.blossom import _check_optimum, max_weight_matching_pairs


def _adjacency(n, weights):
    adj = [[] for _ in range(n)]
    for u, v in weights:
        adj[u].append(v)
        adj[v].append(u)
    return adj


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_pairs_are_invariant_under_integer_scaling(seed):
    rng = random.Random(seed)
    for trial in range(10):
        n = rng.randint(6, 30)
        top = 1 if trial % 2 else 40  # all-ones weights are all ties
        weights = {
            (u, v): rng.randint(1, top)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        }
        if not weights:
            continue
        adj = _adjacency(n, weights)
        expected = max_weight_matching_pairs(n, weights, adj)
        for k in (2, 7):
            scaled = {e: k * w for e, w in weights.items()}
            assert max_weight_matching_pairs(n, scaled, adj) == expected


# path 0-1-2 with weights 1 and 2: the optimum matches 1-2, and the
# doubled vertex duals (0, 2, 2) prove it with no blossom duals
PATH = {(0, 1): 1, (1, 2): 2}
ROOTS = {0: None, 1: None, 2: None}


def test_check_optimum_accepts_an_optimal_pair():
    _check_optimum(PATH, {1: 2, 2: 1}, {0: 0, 1: 2, 2: 2}, {}, ROOTS)


def test_check_optimum_rejects_a_non_optimal_matching():
    with pytest.raises(errors.InternalError):
        _check_optimum(PATH, {0: 1, 1: 0}, {0: 0, 1: 2, 2: 2}, {}, ROOTS)


@pytest.mark.parametrize(
    "dualvar",
    [
        {0: 0, 1: 1, 2: 3},  # edge (0, 1) has negative slack
        {0: -1, 1: 3, 2: 1},  # negative vertex dual
    ],
)
def test_check_optimum_rejects_an_infeasible_dual(dualvar):
    with pytest.raises(errors.InternalError):
        _check_optimum(PATH, {1: 2, 2: 1}, dualvar, {}, ROOTS)
