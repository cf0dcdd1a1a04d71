"""The integer blossom engine: scale invariance and its dual check."""

import hashlib
import random
from fractions import Fraction

import pytest

from matchforge import errors
from matchforge import blossom
from matchforge.blossom import dual_objective, max_weight_matching_pairs
from matchforge.matching import random_weights
from matchforge.mesh import dual_graph, icosahedron, quadrangulate


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
        expected, _, _ = max_weight_matching_pairs(n, weights, adj)
        for k in (2, 7):
            scaled = {e: k * w for e, w in weights.items()}
            assert max_weight_matching_pairs(n, scaled, adj)[0] == expected


def test_final_duals_prove_the_matching_optimal():
    rng = random.Random(8)
    with_sets = 0
    for _ in range(40):
        n = rng.randint(5, 24)
        weights = {
            (u, v): rng.randint(1, 9)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        }
        if not weights:
            continue
        pairs, potentials, odd_sets = max_weight_matching_pairs(
            n, weights, _adjacency(n, weights)
        )
        doubled = {e: 2 * w for e, w in weights.items()}
        value = dual_objective(doubled, potentials, odd_sets)
        assert value == 2 * sum(weights[p] for p in pairs)
        assert min(potentials) >= 0
        with_sets += bool(odd_sets)
    assert with_sets  # some optimum needs blossom duals


# path 0-1-2 with weights 1 and 2: the optimum matches 1-2, and the
# potentials (0, 1, 1) prove it with no odd sets
PATH = {(0, 1): 1, (1, 2): 2}
HALF = Fraction(1, 2)
# a triangle weighted 2 with a pendant edge 2-3 weighted 1: the best
# matching takes one triangle edge and 2-3; the triangle as an odd set
# with value 2 and potentials (0, 0, 1, 0) prove weight 3
TRIANGLE = {(0, 1): 2, (0, 2): 2, (1, 2): 2, (2, 3): 1}
TRIANGLE_SET = ((0, 1, 2), 2)


def test_dual_objective_accepts_an_optimal_pair():
    assert dual_objective(PATH, [0, 1, 1], []) == 2  # the weight of 1-2
    assert dual_objective(TRIANGLE, [0, 0, 1, 0], [TRIANGLE_SET]) == 3


def test_dual_objective_rejects_a_non_optimal_matching():
    # 0-1 weighs 1, below the optimum's dual value 2, and a dual worth
    # only 1 leaves the edge 1-2 uncovered
    assert dual_objective(PATH, [0, 1, 1], []) != PATH[(0, 1)]
    assert dual_objective(PATH, [0, 1, 0], []) is None


def test_dual_objective_rejects_a_negative_slack():
    assert dual_objective(PATH, [0, HALF, 3 * HALF], []) is None
    # without its odd set the triangle's edges are uncovered
    assert dual_objective(TRIANGLE, [0, 0, 1, 0], []) is None


@pytest.mark.parametrize(
    "odd_sets",
    [
        [((0, 1), 2)],  # even size
        [((0, 1, 2, 2, 2), 2)],  # a repeated vertex
        [((0, 1, 7), 2)],  # a vertex outside the graph
        [((0, 1, -1), 2)],  # a negative vertex id
        [((0, 1, 2), -2)],  # negative value
    ],
)
def test_dual_objective_rejects_a_bad_odd_set(odd_sets):
    assert dual_objective(TRIANGLE, [0, 0, 1, 0], odd_sets) is None


def test_negative_potentials_bound_only_perfect_matchings():
    # path 0-1-2-3 weighted 1, 3, 1: potentials (-1/2, 3/2, 3/2, -1/2)
    # are feasible with value 2, the best perfect matching; the middle
    # edge alone weighs 3, so the blossom also demands potentials >= 0
    path = {(0, 1): 1, (1, 2): 3, (2, 3): 1}
    assert dual_objective(path, [-HALF, 3 * HALF, 3 * HALF, -HALF], []) == 2
    pairs, potentials, _ = max_weight_matching_pairs(4, path, _adjacency(4, path))
    assert pairs == {(1, 2)} and min(potentials) >= 0


def test_blossom_raises_when_its_duals_do_not_check(monkeypatch):
    monkeypatch.setattr(blossom, "dual_objective", lambda *args: None)
    with pytest.raises(errors.InternalError):
        max_weight_matching_pairs(3, PATH, _adjacency(3, PATH))


def _decision_stream():
    """(pairs, potentials, odd_sets) of 200 seeded tie-heavy random
    graphs, then both quadrangulate modes on the icosahedron (every
    quality ties) and on it under the seeded weighting of
    test_mesh.test_quadrangulate_counts_add_up."""
    rng = random.Random(20261018)
    tops = (1, 2, 10, 10**6)  # all-ones, 0..2, 0..10, 0..10**6
    for i in range(200):
        n = rng.randint(2, 40)
        p = rng.uniform(0.05, 0.6)
        top = tops[i % 4]
        low = 1 if top == 1 else 0
        weights = {
            (u, v): rng.randint(low, top)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        pairs, potentials, odd_sets = max_weight_matching_pairs(
            n, weights, _adjacency(n, weights)
        )
        yield sorted(pairs), potentials, odd_sets
    ico = icosahedron()
    draws = random.Random(2468)
    weightings = [None] + [random_weights(dual_graph(ico).graph, draws) for _ in range(3)]
    for w in weightings:
        for mode in ("perfect", "maximum"):
            qm, report = quadrangulate(ico, mode=mode, weights=w)
            yield qm.quads, qm.triangles, report


# Digest of _decision_stream computed on the dict-keyed engine of
# commit 4654029; the list-indexed rewrite must make the same choices.
DECISIONS_SHA256 = "ee7df50b5324c004cf78acc6ba64c092476637a690e9cc1d46d829ccff56fc88"


def test_decisions_match_the_pinned_digest():
    digest = hashlib.sha256()
    for item in _decision_stream():
        digest.update(repr(item).encode())
    assert digest.hexdigest() == DECISIONS_SHA256


def _dense_tie_stream():
    """(pairs, potentials, odd_sets) of 1000 seeded dense graphs with
    14..32 vertices and weights 0..2, where most slacks tie and the
    order of equal-slack candidates decides the result."""
    rng = random.Random(20261018)
    for _ in range(1000):
        n = rng.randint(14, 32)
        p = rng.uniform(0.3, 0.9)
        weights = {
            (u, v): rng.randint(0, 2)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        pairs, potentials, odd_sets = max_weight_matching_pairs(
            n, weights, _adjacency(n, weights)
        )
        yield sorted(pairs), potentials, odd_sets


# Digest of _dense_tie_stream computed on the engine of commit 4914484.
# Unlike DECISIONS_SHA256 it changes when a strict slack comparison in
# the S-S bestedge update or in add_blossom's best-edge minimum becomes
# <= (a mutation of either moves 3 to 6 of the 1000 calls).
DENSE_TIES_SHA256 = "32a5da5e736903f8e0d927a287a1ebc79408d7cc6829900261218c7953594bb3"


def test_dense_tie_decisions_match_the_pinned_digest():
    digest = hashlib.sha256()
    for item in _dense_tie_stream():
        digest.update(repr(item).encode())
    assert digest.hexdigest() == DENSE_TIES_SHA256


def test_resumed_run_equals_a_fresh_run_on_the_shifted_weights():
    # the shift is 1 + sum(w), as matching uses it, or 1..3, under which
    # the second optimum need not have maximum cardinality
    rng = random.Random(20261019)
    tops = (1, 2, 10, 10**6)  # all-ones, 0..2, 0..10, 0..10**6
    seen = {"non-perfect": 0, "odd": 0, "no edges": 0}
    for i in range(3200):
        n = rng.randint(1, 18)
        p = rng.uniform(0.05, 0.7)
        top = tops[i % 4]
        low = 1 if top == 1 else 0
        weights = {
            (u, v): rng.randint(low, top)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        shift = 1 + sum(weights.values()) if i % 3 else rng.randint(1, 3)
        adj = _adjacency(n, weights)
        first, second = max_weight_matching_pairs(n, weights, adj, shift)
        assert first == max_weight_matching_pairs(n, weights, adj)
        shifted = {e: w + shift for e, w in weights.items()}
        assert second == max_weight_matching_pairs(n, shifted, adj)
        if 2 * len(first[0]) == n:
            # nothing was exposed at the last step: one matching, and
            # every potential moved by the shift
            assert second[0] == first[0] and second[2] == first[2]
            assert second[1] == [y + shift for y in first[1]]
        seen["non-perfect"] += 2 * len(first[0]) < n
        seen["odd"] += n % 2
        seen["no edges"] += not weights
    assert seen["non-perfect"] >= 2000 and seen["odd"] and seen["no edges"], seen


@pytest.mark.parametrize("n", [0, 1, 4])
def test_shifted_call_without_edges_returns_two_results(n):
    empty = (set(), [0] * n, [])
    assert max_weight_matching_pairs(n, {}, [[] for _ in range(n)], 5) == (empty, empty)


def _engine_state_after_prefix(n, weights, adj):
    """mate and dualvar as _greedy_prefix leaves them, and its nbrs."""
    maxweight = max(weights.values())
    nbrs = [[(u, 2 * weights[min(u, v), max(u, v)]) for u in adj[v]] for v in range(n)]
    mate, dualvar = [-1] * n, [maxweight] * n
    blossom._greedy_prefix(n, nbrs, maxweight, mate, dualvar)
    return mate, dualvar, nbrs


def _hand_over_reason(n, weights, adj):
    """Why the greedy prefix stopped, read off the state it left: the
    first stage the loop then runs must set a T label, take a type-1 or
    type-2 dual step, or has no two adjacent exposed vertices."""
    mate, dualvar, nbrs = _engine_state_after_prefix(n, weights, adj)
    exposed = [v for v in range(n) if mate[v] == -1]
    if len({dualvar[v] for v in exposed}) > 1:
        return "unequal exposed duals"
    heads = [w2 for v in exposed for u, w2 in nbrs[v] if mate[u] == -1]
    if not heads:
        return "no exposed pair"
    d = dualvar[exposed[0]]
    step2 = min(
        (d + dualvar[u] - w2 for v in exposed for u, w2 in nbrs[v] if mate[u] != -1),
        default=None,
    )
    if step2 == 0:
        return "T label"
    if max(heads) == 2 * d:
        return "tight exposed pair left"  # the prefix should have matched it
    step3 = d - max(heads) // 2
    if step2 is not None and step2 < d and step2 <= step3:
        return "type 2"
    if d <= step3 and (step2 is None or d <= step2):
        return "type 1"
    return "type 3 left"  # the prefix should have taken it


def _results_with_and_without_prefix(monkeypatch, calls):
    """Engine results for each (n, weights, adj, shift) call, with the
    greedy prefix and with it replaced by a no-op."""
    run = lambda: [max_weight_matching_pairs(*call) for call in calls]
    replayed = run()
    with monkeypatch.context() as m:
        m.setattr(blossom, "_greedy_prefix", lambda *args: None)
        plain = run()
    return replayed, plain


# one hand-built graph per way the greedy prefix hands over; n, edge
# weights, and the neighbour order where it decides a tie
HAND_OVERS = {
    # 3-2 is matched first (largest vertex on a tight edge); then 1-2 is
    # tight from exposed 1 to matched 2 while 0-1 is still free
    "T label": (4, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, None),
    # 1-2 goes first; then 0 reaches matched 1 with slack 2, below the
    # type-3 step 3 of the light edge 0-3
    "type 2": (4, {(0, 1): 3, (1, 2): 4, (2, 3): 1, (0, 3): 1}, None),
    # 0-1 goes first; the exposed pair 2-3 weighs 0, so the type-3 step
    # ties the type-1 step D and the type-1 step wins
    "type 1": (4, {(0, 1): 2, (2, 3): 0}, None),
    # 0-1 and 2-3 tie at the head and 3-2 goes first; then 0-1
    "no exposed pair": (4, {(0, 1): 2, (1, 2): 1, (2, 3): 2}, None),
}


@pytest.mark.parametrize("reason", sorted(HAND_OVERS))
def test_greedy_prefix_hands_over_like_the_stage_loop(monkeypatch, reason):
    n, weights, _ = HAND_OVERS[reason]
    adj = _adjacency(n, weights)
    assert _hand_over_reason(n, weights, adj) == reason
    mate, _, _ = _engine_state_after_prefix(n, weights, adj)
    assert any(u != -1 for u in mate)  # the prefix matched something
    calls = [(n, weights, adj, None), (n, weights, adj, 1 + sum(weights.values()))]
    replayed, plain = _results_with_and_without_prefix(monkeypatch, calls)
    assert replayed == plain


@pytest.mark.parametrize("order", [(3, 2, 5), (2, 5, 3), (5, 3, 2)])
def test_greedy_prefix_breaks_head_ties_in_neighbour_order(monkeypatch, order):
    # 6-7 (weight 9) is matched first; then three weight-5 edges from 0
    # tie at the head, the type-3 step matches 0 to its first such
    # neighbour in adjacency order, and the other two stay tight
    weights = {(6, 7): 9, (0, 2): 5, (0, 3): 5, (0, 5): 5, (1, 2): 5, (3, 4): 1, (4, 5): 2}
    n = 8
    adj = _adjacency(n, weights)
    adj[0] = list(order)
    mate, _, _ = _engine_state_after_prefix(n, weights, adj)
    assert mate[0] == order[0] and mate[6] == 7
    calls = [(n, weights, adj, None), (n, weights, adj, 3)]
    replayed, plain = _results_with_and_without_prefix(monkeypatch, calls)
    assert replayed == plain


def test_greedy_prefix_changes_no_result(monkeypatch):
    # seeded graphs with shuffled neighbour lists, shifted and not; the
    # no-op prefix is the engine that runs every stage in the loop
    rng = random.Random(20261020)
    tops = (1, 2, 10, 10**6)  # all-ones, 0..2, 0..10, 0..10**6
    calls = []
    for i in range(3200):
        n = rng.randint(2, 26)
        p = rng.uniform(0.08, 0.6)
        top = tops[i % 4]
        low = 1 if top == 1 else 0
        weights = {
            (u, v): rng.randint(low, top)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        adj = _adjacency(n, weights)
        for row in adj:
            rng.shuffle(row)
        shift = None if i % 2 else 1 + sum(weights.values()) if i % 3 else rng.randint(1, 3)
        calls.append((n, weights, adj, shift))
    replayed, plain = _results_with_and_without_prefix(monkeypatch, calls)
    assert replayed == plain
    reasons = {}
    for n, weights, adj, _ in calls:
        if weights:
            reason = _hand_over_reason(n, weights, adj)
            reasons[reason] = reasons.get(reason, 0) + 1
    assert set(reasons) == {"T label", "type 1", "type 2", "no exposed pair"}, reasons
