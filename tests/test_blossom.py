"""The integer blossom engine: scale invariance and its dual check."""

import hashlib
import os
import random
from fractions import Fraction

import pytest

from matchforge import errors
from matchforge import blossom
from matchforge.blossom import dual_objective, max_weight_matching_pairs
from matchforge.matching import random_weights
from matchforge.mesh import (
    QUALITY_DENOMINATOR,
    _quad_cycles,
    _quality_numerators,
    dual_graph,
    icosahedron,
    quadrangulate,
)


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


def _dual_objective_reference(weights, potentials, odd_sets):
    """dual_objective summing, for every edge, the z of the sets that
    hold both ends, from per-vertex sets of set indices."""
    n = len(potentials)
    member = [set() for _ in range(n)]
    total = sum(potentials)
    for i, (vertices, z) in enumerate(odd_sets):
        distinct = set(vertices)
        if len(distinct) % 2 == 0 or len(distinct) != len(vertices) or z < 0:
            return None
        if min(distinct) < 0 or max(distinct) >= n:
            return None
        for v in distinct:
            member[v].add(i)
        total += z * (len(distinct) // 2)
    for (u, v), w in weights.items():
        cover = potentials[u] + potentials[v]
        cover += sum(odd_sets[i][1] for i in member[u] & member[v])
        if cover < w:
            return None
    return total


def test_dual_objective_matches_the_reference(seed=20261025):
    rng = random.Random(seed)
    seen = {"feasible with sets": 0, "infeasible": 0, "bad set": 0, "one end in a set": 0}
    for i in range(500):
        n = rng.randint(1, 14)
        weights = {
            (u, v): rng.randint(0, 10)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        }
        if i % 4 == 0 and weights:
            # the engine's own duals, feasible for the doubled weights
            _, potentials, odd_sets = max_weight_matching_pairs(
                n, weights, _adjacency(n, weights)
            )
            weights = {e: 2 * w for e, w in weights.items()}
        else:
            potentials = [rng.randint(-2, 8) for _ in range(n)]
            if i % 4 == 1:
                potentials = [Fraction(y, 2) for y in potentials]
            odd_sets = []
            for _ in range(rng.randint(0, 3)):
                size = min(n, rng.choice((1, 3, 3, 5, 5, 2, 4)))  # 2 and 4 even
                vertices = rng.sample(range(n), size)
                roll = rng.random()
                if roll < 0.05:
                    vertices.append(vertices[0])  # a repeated vertex
                elif roll < 0.1:
                    vertices[0] = rng.choice((-1, n))  # out of range
                z = rng.randint(-1, 6) if rng.random() < 0.1 else rng.randint(0, 6)
                odd_sets.append((tuple(vertices), z))
        expected = _dual_objective_reference(weights, potentials, odd_sets)
        got = dual_objective(weights, potentials, odd_sets)
        assert got == expected and type(got) is type(expected)
        inside = {v for vertices, _ in odd_sets for v in vertices}
        valid = _dual_objective_reference({}, potentials, odd_sets) is not None
        seen["feasible with sets"] += expected is not None and bool(odd_sets)
        seen["infeasible"] += expected is None and valid
        seen["bad set"] += not valid
        seen["one end in a set"] += any((u in inside) != (v in inside) for u, v in weights)
    assert min(seen.values()) >= 40, seen


def test_blossom_raises_when_its_duals_do_not_check(monkeypatch):
    monkeypatch.setattr(blossom, "dual_objective", lambda *args: None)
    with pytest.raises(errors.InternalError):
        max_weight_matching_pairs(3, PATH, _adjacency(3, PATH))


def test_blossom_raises_on_an_asymmetric_mate(monkeypatch):
    # a replay that matches 2 to 3 but not 3 to 2; the first stage
    # checks every vertex, so the pair the replay wrote is checked too
    monkeypatch.setattr(
        blossom, "_forest_replay", lambda n, nbrs, top, mate, duals: mate.__setitem__(2, 3)
    )
    with pytest.raises(errors.InternalError, match="not symmetric"):
        max_weight_matching_pairs(4, {(0, 1): 1}, [[1], [0], [], []])


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


def _expansion_stream():
    """Engine results for 400 seeded sparse graphs with weights 0..10**6
    and heavy odd cycles (3, 5 or 7 edges of weight at least 950,000)
    planted on shuffled vertices: blossoms form on the cycles, later
    turn T, and expand mid-stage when their dual reaches 0 (a type-4
    step), which can leave a former leaf unlabelled while it still
    holds a best edge.  Odd calls shuffle every neighbour list; every
    third call is shifted."""
    rng = random.Random(20261024)
    for i in range(400):
        n = rng.randint(12, 40)
        p = rng.uniform(0.02, 0.2)
        weights = {
            (u, v): rng.randint(0, 10**6)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        order = list(range(n))
        rng.shuffle(order)
        start = 0
        while start + 3 <= n:
            k = rng.choice((3, 5, 7))
            cycle = order[start : start + k]
            cycle = cycle[: len(cycle) - 1 + len(cycle) % 2]  # odd length
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                weights[min(a, b), max(a, b)] = rng.randint(950_000, 10**6)
            start += k
        adj = _adjacency(n, weights)
        if i % 2:
            for row in adj:
                rng.shuffle(row)
        if i % 3:
            results = [max_weight_matching_pairs(n, weights, adj)]
        else:
            results = max_weight_matching_pairs(n, weights, adj, 1 + sum(weights.values()))
        for pairs, potentials, odd_sets in results:
            yield sorted(pairs), potentials, odd_sets


# Digest of _expansion_stream computed on the engine of commit 319ad91,
# whose dual steps scanned every vertex; the stream takes 417 type-4
# steps, in 254 of its 400 calls.
EXPANSIONS_SHA256 = "6554ce59bf2fdbb7b7937fc146d01f631d3c5065bf4a43e33d97bfd1efc8b5f2"


def test_mid_stage_expansions_match_the_pinned_digest():
    digest = hashlib.sha256()
    for item in _expansion_stream():
        digest.update(repr(item).encode())
    assert digest.hexdigest() == EXPANSIONS_SHA256


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


def _engine_state_after_replay(n, weights, adj):
    """mate and dualvar as the forest replay leaves them, from the empty
    matching and every dual at the top weight, and their nbrs."""
    top = max(weights.values())
    nbrs = [[(u, 2 * weights[min(u, v), max(u, v)]) for u in adj[v]] for v in range(n)]
    mate, dualvar = [-1] * n, [top] * n
    blossom._forest_replay(n, nbrs, top, mate, dualvar)
    return mate, dualvar, nbrs


def _replay_hand_back_reason(n, weights, adj):
    """Why the forest replay stopped, read off the state it left by a
    scan-order-free walk through the stage the loop then runs: a tie
    other than disjoint S-S edges in a forest without T vertices, a
    type-1 step, or an S-S edge inside one tree.  None if the stage
    augments with none of these, so the replay should have run it.  On
    the way it checks that each T vertex on an augmenting path has one
    tight S neighbour besides its mate, so that its parent does not
    depend on the scan order."""
    mate, y, nbrs = _engine_state_after_replay(n, weights, adj)
    label = {v: 1 for v in range(n) if mate[v] == -1}  # 1 = S, 2 = T

    def grow(wave):
        # label what wave's S vertices reach by tight edges to unlabelled
        # vertices; a tight S-S edge is a zero step below
        while wave:
            s = wave.pop()
            for x, w2 in nbrs[s]:
                if x not in label and y[s] + y[x] <= w2:
                    label[x], label[mate[x]] = 2, 1
                    wave.append(mate[x])

    grow(list(label))
    while True:
        offers = [(max(0, min(y)), None)]  # the type-1 step
        for s in [v for v, lbl in label.items() if lbl == 1]:
            for x, w2 in nbrs[s]:
                if label.get(x, 0) == 0 or (label[x] == 1 and s < x):
                    slack = y[s] + y[x] - w2
                    offers.append((slack // (1 + label.get(x, 0)), (s, x)))
        delta = min(step for step, _ in offers)
        tied = [edge for step, edge in offers if step == delta]
        ends = {v for edge in tied if edge for v in edge}
        if len(tied) > 1 and (
            None in tied
            or 2 in label.values()
            or any(x not in label for _, x in tied)
            or len(ends) < 2 * len(tied)
        ):
            return "tie"
        if tied == [None]:
            return "type 1"
        for v, lbl in label.items():
            y[v] += delta if lbl == 2 else -delta
        s, x = tied[0]
        if x not in label:
            label[x], label[mate[x]] = 2, 1
            grow([mate[x]])
            continue
        for s, x in tied:
            roots = []
            for v in (s, x):
                while mate[v] != -1:
                    t = mate[v]
                    ups = [
                        p for p, w2 in nbrs[t]
                        if p != v and label.get(p) == 1 and y[p] + y[t] == w2
                    ]
                    assert len(ups) == 1, "a replayed T vertex with two tight S parents"
                    v = ups[0]
                roots.append(v)
            if roots[0] == roots[1]:
                return "blossom"
        return None


def _results_with_and_without_replay(monkeypatch, calls):
    """Engine results for each (n, weights, adj, shift) call, with the
    forest replay and with it replaced by a no-op."""
    run = lambda: [max_weight_matching_pairs(*call) for call in calls]
    replayed = run()
    with monkeypatch.context() as m:
        m.setattr(blossom, "_forest_replay", lambda *args: None)
        plain = run()
    return replayed, plain


# hand-built graphs, one or more per way the forest replay hands back:
# the reason, n, edge weights, vertex 0's neighbour order where it
# decides a tie, and the stages the replay runs first
REPLAY_HAND_BACKS = {
    # every edge is tight at the start, and 0-1, 0-3 and 1-2 share ends
    "first wave": ("tie", 4, {(0, 1): 1, (0, 3): 1, (1, 2): 1}, None, 0),
    # 0-1, 0-2 and 0-3 tie at the start, so no T vertex with two tight
    # S neighbours, whose parent the scan order would pick, ever forms
    "ambiguous parent": (
        "tie", 7, {(0, 1): 3, (0, 2): 3, (0, 3): 3, (3, 4): 1, (5, 6): 2}, None, 0
    ),
    # 6-7 is matched first; then three weight-5 edges from 0 and 1-2
    # tie, and the loop matches 0 to its first neighbour in adjacency
    # order; the three orders below each put a different one first
    **{
        f"head tie {order[0]}-{order[1]}-{order[2]}": (
            "tie",
            8,
            {(6, 7): 9, (0, 2): 5, (0, 3): 5, (0, 5): 5, (1, 2): 5, (3, 4): 1, (4, 5): 2},
            order,
            1,
        )
        for order in [(3, 2, 5), (2, 5, 3), (5, 3, 2)]
    },
    # 0-3 is matched first; the replay labels 0 T from 2 after a type-2
    # step and matches 1-5 after a type-3 step; then the type-3 step of
    # 3-4 ties type 1, and matching 3-4 and 0-2 would gain nothing
    "tie": ("tie", 6, {(0, 2): 7, (0, 3): 9, (1, 5): 2, (3, 4): 2}, None, 2),
    # 0-1 is matched first; a type-2 step labels 0 T from 2, and then
    # 1-3 and 2-4 tie: disjoint, but 1 hangs below 2 in one tree
    "tie below a T vertex": (
        "tie", 5, {(0, 1): 4, (0, 2): 3, (1, 3): 2, (2, 4): 1}, None, 1
    ),
    # 4-5 and then 1-2 are matched; a type-2 step labels 1 T from 0, and
    # a type-3 step on 2-3 matches 3-2 and 1-0 through the T vertex; with
    # no vertex left exposed the next stage takes a type-1 step
    "type 1": ("type 1", 6, {(4, 5): 6, (1, 2): 5, (0, 1): 4, (2, 3): 3}, None, 3),
    # 6-7 is matched at the start; then 0-1, 2-3 and 4-5 tie as disjoint
    # edges between exposed vertices, and the replay matches all three
    "disjoint ties": (
        "type 1",
        8,
        {(6, 7): 5, (0, 1): 3, (2, 3): 3, (4, 5): 3, (1, 2): 1, (3, 4): 1},
        None,
        4,
    ),
    # 1-2 is matched first; a type-2 step labels 1 T from 0, and then the
    # type-3 step on 0-2 closes the cycle 0-1-2 inside the tree of 0
    "blossom": ("blossom", 3, {(1, 2): 4, (0, 1): 3, (0, 2): 2}, None, 1),
}


@pytest.mark.parametrize("row", list(REPLAY_HAND_BACKS))
def test_forest_replay_hands_back_like_the_stage_loop(monkeypatch, row):
    reason, n, weights, first, stages = REPLAY_HAND_BACKS[row]
    adj = _adjacency(n, weights)
    if first:
        adj[0] = list(first)
    assert _replay_hand_back_reason(n, weights, adj) == reason
    mate, _, _ = _engine_state_after_replay(n, weights, adj)
    assert n - mate.count(-1) == 2 * stages
    calls = [(n, weights, adj, None), (n, weights, adj, 1 + sum(weights.values()))]
    replayed, plain = _results_with_and_without_replay(monkeypatch, calls)
    assert replayed == plain


def _replay_calls(count):
    """count seeded engine calls: n 2..40, weight tops 1, 2, 10 and
    10**6, heavy odd cycles planted on a third of the graphs and heavy
    claws (a hub with three edges of one weight, where a T hub can have
    two tight S neighbours) on another third, every neighbour list
    shuffled, and half of the calls shifted."""
    rng = random.Random(20261026)
    tops = (1, 2, 10, 10**6)  # all-ones, 0..2, 0..10, 0..10**6
    for i in range(count):
        n = rng.randint(2, 40)
        p = rng.uniform(0.03, 0.3)
        top = tops[i % 4]
        low = 1 if top == 1 else 0
        weights = {
            (u, v): rng.randint(low, top)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        order = rng.sample(range(n), n)
        plant = i // 4 % 3  # 0: nothing, 1: odd cycles, 2: claws
        start = 0
        while plant == 1 and start + 3 <= n:
            cycle = order[start : start + rng.choice((3, 5, 7))]
            cycle = cycle[: len(cycle) - 1 + len(cycle) % 2]  # odd length
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                weights[min(a, b), max(a, b)] = rng.randint(top - top // 20, top)
            start += len(cycle)
        while plant == 2 and start + 4 <= n:
            hub, *leaves = order[start : start + 4]
            heavy = rng.randint(top - top // 20, top)
            for leaf in leaves:
                weights[min(hub, leaf), max(hub, leaf)] = heavy
            start += 4
        adj = _adjacency(n, weights)
        for row in adj:
            rng.shuffle(row)
        shift = None if i % 2 else 1 + sum(weights.values()) if i % 3 else rng.randint(1, 3)
        yield n, weights, adj, shift


def _mesh_engine_calls(draws):
    """The shifted engine call quadrangulate makes on each mesh."""
    from test_mesh import _icosphere, _torus

    for draw in draws:
        mesh = _torus(24, 12, 0.03, 7) if draw == "torus" else _icosphere(*draw)
        dual = dual_graph(mesh)
        ints = _quality_numerators(mesh, _quad_cycles(mesh, dual))
        g = dual.graph
        weights = dict(zip(g.edges, ints))
        adj = [[u for u, _ in row] for row in g.adj]
        yield g.n, weights, adj, QUALITY_DENOMINATOR + sum(ints)


def _greedy_calls(count):
    """count seeded engine calls: n 2..26, weight tops 1, 2, 10 and
    10**6, dense enough that heavy edges often tie at the start, every
    neighbour list shuffled, half of the calls shifted."""
    rng = random.Random(20261020)
    tops = (1, 2, 10, 10**6)  # all-ones, 0..2, 0..10, 0..10**6
    for i in range(count):
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
        yield n, weights, adj, shift


def test_greedy_prefix_changes_no_result(monkeypatch):
    # the dense-tie corpus of the greedy prefix, which the forest replay
    # replaced: heavy edges often tie before the first stage
    calls = list(_greedy_calls(3_200))
    replayed, plain = _results_with_and_without_replay(monkeypatch, calls)
    assert replayed == plain


def test_forest_replay_changes_no_result(monkeypatch):
    # the no-op replay is the engine that runs every stage in the loop;
    # the meshes are those of MESH_DUALS_SHA256, plus the 5,120-face
    # draw with MATCHFORGE_FULL=1
    full = os.environ.get("MATCHFORGE_FULL") == "1"
    calls = list(_replay_calls(20_000 if full else 3_200))
    draws = [(1, 0.02, 1), (1, 0.1, 5), (2, 0.01, 2), (3, 0.005, 3), "torus"]
    meshes = list(_mesh_engine_calls(draws + [(4, 0.005, 3)] * full))
    replayed, plain = _results_with_and_without_replay(monkeypatch, calls + meshes)
    assert replayed == plain
    # every way to hand back shows up in the corpora
    reasons = {}
    for n, weights, adj, _ in calls + list(_greedy_calls(3_200)) + meshes:
        if weights:
            reason = _replay_hand_back_reason(n, weights, adj)
            reasons[reason] = reasons.get(reason, 0) + 1
    assert set(reasons) == {row[0] for row in REPLAY_HAND_BACKS.values()}, reasons
    # the stages replayed on each mesh before the first hand-back
    for (n, weights, adj, _), least in zip(meshes, [38, 39, 101, 475, 288]):
        mate, _, _ = _engine_state_after_replay(n, weights, adj)
        assert n - mate.count(-1) >= 2 * least
