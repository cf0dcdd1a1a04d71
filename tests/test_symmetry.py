"""Automorphism generators and the orbit scan of exact eta."""

import importlib.util
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from matchforge import errors, eta, symmetry
from matchforge.classify import is_bridgeless
from matchforge.errors import Budget
from matchforge.eta import _add_orbit, _orbit_tables, eta_exact
from matchforge.generators import catalog, gp, named, random_cubic
from matchforge.graphs import from_edge_list
from matchforge.matching import (
    _maximal_masks,
    _perfect_masks,
    enumerate_maximal_matchings,
)
from matchforge.symmetry import edge_automorphisms, edge_permutation

K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def five_k4():
    pairs = [(u + 4 * b, v + 4 * b) for b in range(5) for u, v in K4_EDGES]
    return from_edge_list(20, pairs)


def brute_force_group(g) -> set[tuple[int, ...]]:
    """Every automorphism, by extending partial vertex maps in order."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    found: set[tuple[int, ...]] = set()
    image: list[int] = []

    def extend() -> None:
        v = len(image)
        if v == g.n:
            found.add(tuple(image))
            return
        for x in range(g.n):
            if x in image or len(adj[x]) != len(adj[v]):
                continue
            if all((image[u] in adj[x]) == (u in adj[v]) for u in range(v)):
                image.append(x)
                extend()
                image.pop()

    extend()
    return found


def closure(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(q[x] for x in p)
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def orbit_count_from_generators(g, matchings) -> int:
    seen: set[int] = set()
    tables = _orbit_tables(edge_automorphisms(g))
    count = 0
    for m in matchings:
        mask = sum(1 << e for e in m)
        if mask not in seen:
            count += 1
            _add_orbit(mask, tables, seen)
    return count


def orbit_count_reference(g, matchings) -> int:
    perms = [edge_permutation(g, p) for p in brute_force_group(g)]
    reps = {min(sum(1 << p[e] for e in m) for p in perms) for m in matchings}
    return len(reps)


@pytest.mark.parametrize("ng", catalog(20), ids=lambda ng: ng.name)
def test_generators_generate_the_whole_group(ng):
    gens = symmetry._vertex_generators(ng)
    assert len(gens) < ng.n
    assert closure(gens, ng.n) == brute_force_group(ng)


def coarsest_equitable(adj, cells):
    """Reference refinement: every round splits every cell by the sorted
    cells of its vertices' neighbours, until no cell splits."""
    while True:
        colour = {v: i for i, cell in enumerate(cells) for v in cell}
        split = []
        for cell in cells:
            groups = {}
            for v in cell:
                groups.setdefault(tuple(sorted(colour[u] for u in adj[v])), []).append(v)
            split.extend(groups[sig] for sig in sorted(groups))
        if len(split) == len(cells):
            return cells
        cells = split


def cells_of(node):
    lab, _, end = node
    out, s = [], 0
    while s < len(lab):
        out.append(lab[s : end[s]])
        s = end[s]
    return out


def is_equitable(adj, cells):
    colour = {v: i for i, cell in enumerate(cells) for v in cell}
    return all(
        len({tuple(sorted(colour[u] for u in adj[v])) for v in cell}) == 1
        for cell in cells
    )


def mixed_graphs(count, seed):
    """Seeded graphs of mixed degrees, isolated vertices included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        out.append(from_edge_list(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    return out


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + mixed_graphs(40, 20261019) + [five_k4()],
    ids=lambda g: getattr(g, "name", f"graph-n{g.n}-m{g.m}"),
)
def test_refine_gives_the_coarsest_equitable_partition(g):
    adj = [g.neighbors(v) for v in range(g.n)]
    nbrs = [sum(1 << u for u in row) for row in adj]
    node, _ = symmetry._root(adj, nbrs)
    rng = random.Random(g.n * 1000 + g.m)
    while True:
        cells = cells_of(node)
        assert sorted(v for cell in cells for v in cell) == list(range(g.n))
        assert is_equitable(adj, cells)
        assert {frozenset(c) for c in coarsest_equitable(adj, cells)} == {
            frozenset(c) for c in cells
        }
        t = symmetry._target(node)
        if t < 0:
            break
        # the target is the first smallest non-singleton cell
        sizes = [len(c) for c in cells]
        i = [sum(sizes[:j]) for j in range(len(cells))].index(t)
        assert sizes[i] == min(k for k in sizes if k > 1)
        assert min(k for k in sizes[:i] + [g.n + 1] if k > 1) > sizes[i]
        parent_cells = [frozenset(c) for c in cells]
        node = symmetry._child(node, t, rng.choice(node[0][t : node[2][t]]))
        symmetry._refine(adj, node, [t], None)
        # the child refines the parent with one vertex made a singleton
        assert all(any(frozenset(c) <= p for p in parent_cells) for c in cells_of(node))


@pytest.mark.parametrize("seed", range(10))
def test_refine_is_equitable_from_any_colouring(seed):
    rng = random.Random(seed)
    for g in mixed_graphs(40, seed) + seeded_cubic(10, seed):
        adj = [g.neighbors(v) for v in range(g.n)]
        colour = [rng.randrange(rng.randint(1, 3)) for _ in range(g.n)]
        node, queue = symmetry._partition(colour)
        before = cells_of(node)
        symmetry._refine(adj, node, queue, None)
        cells = cells_of(node)
        assert is_equitable(adj, cells)
        assert {frozenset(c) for c in coarsest_equitable(adj, before)} == {
            frozenset(c) for c in cells
        }


def relabelled(g, rng):
    sigma = list(range(g.n))
    rng.shuffle(sigma)
    pairs = [(sigma[u], sigma[v]) for u, v in g.edges]
    rng.shuffle(pairs)
    return sigma, from_edge_list(g.n, pairs)


def vertex_orbits(gens, n):
    return {frozenset(symmetry._orbit({v}, gens)) for v in range(n)}


def seeded_cubic(count, seed):
    rng = random.Random(seed)
    return [random_cubic(rng.choice((4, 6, 8, 10, 12)), rng) for _ in range(count)]


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + seeded_cubic(50, 20261020),
    ids=lambda g: getattr(g, "name", f"cubic-n{g.n}"),
)
def test_generators_are_exact_under_relabelling(g):
    group = brute_force_group(g)
    orbits = vertex_orbits(symmetry._vertex_generators(g), g.n)
    assert orbits == vertex_orbits(list(group), g.n)
    rng = random.Random(g.n * 100 + len(group))
    for _ in range(20):
        sigma, h = relabelled(g, rng)
        gens = symmetry._vertex_generators(h)
        inverse = sorted(range(g.n), key=sigma.__getitem__)
        conjugates = {
            tuple(sigma[p[inverse[x]]] for x in range(g.n)) for p in group
        }
        assert closure(gens, g.n) == conjugates
        assert vertex_orbits(gens, g.n) == {
            frozenset(sigma[v] for v in orbit) for orbit in orbits
        }


@pytest.mark.parametrize("ng", catalog(20), ids=lambda ng: ng.name)
def test_orbit_counts_match_the_brute_force_group(ng):
    maximals = enumerate_maximal_matchings(ng)
    reference = orbit_count_reference(ng, maximals)
    assert orbit_count_from_generators(ng, maximals) == reference


@pytest.mark.parametrize("ng", catalog(20), ids=lambda ng: ng.name)
def test_table_images_are_the_edge_images(ng):
    gens = edge_automorphisms(ng)
    for perm, chunks in zip(gens, _orbit_tables(gens)):
        assert len(chunks) == -(-ng.m // 8)
        for m in enumerate_maximal_matchings(ng):
            rest, image = sum(1 << e for e in m), 0
            for tab in chunks:
                image |= tab[rest & 255]
                rest >>= 8
            assert image == sum(1 << perm[e] for e in m)


@pytest.mark.parametrize(
    "label, vertex_limit, maximal, orbits",
    [("petersen", None, 71, 3), ("gp(8,3)", None, 545, 15), ("nauru", 24, 15050, 146)],
)
def test_pinned_orbit_counts(label, vertex_limit, maximal, orbits):
    g = gp(8, 3) if label == "gp(8,3)" else named(label)
    maximals = enumerate_maximal_matchings(g, budget=Budget(vertex_limit=vertex_limit))
    assert len(maximals) == maximal
    assert orbit_count_from_generators(g, maximals) == orbits


def test_asymmetric_and_empty_graphs_have_no_generators():
    # legs of lengths 1, 2 and 3 at one centre: the smallest asymmetric tree
    spider = from_edge_list(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert edge_automorphisms(spider) == []
    assert edge_automorphisms(from_edge_list(0, [])) == []


def test_five_k4_is_fast_and_exact():
    g = five_k4()
    start = time.perf_counter()
    gens = symmetry._vertex_generators(g)
    r = eta_exact(g)
    assert time.perf_counter() - start < 2.0
    assert r.value == 1
    # |Aut| = 24**5 * 5! is far too large to list; check each generator
    for p in gens:
        edge_permutation(g, p)
    assert len(gens) < g.n


def seeded_bridgeless(count: int) -> list:
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        g = random_cubic(rng.choice((8, 10, 12, 14, 16)), rng)
        if is_bridgeless(g)[0]:
            out.append(g)
    return out


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + seeded_bridgeless(10),
    ids=lambda g: getattr(g, "name", f"random-n{g.n}"),
)
def test_edge_orbit_leaders_are_the_least_edges_of_the_brute_force_orbits(g):
    perms = [edge_permutation(g, p) for p in brute_force_group(g)]
    want = sorted({min(p[e] for p in perms) for e in range(g.m)})
    assert symmetry.edge_orbit_leaders(edge_automorphisms(g), g.m) == want
    assert symmetry.edge_orbit_leaders([], g.m) == list(range(g.m))


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + seeded_bridgeless(20),
    ids=lambda g: getattr(g, "name", f"random-n{g.n}"),
)
def test_orbit_scan_changes_no_result(monkeypatch, g):
    with_orbits = eta_exact(g)
    monkeypatch.setattr(eta, "edge_automorphisms", lambda g: [])
    assert eta_exact(g) == with_orbits


def spy_covers(monkeypatch, first, second):
    """Route each eta._cover_count call of the scan through first or
    second, each called as the real one is with the real one in front.
    first takes the greedy covers by whole perfect matchings, whose rows
    are the list that _perfect_masks returned; second takes the fold
    covers by traces."""
    perfect = []
    masks, cover = eta._perfect_masks, eta._cover_count

    def listed(*a, **k):
        perfect.append(masks(*a, **k))
        return perfect[-1]

    def spy(mask, rows, fold, bound):
        pick = first if perfect and rows is perfect[-1] else second
        return pick(cover, mask, rows, fold, bound)

    monkeypatch.setattr(eta, "_perfect_masks", listed)
    monkeypatch.setattr(eta, "_cover_count", spy)


def test_gp83_meets_each_orbit_once(monkeypatch):
    calls = []
    solve_ints = eta.solve_ints
    monkeypatch.setattr(
        eta, "solve_ints", lambda *a: calls.append("lp") or solve_ints(*a)
    )
    spy_covers(
        monkeypatch,
        lambda cover, *a: calls.append("greedy") or cover(*a),
        lambda cover, *a: cover(*a),
    )
    eta_exact(gp(8, 3))
    assert 0 < calls.count("lp") <= 12
    # 15 orbits: the first one is solved without a greedy cover
    assert calls.count("greedy") <= 14


def scan_calls(monkeypatch):
    """Record each support LP, with its value s, and each greedy cover."""
    calls = []
    solve_ints = eta.solve_ints

    def lp(*a):
        sol = solve_ints(*a)
        calls.append(("lp", -sol.value))
        return sol

    monkeypatch.setattr(eta, "solve_ints", lp)
    spy_covers(
        monkeypatch,
        lambda cover, *a: calls.append(("greedy",)) or cover(*a),
        lambda cover, *a: cover(*a),
    )
    return calls


def first_bridgeless_cubic(n, seed):
    rng = random.Random(seed)
    while True:
        g = random_cubic(n, rng)
        if is_bridgeless(g)[0]:
            return g


@pytest.mark.parametrize(
    "g, orbits",
    [(named("petersen"), 3), (first_bridgeless_cubic(12, 3), 70)],
    ids=["petersen", "random-n12"],
)
def test_scan_stops_at_the_floor(monkeypatch, g, orbits):
    assert orbit_count_reference(g, enumerate_maximal_matchings(g)) == orbits
    calls = scan_calls(monkeypatch)
    stopped = eta_exact(g)
    # the LP that reached s = 3 is the last LP or greedy cover to run
    assert calls[-1] == ("lp", 3)
    assert ("lp", 3) not in calls[:-1]
    assert len(calls) < 2 * orbits
    # without the stop the scan meets every orbit, to the same result
    calls.clear()
    monkeypatch.setattr(eta, "is_bridgeless", lambda g: (False, 0))
    assert eta_exact(g) == stopped
    assert sum(call[0] == "greedy" for call in calls) == orbits - 1


def test_scan_meets_every_orbit_off_cubic_graphs(monkeypatch):
    # Petersen plus a chord: bridgeless and connected, with degrees 3
    # and 4; s reaches 3 at the third of 24 orbits
    g = from_edge_list(10, list(named("petersen").edges) + [(1, 9)])
    orbits = orbit_count_reference(g, enumerate_maximal_matchings(g))
    assert orbits == 24
    calls = scan_calls(monkeypatch)
    assert eta_exact(g).value == Fraction(1, 3)
    assert ("lp", 3) in calls[:-1]
    assert sum(call[0] == "greedy" for call in calls) == orbits - 1


def greedy_cover_reference(mask, pm_masks):
    """The greedy cover counted to the end; 1 << 60 if it cannot cover."""
    count = 0
    while mask:
        gain, best = max(((pm & mask).bit_count(), -i) for i, pm in enumerate(pm_masks))
        if gain == 0:
            return 1 << 60
        mask &= ~pm_masks[-best]
        count += 1
    return count


@pytest.mark.parametrize("ng", catalog(20), ids=lambda ng: ng.name)
def test_greedy_cover_stops_past_its_bound(ng):
    pms = _perfect_masks(ng)
    rng = random.Random(ng.m)
    for _ in range(200):
        mask = rng.getrandbits(ng.m)
        # a few perfect matchings leave some edges uncoverable
        cover = pms if rng.random() < 0.7 else pms[: rng.randint(1, 3)]
        full = greedy_cover_reference(mask, cover)
        for bound in range(6):
            got = eta._cover_count(mask, cover, 1, bound)
            assert got == (full if full <= bound else bound + 1)


def fold_cover_reference(mask, traces, fold):
    """The fold cover counted to the end, one demand counter per edge:
    each step takes the first trace whose edges carry the most demand
    left; 1 << 60 if it cannot cover."""
    need = {e: fold for e in range(mask.bit_length()) if mask >> e & 1}
    count = 0
    while any(need.values()):
        gains = [sum(need.get(e, 0) for e in range(t.bit_length()) if t >> e & 1)
                 for t in traces]
        if max(gains, default=0) == 0:
            return 1 << 60
        t = traces[gains.index(max(gains))]
        for e in need:
            if t >> e & 1 and need[e]:
                need[e] -= 1
        count += 1
    return count


def sampled_masks(g, rng, k):
    """Up to k maximal matchings of g as edge masks, with the perfect
    matching masks and the traces of the perfect matchings on each."""
    pms = _perfect_masks(g)
    maximals = list(_maximal_masks(g))
    for mask in rng.sample(maximals, min(k, len(maximals))):
        yield mask, pms, eta._maximal_traces(mask, pms)


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + seeded_bridgeless(10),
    ids=lambda g: getattr(g, "name", f"random-n{g.n}"),
)
def test_fold_cover_bounds_the_support_lp(g):
    # weak duality: c traces covering M fold times prove s(M) <= c / fold
    rng = random.Random(g.m)
    skips = 0
    for mask, _, traces in sampled_masks(g, rng, 6):
        s, _ = eta._support_lp_max(mask, traces)
        for fold in range(1, 5):
            for bound in range(13):
                count = eta._cover_count(mask, traces, fold, bound)
                if count <= bound:
                    skips += 1
                    assert s <= Fraction(count, fold) <= Fraction(bound, fold)
    assert skips or not is_bridgeless(g)[0]


@pytest.mark.parametrize("g", catalog(20), ids=lambda g: g.name)
def test_fold_cover_counts_like_the_reference_or_stops_past_its_bound(g):
    rng = random.Random(g.m)
    for mask, pms, traces in sampled_masks(g, rng, 8):
        # a few traces only, or another mask's, leave some edges uncoverable
        cases = [traces, traces[: rng.randint(1, 3)]]
        cases.append(eta._maximal_traces(rng.getrandbits(g.m), pms))
        for cover in cases:
            for fold in range(1, 5):
                full = fold_cover_reference(mask, cover, fold)
                for bound in range(13):
                    got = eta._cover_count(mask, cover, fold, bound)
                    assert got == (full if full <= bound else bound + 1)


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + seeded_bridgeless(20),
    ids=lambda g: getattr(g, "name", f"random-n{g.n}"),
)
def test_fold_cover_skip_changes_no_result(monkeypatch, g):
    skipping = eta_exact(g)
    spy_covers(
        monkeypatch,
        lambda cover, *a: cover(*a),
        lambda cover, mask, t, q, bound: bound + 1,
    )
    assert eta_exact(g) == skipping


def eta_catalog_graphs():
    """The graphs of the eta-catalog bench workload at seed 1: catalog(20)
    and bridgeless cubic graphs drawn by perfbench/inputs.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(1)
    graphs = {g.name: g for g in catalog(20)}
    for i, n in enumerate((12, 14, 14, 16)):
        graphs[f"random{i}-n{n}"] = from_edge_list(n, inputs.bridgeless_cubic(n, rng))
    return graphs


# Support LPs per eta-catalog graph; 124 in all before the fold cover
LPS_PER_GRAPH = {
    "k4": 1, "k33": 1, "gp(3,1)": 2, "cube": 2, "gp(5,1)": 2, "petersen": 3,
    "gp(6,1)": 4, "gp(6,2)": 1, "gp(8,3)": 4, "blanusa1": 6, "blanusa2": 8,
    "random0-n12": 3, "random1-n14": 5, "random2-n14": 2, "random3-n16": 2,
}


def test_eta_catalog_lp_counts(monkeypatch):
    calls = scan_calls(monkeypatch)
    counts = {}
    for name, g in eta_catalog_graphs().items():
        calls.clear()
        eta_exact(g)
        counts[name] = sum(call[0] == "lp" for call in calls)
    assert counts == LPS_PER_GRAPH
    assert sum(counts.values()) == 46


@pytest.mark.parametrize(
    "bad",
    [
        (1, 0, 2, 3, 4, 5, 6, 7, 8, 9),  # swaps two vertices only
        (0, 0, 2, 3, 4, 5, 6, 7, 8, 9),  # not a permutation
    ],
)
def test_tampered_generator_raises_internal_error(monkeypatch, bad):
    monkeypatch.setattr(symmetry, "_vertex_generators", lambda g: [bad])
    with pytest.raises(errors.InternalError):
        eta_exact(named("petersen"))
