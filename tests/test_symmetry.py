"""Automorphism generators and the orbit scan of exact eta."""

import random
import time

import pytest

from matchforge import errors, eta, symmetry
from matchforge.classify import is_bridgeless
from matchforge.eta import _add_orbit, _orbit_tables, eta_exact
from matchforge.generators import catalog, gp, named, random_cubic
from matchforge.graphs import from_edge_list
from matchforge.matching import enumerate_maximal_matchings
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
    kw = {} if vertex_limit is None else {"vertex_limit": vertex_limit}
    maximals = enumerate_maximal_matchings(g, **kw)
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
    list(catalog(20)) + seeded_bridgeless(20),
    ids=lambda g: getattr(g, "name", f"random-n{g.n}"),
)
def test_orbit_scan_changes_no_result(monkeypatch, g):
    with_orbits = eta_exact(g)
    monkeypatch.setattr(eta, "edge_automorphisms", lambda g: [])
    assert eta_exact(g) == with_orbits


def test_gp83_meets_each_orbit_once(monkeypatch):
    calls = []
    solve_ints = eta.solve_ints
    greedy = eta._greedy_cover_count
    monkeypatch.setattr(
        eta, "solve_ints", lambda *a: calls.append("lp") or solve_ints(*a)
    )
    monkeypatch.setattr(
        eta, "_greedy_cover_count", lambda *a: calls.append("greedy") or greedy(*a)
    )
    eta_exact(gp(8, 3))
    assert 0 < calls.count("lp") <= 12
    # 15 orbits: the first one is solved without a greedy cover
    assert calls.count("greedy") <= 14


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
