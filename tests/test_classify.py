"""Classifiers: bridges, bipartiteness, edge colouring, hamiltonicity."""

import random

import pytest

from matchforge import errors
from matchforge.errors import Budget
from matchforge.classify import (
    hamiltonian_cycle,
    is_bipartite,
    is_bridgeless,
    is_independent,
    is_snark,
    tait_coloring,
)
from matchforge.generators import bridge_join, catalog, gp, named, random_cubic
from matchforge.graphs import from_edge_list
from matchforge.matching import is_matching, saturated


def test_bridgeless_catalog():
    for g in catalog():
        ok, witness = is_bridgeless(g)
        assert ok and witness is None, g.name


def test_bridge_detected_with_witness():
    g = bridge_join(named("k4"), 0, named("k4"), 0)
    ok, witness = is_bridgeless(g)
    assert not ok
    assert sorted(g.endpoints(witness)) == [8, 9]


def test_path_edges_are_bridges():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    ok, witness = is_bridgeless(g)
    assert not ok and witness in (0, 1)


def test_bipartite_with_certificate():
    for label in ("k33", "cube", "nauru"):
        g = named(label)
        ok, colours = is_bipartite(g)
        assert ok
        for u, v in g.edges:
            assert colours[u] != colours[v]
    for label in ("k4", "petersen", "blanusa1"):
        ok, colours = is_bipartite(named(label))
        assert not ok and colours is None


def test_is_independent():
    g = named("petersen")
    assert is_independent(g, [0, 2, 8, 9])
    assert not is_independent(g, [0, 1])
    assert is_independent(g, [])


def test_tait_coloring_partitions_into_perfect_matchings():
    for label in ("k4", "k33", "cube", "nauru"):
        g = named(label)
        colours = tait_coloring(g)
        assert colours is not None
        for c in (0, 1, 2):
            cls = frozenset(e for e in range(g.m) if colours[e] == c)
            assert len(cls) == g.n // 2
            assert is_matching(g, cls)
            assert saturated(g, cls) == frozenset(range(g.n))


def test_tait_coloring_none_on_snarks():
    for label in ("petersen", "blanusa1", "blanusa2"):
        assert tait_coloring(named(label)) is None


def test_tait_coloring_budget():
    with pytest.raises(errors.BudgetExceeded, match="search budget exhausted"):
        tait_coloring(named("petersen"), budget=Budget(search_nodes=5))


def test_is_snark_catalog():
    snarks = {g.name for g in catalog() if is_snark(g)}
    assert snarks == {"petersen", "blanusa1", "blanusa2"}
    assert {g.name for g in catalog() if g.flags.snark} == snarks


def test_hamiltonian_cycle_valid_when_found():
    for label in ("k4", "k33", "cube", "nauru"):
        g = named(label)
        cycle = hamiltonian_cycle(g)
        assert cycle is not None
        assert cycle[0] == 0
        assert sorted(cycle) == list(range(g.n))
        for i in range(g.n):
            assert g.has_edge(cycle[i], cycle[(i + 1) % g.n])


def test_hamiltonian_cycle_absent():
    assert hamiltonian_cycle(named("petersen")) is None
    # both known non-hamiltonian snarks of order 18
    assert hamiltonian_cycle(named("blanusa1")) is None
    assert hamiltonian_cycle(named("blanusa2")) is None


def test_classifiers_on_degenerate_graphs():
    # an edgeless graph is coloured by the empty colouring, not refused
    assert tait_coloring(from_edge_list(0, [])) == ()
    assert tait_coloring(from_edge_list(4, [])) == ()
    # a cubic graph with a bridge has no 3-edge-colouring, yet is no snark
    bridged = bridge_join(named("k4"), 0, named("k4"), 0)
    assert tait_coloring(bridged) is None
    assert not is_snark(bridged)
    # no cycle passes through fewer than two vertices
    assert hamiltonian_cycle(from_edge_list(0, [])) is None
    assert hamiltonian_cycle(from_edge_list(1, [])) is None


def test_hamiltonian_cycle_budget():
    with pytest.raises(errors.BudgetExceeded, match="search budget exhausted"):
        hamiltonian_cycle(named("nauru"), budget=Budget(search_nodes=3))


def test_random_cubic_classifier_consistency(seed=404):
    # a snark is never 3-edge-colourable, never bipartite, has no bridge
    rng = random.Random(seed)
    for _ in range(15):
        g = random_cubic(rng.choice([6, 8, 10]), rng)
        colours = tait_coloring(g)
        snark = is_snark(g)
        bridgeless, _ = is_bridgeless(g)
        if snark:
            assert colours is None and bridgeless
        if colours is None and bridgeless:
            assert snark


def test_gp_colourability_sweep():
    # gp(5,2) is the only non-colourable generalized Petersen graph here
    for n in range(3, 11):
        for k in range(1, (n - 1) // 2 + 1):
            colours = tait_coloring(gp(n, k))
            if (n, k) == (5, 2):
                assert colours is None
            else:
                assert colours is not None
