"""Generators: catalog graphs, joins, the snark family, random instances."""

import hashlib
import random
import tracemalloc

import pytest

from matchforge import errors, generators
from matchforge.classify import (
    is_bipartite,
    is_bridgeless,
    is_independent,
    is_snark,
)
from matchforge.generators import (
    bridge_join,
    catalog,
    eta_third_family,
    gp,
    named,
    odd_component_example,
    random_cubic,
)
from matchforge.graphs import CubicGraph
from matchforge.matching import enumerate_maximal_matchings, is_matching, saturated

# A dot product of two Petersen copies, both variants, frozen from the
# construction so refactors cannot silently relabel.
BLANUSA1_EDGES = (
    (0, 1), (1, 2), (0, 5), (1, 6), (2, 7), (3, 5), (4, 6), (5, 7), (3, 6),
    (4, 7), (9, 10), (10, 11), (11, 12), (8, 12), (8, 13), (9, 14), (10, 15),
    (12, 17), (13, 15), (14, 16), (15, 17), (13, 16), (14, 17), (2, 8),
    (3, 9), (0, 11), (4, 16),
)
BLANUSA2_EDGES = (
    (0, 1), (1, 2), (0, 5), (1, 6), (2, 7), (3, 5), (4, 6), (5, 7), (3, 6),
    (4, 7), (9, 10), (11, 12), (8, 12), (8, 13), (9, 14), (10, 15), (11, 16),
    (12, 17), (13, 15), (14, 16), (15, 17), (13, 16), (14, 17), (2, 8),
    (3, 9), (0, 10), (4, 11),
)


def test_gp_structure():
    g = gp(7, 2)
    assert g.n == 14 and g.m == 21
    for i in range(7):
        assert g.has_edge(i, (i + 1) % 7)  # outer cycle
        assert g.has_edge(i, 7 + i)  # spoke
        assert g.has_edge(7 + i, 7 + (i + 2) % 7)  # inner star


def test_gp_parameter_validation():
    for n, k in [(2, 1), (5, 0), (6, 3), (4, 2)]:
        with pytest.raises(errors.BadParameters):
            gp(n, k)


def test_named_labels_and_flags():
    p = named("petersen")
    assert p.name == "petersen"
    assert p.n == 10 and p.m == 15
    assert p.flags.snark is True and p.flags.hamiltonian is False
    c = named("cube")
    assert c.edges == gp(4, 1).edges
    assert c.flags.bipartite is True
    with pytest.raises(errors.UnknownLabel):
        named("nosuchgraph")


def test_catalog_ordered_and_filtered():
    all_names = [g.name for g in catalog()]
    assert all_names == [
        "k4", "k33", "gp(3,1)", "cube", "gp(5,1)", "petersen",
        "gp(6,1)", "gp(6,2)", "gp(8,3)", "blanusa1", "blanusa2", "nauru",
    ]
    sizes = [g.n for g in catalog()]
    assert sizes == sorted(sizes)
    assert all(g.n <= 16 for g in catalog(16))
    assert [g.name for g in catalog(4)] == ["k4"]


def test_catalog_builds_only_the_entries_that_fit(monkeypatch):
    full = catalog()

    def key(graphs):
        return [(g.name, g.n, g.edges, g.flags, type(g)) for g in graphs]

    for k in range(4, 25):
        assert key(catalog(k)) == key(g for g in full if g.n <= k), k
    built = []
    spied = tuple(
        (name, n, lambda build=build, name=name: built.append(name) or build(), flags)
        for name, n, build, flags in generators._CATALOG
    )
    monkeypatch.setattr(generators, "_CATALOG", spied)
    assert key(catalog(12)) == key(g for g in full if g.n <= 12)
    assert built == [g.name for g in full if g.n <= 12]


def test_named_is_the_catalog_entry_of_its_label():
    entries = {g.name: g for g in catalog()}
    for label in ["k4", "k33", "cube", "petersen", "nauru", "blanusa1", "blanusa2"]:
        g, entry = named(label), entries[label]
        assert (g.edges, g.flags, type(g)) == (entry.edges, entry.flags, type(entry))
    for name in ["gp(3,1)", "gp(5,1)", "gp(6,1)", "gp(6,2)", "gp(8,3)"]:
        assert name in entries
        with pytest.raises(errors.UnknownLabel):
            named(name)


def test_catalog_flags_match_classifiers():
    for g in catalog(16):
        bip, _ = is_bipartite(g)
        assert bip == g.flags.bipartite, g.name
        bridgeless, _ = is_bridgeless(g)
        assert bridgeless, g.name


def test_blanusa_frozen_edge_lists():
    assert named("blanusa1").edges == BLANUSA1_EDGES
    assert named("blanusa2").edges == BLANUSA2_EDGES


def test_bridge_join_creates_bridge():
    k4 = named("k4")
    g = bridge_join(k4, 0, k4, 0)
    assert g.n == 10 and g.m == 15
    bridgeless, witness = is_bridgeless(g)
    assert not bridgeless
    u, v = g.endpoints(witness)
    assert {u, v} == {8, 9}  # the two subdivision vertices


def test_bridge_join_refuses_an_edge_id_out_of_range():
    k4, petersen = named("k4"), named("petersen")
    with pytest.raises(errors.EdgeOutOfRange, match=r"^edge id 6 not in 0\.\.5$"):
        bridge_join(k4, k4.m, petersen, 0)
    with pytest.raises(errors.EdgeOutOfRange, match=r"^edge id -1 not in 0\.\.14$"):
        bridge_join(k4, 0, petersen, -1)


def test_family_base_is_petersen():
    g, m = eta_third_family(0)
    assert g.edges == gp(5, 2).edges
    assert sorted(m) == [0, 8, 12]


def test_family_seed_is_petersens_first_size3_maximal_matching():
    # eta_third_family starts from this matching as a constant; it is
    # the first of size 3 that the enumeration yields on _petersen()
    m = next(c for c in enumerate_maximal_matchings(generators._petersen()) if len(c) == 3)
    assert tuple(sorted(m)) == (0, 8, 12)


def test_family_invariants_first_members():
    for d in range(4):
        g, m = eta_third_family(d)
        assert g.n == 10 * 2**d
        assert g.m == 15 * 2**d
        assert 10 * len(m) == 3 * g.n
        # a matching whose exposed set is independent is maximal
        assert is_matching(g, m)
        exposed = set(range(g.n)) - saturated(g, m)
        assert is_independent(g, exposed)
        bridgeless, _ = is_bridgeless(g)
        assert bridgeless
        assert is_snark(g)


# Digest of eta_third_family(d), d = 0..6: (d, n, edges, sorted
# matching) per member, computed at commit faaa622, before the family
# wrote its edge lists directly.
FAMILY_SHA256 = (
    "165b8e12f272240f0c9d72273a1717a07027ada2a8558039e30abb652fa5f1df"
)


def test_family_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for d in range(7):
        g, m = eta_third_family(d)
        digest.update(repr((d, g.n, g.edges, sorted(m))).encode() + b"\n")
    assert digest.hexdigest() == FAMILY_SHA256


def test_family_depth_validation():
    with pytest.raises(errors.BadParameters):
        eta_third_family(-1)
    with pytest.raises(errors.BadParameters):
        eta_third_family(12)


def test_random_cubic_seeded(seed=20260814):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.choice([4, 6, 8, 10, 12, 14])
        g = random_cubic(n, rng)
        assert isinstance(g, CubicGraph)
        assert g.n == n and g.m == 3 * n // 2


def test_random_cubic_reproducible():
    a = random_cubic(12, random.Random(7))
    b = random_cubic(12, random.Random(7))
    assert a.edges == b.edges


def test_random_cubic_rejects_bad_n():
    for n in (2, 5, -4):
        with pytest.raises(errors.BadParameters):
            random_cubic(n, random.Random(0))


def test_odd_component_example_shape():
    g = odd_component_example()
    assert g.n == 22 and g.m == 33
    bip, _ = is_bipartite(g)
    assert bip
    bridgeless, _ = is_bridgeless(g)
    assert bridgeless


def _random_cubic_draws():
    """Seeded random_cubic draws at sizes 4..50, each seed's stream
    followed by the next number its rng gives."""
    for seed in range(100):
        rng = random.Random(seed)
        for n in (4, 6, 8, 10, 12, 16, 20, 30, 50):
            g = random_cubic(n, rng)
            yield repr((type(g).__name__, g.n, g.edges))
        yield repr(rng.random())


# Digest of _random_cubic_draws, computed at commit 24f734a, before the
# rejection loop left its simplicity and connectivity checks to
# from_edge_list and as_cubic.
RANDOM_CUBIC_SHA256 = (
    "09cad1512498a6ade0420604926ea7e3d768030333f6f83bd0675da4a43cb04f"
)


def test_random_cubic_draws_match_the_pinned_digest():
    digest = hashlib.sha256()
    for line in _random_cubic_draws():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == RANDOM_CUBIC_SHA256


@pytest.mark.parametrize(
    "build", [lambda: gp(200_000, 1), lambda: random_cubic(200_000, random.Random(0))],
    ids=["gp", "random_cubic"],
)
def test_oversized_builders_refuse_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(errors.VertexOutOfRange, match="not in 0..65536"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
