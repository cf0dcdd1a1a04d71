"""Graph core: construction, validation, components, formats."""

import random

import pytest

from matchforge import errors
from matchforge.graphs import (
    CubicGraph,
    Graph,
    as_cubic,
    components,
    format_edge_list,
    from_edge_list,
    from_graph6,
    parse_edge_list,
    subgraph,
)

K4_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

PETERSEN_PAIRS = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (6, 8), (7, 9), (5, 8), (6, 9),
]


def petersen() -> Graph:
    return from_edge_list(10, PETERSEN_PAIRS)


def test_from_edge_list_basics():
    g = from_edge_list(4, K4_PAIRS)
    assert g.n == 4 and g.m == 6
    assert g.edges[0] == (0, 1)
    assert g.degree(0) == 3
    assert g.neighbors(2) == (0, 1, 3)
    assert g.edge_id(3, 1) == 4
    assert g.edge_id(0, 0) is None
    assert g.has_edge(2, 0)
    assert g.endpoints(5) == (2, 3)


def test_pair_normalisation_and_ids():
    g = from_edge_list(3, [(2, 1), (0, 2), (1, 0)])
    assert g.edges == ((1, 2), (0, 2), (0, 1))
    assert g.edge_id(2, 1) == 0


def test_rejects_self_loop():
    with pytest.raises(errors.SelfLoop):
        from_edge_list(2, [(1, 1)])


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(errors.DuplicateEdge):
        from_edge_list(3, [(0, 1), (1, 0)])


def test_rejects_vertex_out_of_range():
    with pytest.raises(errors.VertexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(errors.VertexOutOfRange):
        from_edge_list(-1, [])
    with pytest.raises(errors.VertexOutOfRange):
        from_edge_list((1 << 16) + 1, [])


def test_as_cubic_accepts_petersen():
    g = as_cubic(petersen())
    assert isinstance(g, CubicGraph)
    assert g.edges == petersen().edges


def test_as_cubic_keeps_every_answer():
    g = petersen()
    c = as_cubic(g)
    assert (c.n, c.m, c.edges, c.adj) == (g.n, g.m, g.edges, g.adj)
    for u in range(-1, g.n + 1):
        for v in range(-1, g.n + 1):
            assert c.edge_id(u, v) == g.edge_id(u, v)
            assert c.has_edge(u, v) == g.has_edge(u, v)
    assert [c.endpoints(e) for e in range(c.m)] == list(g.edges)
    assert c == g and hash(c) == hash(g)
    assert repr(c) == "CubicGraph(n=10, m=15)"


def test_as_cubic_reports_offending_vertex():
    with pytest.raises(errors.NotCubic) as exc:
        as_cubic(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))
    assert exc.value.vertex == 0
    assert exc.value.degree == 2


def test_as_cubic_rejects_disconnected():
    pairs = K4_PAIRS + [(u + 4, v + 4) for u, v in K4_PAIRS]
    with pytest.raises(errors.NotConnected):
        as_cubic(from_edge_list(8, pairs))


def test_components_and_parity():
    pairs = [(0, 1), (1, 2), (3, 4)]
    g = from_edge_list(6, pairs)
    comps = components(g)
    assert comps == ((0, 1, 2), (3, 4), (5,))


def _remainder(g, drop):
    """g less the vertices in drop, the rest renumbered in ascending order."""
    new_id = {v: i for i, v in enumerate(v for v in range(g.n) if v not in drop)}
    pairs = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    return from_edge_list(len(new_id), pairs)


def test_components_counts_match_deletion(seed=20260814):
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(6, 14)
        pairs = set()
        for _ in range(rng.randint(4, 18)):
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        g = from_edge_list(n, sorted(pairs))
        drop = set(rng.sample(range(n), rng.randint(0, n // 2)))
        sub = _remainder(g, drop)
        assert sub.n == n - len(drop)
        assert sum(len(c) for c in components(sub)) == sub.n
        # every surviving edge had both endpoints kept
        kept = set(range(n)) - drop
        survivors = sum(1 for u, v in g.edges if u in kept and v in kept)
        assert sub.m == survivors


def test_subgraph_numbers_the_ends_in_order_and_keeps_the_edge_order():
    g = from_edge_list(7, [(0, 1), (2, 5), (1, 3), (4, 6), (3, 5)])
    # edges 4, 1, 2 are (3, 5), (2, 5), (1, 3); their ends 1, 2, 3, 5
    # become 0, 1, 2, 3, and vertices 0, 4 and 6 are left out
    sub = subgraph(g, [4, 1, 2])
    assert (sub.n, sub.edges) == (4, ((2, 3), (1, 3), (0, 2)))
    assert subgraph(g, []) == from_edge_list(0, [])


def test_subgraph_of_the_kept_edges_is_the_remainder_without_isolated_vertices(
    seed=20261022,
):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = from_edge_list(n, pairs)
        drop = set(rng.sample(range(n), rng.randint(0, n)))
        kept = [e for e, (u, v) in enumerate(g.edges) if u not in drop and v not in drop]
        rest = _remainder(g, drop)
        sub = subgraph(g, kept)
        if all(rest.degree(v) for v in range(rest.n)):
            assert sub == rest
        else:
            assert sub.n < rest.n and sub.m == rest.m


def test_edge_list_round_trip():
    g = petersen()
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parse_errors():
    with pytest.raises(errors.ParseError):
        parse_edge_list("")
    with pytest.raises(errors.ParseError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(errors.ParseError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(errors.ParseError, match="bad header 'three 1'"):
        parse_edge_list("three 1\n0 1\n")
    with pytest.raises(errors.ParseError, match="bad edge line '0 1 2'"):
        parse_edge_list("3 1\n0 1 2\n")
    with pytest.raises(errors.ParseError, match="bad edge line '0 x'"):
        parse_edge_list("3 1\n0 x\n")


def test_edge_list_skips_comments_and_blanks():
    text = "# header\n\n4 2\n0 1\n\n# tail\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.edges == ((0, 1), (2, 3))


def _encode_graph6(g: Graph) -> str:
    # Independent encoder used as the oracle for the reader.
    assert g.n <= 62
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def test_graph6_round_trip_small_graphs(seed=987):
    rng = random.Random(seed)
    samples = [from_edge_list(4, K4_PAIRS), petersen()]
    for _ in range(25):
        n = rng.randint(2, 13)
        pairs = set()
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        samples.append(from_edge_list(n, sorted(pairs)))
    for g in samples:
        decoded = from_graph6(_encode_graph6(g))
        assert decoded.n == g.n
        assert set(decoded.edges) == set(g.edges)


def test_graph6_accepts_header_tag():
    g = from_graph6(">>graph6<<" + _encode_graph6(petersen()))
    assert g.n == 10 and g.m == 15


def test_graph6_rejects_garbage():
    with pytest.raises(errors.ParseError):
        from_graph6("")
    with pytest.raises(errors.ParseError):
        from_graph6("C")  # truncated body
    with pytest.raises(errors.ParseError, match="truncated graph6 size prefix"):
        from_graph6("~?")
    with pytest.raises(errors.ParseError, match="characters out of range"):
        from_graph6("C>")  # '>' is below '?'
    with pytest.raises(errors.VertexOutOfRange, match="unsupported graph6 size prefix"):
        from_graph6("~~" + "?" * 6)  # the 8-byte form of n >= 258048


def test_graph6_long_form():
    # n = 63 needs the 4-byte form: '~' and n in three 6-bit groups
    g = from_graph6("~??~" + "?" * 326)  # 63 * 62 / 2 = 1953 bits, 6 a character
    assert g.n == 63 and g.m == 0
