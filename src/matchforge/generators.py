"""Constructions for cubic graphs: catalog entries, a bridged join and
the eta = 1/3 family.

Each builder writes its graph's edge list directly: the Blanusa snarks
as two Petersen copies less the dot-product cut plus four cross edges,
and each family member as two copies of the last one less one edge plus
two cross edges, from Petersen and the seed matching {0, 8, 12}.  All
builders are deterministic: the same call yields the same vertex
numbering and edge-id layout, so certificates keyed on ids stay valid
across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BadParameters,
    DuplicateEdge,
    InternalError,
    NotConnected,
    SelfLoop,
    UnknownLabel,
)
from .graphs import CubicGraph, as_cubic, check_vertex_count, from_edge_list


@dataclass(frozen=True)
class GraphFlags:
    """Known structural facts; None means not asserted."""

    planar: bool | None = None
    bipartite: bool | None = None
    hamiltonian: bool | None = None
    snark: bool | None = None


class NamedGraph(CubicGraph):
    """A catalog graph: a CubicGraph plus a name and metadata flags."""

    __slots__ = ("name", "flags")

    def __init__(
        self,
        n: int,
        edges: tuple[tuple[int, int], ...],
        name: str,
        flags: GraphFlags,
    ):
        super().__init__(n, edges)
        self.name = name
        self.flags = flags

    def __repr__(self) -> str:
        return f"NamedGraph({self.name!r}, n={self.n}, m={self.m})"


def gp(n: int, k: int) -> CubicGraph:
    """Generalized Petersen graph on 2n vertices.

    Outer cycle u_0..u_{n-1} (ids 0..n-1), spokes u_i v_i, inner star
    v_i v_{i+k mod n} (v_i has id n+i).  Requires n >= 3 and
    1 <= k <= floor((n-1)/2), which keeps the graph simple and cubic.
    """
    if n < 3 or k < 1 or 2 * k >= n:
        raise BadParameters(f"gp({n}, {k}): need n >= 3 and 1 <= k <= (n-1)//2")
    check_vertex_count(2 * n)
    pairs: list[tuple[int, int]] = []
    pairs.extend((i, (i + 1) % n) for i in range(n))
    pairs.extend((i, n + i) for i in range(n))
    pairs.extend((n + i, n + (i + k) % n) for i in range(n))
    return as_cubic(from_edge_list(2 * n, pairs))


_K4_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_K33_PAIRS = [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]


def _petersen() -> CubicGraph:
    return gp(5, 2)


def _blanusa(distance: int) -> CubicGraph:
    """Dot product of two Petersen copies, built directly.

    The first copy loses the adjacent vertices 0 and 1 and keeps the
    rest as 0..7; the second copy follows as 8..17 and loses two
    disjoint edges whose endpoint distance is `distance` (1 or 2), the
    lexicographically first pair with that distance.  Four cross edges,
    listed as (second-copy vertex, first-copy vertex), join the ends of
    the first removed edge to 0's remaining neighbours and those of the
    second to 1's.  Edge ids follow that order: first copy, second
    copy, cross edges.  A 3-edge-colouring of the product would give
    one of the Petersen factors one, so both variants are snarks.
    """
    if distance == 2:
        removed = (0, 8)  # edges (0,1) and (3,8)
        pairing = ((0, 4), (1, 5), (3, 2), (8, 6))
    elif distance == 1:
        removed = (0, 2)  # edges (0,1) and (2,3)
        pairing = ((0, 4), (1, 5), (2, 2), (3, 6))
    else:
        raise BadParameters(f"blanusa distance must be 1 or 2, got {distance}")
    p = _petersen().edges
    pairs = [(u - 2, v - 2) for u, v in p if u > 1]  # u < v
    pairs += [(8 + u, 8 + v) for i, (u, v) in enumerate(p) if i not in removed]
    pairs += [(lv - 2, 8 + rv) for rv, lv in pairing]
    return as_cubic(from_edge_list(18, pairs))


# The catalog, smallest first: (name, vertex count, builder, flags), the
# flags in GraphFlags' field order (planar, bipartite, hamiltonian,
# snark).  Each builder returns a CubicGraph with that many vertices, so
# catalog(max_vertices) builds only the entries that fit.  The gp(n,k)
# entries are spelled out by gp(n, k), so named() serves only the other
# seven.
_CATALOG = (
    ("k4", 4, lambda: as_cubic(from_edge_list(4, _K4_PAIRS)), (True, False, True, False)),
    ("k33", 6, lambda: as_cubic(from_edge_list(6, _K33_PAIRS)), (False, True, True, False)),
    ("gp(3,1)", 6, lambda: gp(3, 1), (True, False, True, False)),
    ("cube", 8, lambda: gp(4, 1), (True, True, True, False)),
    ("gp(5,1)", 10, lambda: gp(5, 1), (True, False, True, False)),
    ("petersen", 10, _petersen, (False, False, False, True)),
    ("gp(6,1)", 12, lambda: gp(6, 1), (True, True, True, False)),
    ("gp(6,2)", 12, lambda: gp(6, 2), (True, False, True, False)),
    ("gp(8,3)", 16, lambda: gp(8, 3), (False, True, True, False)),
    ("blanusa1", 18, lambda: _blanusa(2), (False, False, False, True)),
    ("blanusa2", 18, lambda: _blanusa(1), (False, False, False, True)),
    ("nauru", 24, lambda: gp(12, 5), (False, True, True, False)),
)


def _catalog_graph(
    name: str, build: Callable[[], CubicGraph], flags: tuple[bool, ...]
) -> NamedGraph:
    g = build()
    return NamedGraph(g.n, g.edges, name, GraphFlags(*flags))


def named(label: str) -> NamedGraph:
    """Catalog lookup by label.

    Labels: k4, k33, cube, petersen, nauru, blanusa1, blanusa2.
    Raises UnknownLabel on anything else.
    """
    for name, _, build, flags in _CATALOG:
        if name == label and not label.startswith("gp("):
            return _catalog_graph(name, build, flags)
    raise UnknownLabel(f"no catalog entry named {label!r}")


def catalog(max_vertices: int | None = None) -> tuple[NamedGraph, ...]:
    """All stock graphs, smallest first; with max_vertices, only those
    with at most that many vertices, and only those are built.

    Includes the named labels plus the prisms and two other small
    generalized Petersen graphs, so bound checks have bipartite,
    planar and snark representatives at every small order.
    """
    return tuple(
        _catalog_graph(name, build, flags)
        for name, n, build, flags in _CATALOG
        if max_vertices is None or n <= max_vertices
    )


# ---------------------------------------------------------------------------
# bridged join


def bridge_join(g: CubicGraph, e: int, h: CubicGraph, f: int) -> CubicGraph:
    """Subdivide one edge in each graph and connect the two new vertices.

    The connecting edge is a bridge, so the result is cubic but not
    bridgeless.  Used to produce test instances with unmatchable edges.
    """
    eu, ev = g.endpoints(e)
    fu, fv = h.endpoints(f)
    s1 = g.n + h.n
    s2 = s1 + 1
    pairs = [(a, b) for i, (a, b) in enumerate(g.edges) if i != e]
    pairs += [(g.n + a, g.n + b) for i, (a, b) in enumerate(h.edges) if i != f]
    pairs += [(eu, s1), (ev, s1), (g.n + fu, s2), (g.n + fv, s2), (s1, s2)]
    return as_cubic(from_edge_list(g.n + h.n + 2, pairs))


# ---------------------------------------------------------------------------
# an infinite family pinned to the 1/3 lower bound


def eta_third_family(depth: int) -> tuple[CubicGraph, frozenset[int]]:
    """Member `depth` of a doubling snark family, with its witness matching.

    Member 0 is the Petersen graph with {0, 8, 12}, the first maximal
    matching of size 3 in enumeration order.  Member d joins two copies
    of member d-1: in each copy, take the first non-matching edge
    joining a saturated vertex to an unsaturated one, delete it, and
    reconnect the four loose ends crosswise so that every new edge again
    has exactly one saturated endpoint.  The matching stays maximal, its
    unsaturated set stays independent, and |M| = 3|V|/10 throughout.
    """
    if depth < 0 or depth > 11:
        raise BadParameters(f"family depth must be in 0..11, got {depth}")
    g: CubicGraph = _petersen()
    m = frozenset({0, 8, 12})
    for _ in range(depth):
        g, m = _family_join(g, m)
    return g, m


def _family_join(
    g: CubicGraph, m: frozenset[int]
) -> tuple[CubicGraph, frozenset[int]]:
    """Two copies of g less the cut edge, the second at offset g.n, then
    the two cross edges.  Edge e of m keeps its place in the first copy
    less one if it came after the cut, and the copy's ids follow."""
    saturated = set()
    for eid in m:
        saturated.update(g.edges[eid])
    for cut, (u, v) in enumerate(g.edges):
        if cut not in m and (u in saturated) != (v in saturated):
            break
    else:
        raise InternalError("no join edge with exactly one saturated endpoint")
    sat, unsat = (u, v) if u in saturated else (v, u)
    n = g.n
    rest = [e for eid, e in enumerate(g.edges) if eid != cut]
    pairs = rest + [(n + a, n + b) for a, b in rest]
    # saturated end gains the other copy's unsaturated end and vice versa
    pairs += [(sat, n + unsat), (unsat, n + sat)]
    kept = [e - (e > cut) for e in m]
    new_m = frozenset(kept + [e + len(rest) for e in kept])
    return as_cubic(from_edge_list(2 * n, pairs)), new_m


# ---------------------------------------------------------------------------
# auxiliary instances

_RANDOM_CUBIC_TRIES = 10_000


def random_cubic(n: int, rng: random.Random) -> CubicGraph:
    """Uniform-ish connected cubic graph via stub pairing with rejection.

    A pairing with a loop, a repeated edge or more than one component
    is drawn again, up to _RANDOM_CUBIC_TRIES times.  Raises
    VertexOutOfRange past graphs.MAX_VERTICES before drawing anything.
    """
    if n < 4 or n % 2:
        raise BadParameters(f"cubic graphs need even n >= 4, got {n}")
    check_vertex_count(n)
    for _ in range(_RANDOM_CUBIC_TRIES):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        try:
            return as_cubic(from_edge_list(n, zip(stubs[::2], stubs[1::2])))
        except (SelfLoop, DuplicateEdge, NotConnected):
            continue
    raise BadParameters(f"no simple connected pairing found for n={n}")


def odd_component_example() -> CubicGraph:
    """A 22-vertex bipartite bridgeless cubic graph built for parity proofs.

    Edges 0 and 1 form a 2-matching whose endpoint deletion splits the
    rest into three components, two of odd size: two K_{2,3} blocks and
    a cube missing one edge.  Any perfect matching therefore uses at
    most one of the two edges.
    """
    pairs = [
        (0, 1), (2, 3),
        # first K_{2,3}: hubs 4,5 and stubs 6,7,8
        (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
        # second K_{2,3}: hubs 9,10 and stubs 11,12,13
        (9, 11), (9, 12), (9, 13), (10, 11), (10, 12), (10, 13),
        # cube on 14..21 with edge (14,15) removed
        (15, 16), (16, 17), (14, 17),
        (14, 18), (15, 19), (16, 20), (17, 21),
        (18, 19), (19, 20), (20, 21), (18, 21),
        # wiring
        (1, 6), (1, 7), (3, 8), (3, 14),
        (0, 11), (0, 12), (2, 13), (2, 15),
    ]
    return as_cubic(from_edge_list(22, pairs))
