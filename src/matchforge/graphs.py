"""Immutable undirected simple graphs with stable integer ids.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with
u < v; the edge id is the position in the edge tuple, fixed at
construction.  Every search and certificate in the package refers to
these ids, so they never change once a Graph exists.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    EdgeOutOfRange,
    NotConnected,
    NotCubic,
    ParseError,
    SelfLoop,
    VertexOutOfRange,
)

MAX_VERTICES = 1 << 16


class Graph:
    """Simple undirected graph, frozen after construction.

    Use from_edge_list rather than the constructor; the factory applies
    all validation.
    """

    __slots__ = ("n", "edges", "adj", "_pair_index")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.edges = edges
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        index: dict[tuple[int, int], int] = {}
        for eid, (u, v) in enumerate(edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
            index[(u, v)] = eid
        # neighbour lists in edge-id order; searches rely on this
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(a) for a in adj
        )
        self._pair_index = index

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self.adj[v])

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v, in id order."""
        return tuple(eid for _, eid in self.adj[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Id of edge {u, v}, or None if absent."""
        if u > v:
            u, v = v, u
        return self._pair_index.get((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not 0 <= eid < len(self.edges):
            raise EdgeOutOfRange(f"edge id {eid} not in 0..{len(self.edges) - 1}")
        return self.edges[eid]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class CubicGraph(Graph):
    """A connected 3-regular Graph.  Produced by as_cubic."""


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from unordered vertex pairs.

    Pairs are normalised to (min, max); ids follow input order.
    Raises SelfLoop, DuplicateEdge or VertexOutOfRange on bad input.
    """
    check_vertex_count(n)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"edge ({u}, {v})")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) repeated")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, tuple(edges))


def check_vertex_count(n: int) -> None:
    """Raise VertexOutOfRange unless 0 <= n <= MAX_VERTICES; builders
    call it before they allocate anything of size n."""
    if n < 0 or n > MAX_VERTICES:
        raise VertexOutOfRange(f"vertex count {n} not in 0..{MAX_VERTICES}")


def as_cubic(g: Graph) -> CubicGraph:
    """Check 3-regularity and connectivity, then rebrand the graph.

    Raises NotCubic with the first offending vertex, or NotConnected.
    The CubicGraph shares g's edges, adjacency and pair index, which
    are never changed after construction, rather than building them
    again.
    """
    for v in range(g.n):
        if g.degree(v) != 3:
            raise NotCubic(v, g.degree(v))
    count = len(components(g))
    if count > 1:
        raise NotConnected(f"{count} components")
    out = object.__new__(CubicGraph)
    out.n, out.edges, out.adj, out._pair_index = g.n, g.edges, g.adj, g._pair_index
    return out


def neighbor_masks(g: Graph) -> list[int]:
    """Per vertex v, a vertex mask of its neighbours: bit u is set when
    u is a neighbour of v."""
    return [sum(1 << u for u, _ in row) for row in g.adj]


def subgraph(g: Graph, edge_ids: Sequence[int]) -> Graph:
    """The subgraph of g formed by the edges edge_ids and their ends.

    The ends are renumbered densely in ascending order, and edge i of
    the result is edge edge_ids[i] of g, so an edge id of the result
    maps back through edge_ids.  A vertex on none of the edges is left
    out.
    """
    pairs = [g.edges[e] for e in edge_ids]
    new_id = {x: i for i, x in enumerate(sorted({x for pair in pairs for x in pair}))}
    return Graph(len(new_id), tuple((new_id[u], new_id[v]) for u, v in pairs))


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by minimum."""
    seen = [False] * g.n
    out: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = [start]
        while stack:
            v = stack.pop()
            for u, _ in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return tuple(out)


# ---------------------------------------------------------------------------
# text formats


def parse_edge_list(text: str) -> Graph:
    """Read the plain interchange format.

    First non-comment line: "n m".  Then m lines "u v" with 0-based ids.
    Lines starting with '#' and blank lines are skipped.  Raises
    ParseError on text that does not follow this layout; ids and n
    out of range are from_edge_list's VertexOutOfRange.
    """
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    if not rows:
        raise ParseError("empty edge list input")
    head = rows[0]
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {' '.join(head)!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {' '.join(head)!r}") from exc
    body = rows[1:]
    if len(body) != m:
        raise ParseError(f"header says {m} edges, found {len(body)}")
    pairs: list[tuple[int, int]] = []
    for row in body:
        if len(row) != 2:
            raise ParseError(f"bad edge line {' '.join(row)!r}")
        try:
            pairs.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise ParseError(f"bad edge line {' '.join(row)!r}") from exc
    return from_edge_list(n, pairs)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def from_graph6(line: str) -> Graph:
    """Decode one graph in graph6 format (optionally with the >>graph6<< tag).

    Supports the short form (n <= 62) and the 4-byte extended form.
    Raises ParseError on malformed text and VertexOutOfRange on the
    8-byte form, whose n is past MAX_VERTICES.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError("graph6 characters out of range")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if data[1:2] == [63]:  # the 8-byte form, n >= 258048
            raise VertexOutOfRange("unsupported graph6 size prefix")
        if len(data) < 4:
            raise ParseError("truncated graph6 size prefix")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"graph6 body length {len(body)}, expected {need} for n={n}"
        )
    bits: list[int] = []
    for b in body:
        for k in range(5, -1, -1):
            bits.append((b >> k) & 1)
    pairs = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                pairs.append((u, v))
            i += 1
    return from_edge_list(n, pairs)
