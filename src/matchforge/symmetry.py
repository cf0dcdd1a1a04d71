"""Automorphism generators by colour refinement and backtracking.

The search follows the individualisation-refinement scheme of McKay &
Piperno ("Practical graph isomorphism II", 2014) in its plainest form.

A node of the search tree is an ordered partition of the vertices that
is equitable: within a cell, every vertex has the same number of
neighbours in each cell.  _refine splits cells by neighbour counts
until that holds, and orders the pieces by their counts only, so the
result never depends on vertex labels: refining the image of a
partition under an automorphism gives the image of the refinement.
A child individualises one vertex of the node's first non-singleton
cell and refines again.  A leaf is a discrete partition, read as a
vertex order.

Generators come from the first path of the tree.  Its node at depth d
has the pointwise stabiliser of the path's first d vertices as its
symmetry group, and the orbit of the path's next vertex under that
group decides which children can hold a leaf equivalent to the first
one.  Depths are handled deepest first.  At each depth, every vertex of
the target cell that the generators found so far do not already reach
is tried: its subtree is searched for a leaf whose quotient matrices
match the first path's at every depth, and the map from the first leaf
to such a leaf is an automorphism.  If the subtree has none, no
automorphism fixing the prefix reaches that vertex.  So the orbits come
out exact at every depth, and the generators found generate the whole
group (a group is generated by the stabiliser of a point plus one
element per point of that point's orbit).  The group itself is never
listed: five disjoint K4s, with 24^5 * 5! automorphisms, give 19
generators.

edge_automorphisms turns each generator into a permutation of edge ids
and checks that it maps the edge set onto itself; a generator that
does not raises InternalError.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError
from .graphs import Graph

Cells = list[list[int]]


def _colours(n: int, cells: Cells) -> list[int]:
    colour = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            colour[v] = i
    return colour


def _refine(adj: Sequence[Sequence[int]], cells: Cells) -> Cells:
    """The coarsest equitable partition finer than cells.

    Each round splits every cell by the sorted cell indices of its
    vertices' neighbours and orders the pieces by that signature, which
    is label-free; rounds repeat until no cell splits.
    """
    while True:
        colour = _colours(len(adj), cells)
        split: Cells = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(sorted(colour[u] for u in adj[v]))
                groups.setdefault(sig, []).append(v)
            split.extend(groups[sig] for sig in sorted(groups))
        if len(split) == len(cells):
            return cells
        cells = split


def _quotient(adj: Sequence[Sequence[int]], cells: Cells) -> tuple:
    """Cell sizes and the neighbour cells of one vertex per cell.

    On an equitable partition this is the quotient matrix, an invariant
    of the node; on a discrete one it is the adjacency in leaf order.
    """
    colour = _colours(len(adj), cells)
    return tuple(
        (len(cell), tuple(sorted(colour[u] for u in adj[cell[0]]))) for cell in cells
    )


def _target(cells: Cells) -> int:
    return next(i for i, cell in enumerate(cells) if len(cell) > 1)


def _individualise(
    adj: Sequence[Sequence[int]], cells: Cells, i: int, v: int
) -> Cells:
    rest = [u for u in cells[i] if u != v]
    return _refine(adj, cells[:i] + [[v], rest] + cells[i + 1 :])


def _equivalent_leaf(
    adj: Sequence[Sequence[int]], start: Cells, depth: int, invariants: list[tuple]
) -> list[int] | None:
    """A leaf under start whose path matches the first path's invariants.

    Depth-first, children in vertex order; a node whose quotient differs
    from the first path's at its depth holds no such leaf and is cut.
    """
    if _quotient(adj, start) != invariants[depth]:
        return None
    stack = [(start, depth)]
    while stack:
        cells, depth = stack.pop()
        if len(cells) == len(adj):
            return [cell[0] for cell in cells]
        i = _target(cells)
        for v in sorted(cells[i], reverse=True):
            child = _individualise(adj, cells, i, v)
            if _quotient(adj, child) == invariants[depth + 1]:
                stack.append((child, depth + 1))
    return None


def _orbit(point: int, gens: list[tuple[int, ...]]) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for p in gens:
            if p[v] not in seen:
                seen.add(p[v])
                frontier.append(p[v])
    return seen


def _vertex_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g) as vertex permutations (perm[v] = image)."""
    if g.n == 0:
        return []
    adj = [g.neighbors(v) for v in range(g.n)]
    path = [_refine(adj, [list(range(g.n))])]
    chosen: list[int] = []
    while len(path[-1]) < g.n:
        cells = path[-1]
        i = _target(cells)
        chosen.append(min(cells[i]))
        path.append(_individualise(adj, cells, i, chosen[-1]))
    invariants = [_quotient(adj, cells) for cells in path]
    first = [cell[0] for cell in path[-1]]

    gens: list[tuple[int, ...]] = []
    for depth in range(len(chosen) - 1, -1, -1):
        cells = path[depth]
        i = _target(cells)
        # every generator so far fixes the first depth path vertices
        reached = _orbit(chosen[depth], gens)
        for w in sorted(cells[i]):
            if w in reached:
                continue
            child = _individualise(adj, cells, i, w)
            leaf = _equivalent_leaf(adj, child, depth + 1, invariants)
            if leaf is None:
                continue
            perm = [0] * g.n
            for a, b in zip(first, leaf):
                perm[a] = b
            gens.append(tuple(perm))
            reached = _orbit(chosen[depth], gens)
    return gens


def edge_permutation(g: Graph, perm: Sequence[int]) -> tuple[int, ...]:
    """The edge-id permutation of a vertex automorphism.

    Raises InternalError unless perm is a permutation of the vertices
    that maps every edge onto an edge, which makes the result a
    permutation of the edge ids.
    """
    if sorted(perm) != list(range(g.n)):
        raise InternalError(f"automorphism {tuple(perm)} is not a vertex permutation")
    out = []
    for u, v in g.edges:
        e = g.edge_id(perm[u], perm[v])
        if e is None:
            raise InternalError(
                f"automorphism {tuple(perm)} maps edge ({u}, {v}) to a non-edge"
            )
        out.append(e)
    return tuple(out)


def edge_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g) as edge-id permutations (perm[e] = image).

    An empty list means g has no automorphism but the identity.  Each
    generator is checked to map the edge set onto itself.
    """
    return [edge_permutation(g, p) for p in _vertex_generators(g)]
