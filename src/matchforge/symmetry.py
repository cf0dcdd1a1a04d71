"""Automorphism generators by colour refinement and backtracking.

The search follows the individualisation-refinement scheme of McKay &
Piperno ("Practical graph isomorphism II", 2014).

A node of the search tree is an ordered partition of the vertices that
is equitable: within a cell, every vertex has the same number of
neighbours in each cell.  It is held as a vertex order lab, the start
position of each vertex's cell and the end of each cell (indexed by its
start), so a cell is the slice lab[s:end[s]].  Every choice below reads
only positions, sizes and counts, never vertex labels, so refining the
image of a partition under an automorphism gives the image of the
refinement, with the same trace.

The root splits the vertices by a label-free invariant: degree, closed
3-walks and closed 4-walks, read off the neighbour bitmasks, with the
cells in invariant order.  A graph with a small group is then close to
discrete before any vertex is individualised.

_refine makes a partition equitable with a queue of splitter cells.  A
splitter W recounts only the neighbours of its vertices; each cell they
touch splits by the number of neighbours in W, its pieces in count
order.  The pieces of a cell already in the queue all join it; of a
cell not in the queue, all but its first largest piece join, since
counts into that piece follow from counts into the others.  Each split
is recorded, as (cell start, count and size of each piece), in the
node's trace.  A node's trace fixes where its cells start and how large
they are.

A child individualises one vertex of the node's target cell, the first
smallest non-singleton cell, by moving it to the cell's start as a
singleton, and refines with that singleton as the only splitter (the
parent was equitable, so the rest of the cell needs no splitter).  A
leaf is a discrete partition, read as a vertex order.

Generators come from the first path of the tree, which individualises
the first vertex of each target cell.  Its node at depth d has the
pointwise stabiliser of the path's first d vertices as its symmetry
group, and the orbit of the path's next vertex under that group decides
which children can hold a leaf equivalent to the first one.  Depths are
handled deepest first.  At each depth, every vertex of the target cell
that the generators found so far do not already reach, and that is not
in the orbit of a vertex already ruled out, is tried: its subtree is
searched depth-first for a leaf whose map from the first leaf is an
automorphism.  The search refines every node against the first path's
trace at its depth and drops it at the first split that departs from
it.  An automorphism that fixes the prefix maps the first path onto a
path with the same traces, so no drop loses it, and if the subtree holds
no automorphism leaf, no automorphism fixing the prefix reaches that
vertex.  So the orbits come out exact at every depth, and the
generators found generate the whole group (a group is generated by the
stabiliser of a point plus one element per point of that point's
orbit).  The group itself is never listed: five disjoint K4s, with
24^5 * 5! automorphisms, give 19 generators.

edge_automorphisms turns each generator into a permutation of edge ids
and checks that it maps the edge set onto itself; a generator that
does not raises InternalError.  edge_orbit_leaders reads the edge
orbits off those permutations and names the lowest edge of each: exact
eta enumerates only the maximal matchings whose lowest edge is one.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError
from .graphs import Graph, neighbor_masks

# lab, the start of each vertex's cell, the end of each cell by its start
Node = tuple[list[int], list[int], list[int]]


def _root_invariant(adj: Sequence[Sequence[int]], nbrs: Sequence[int]) -> list[tuple]:
    """Per vertex v: degree, closed 3-walks and closed 4-walks.

    A closed 3-walk v, x, y, v has x and y in N(v) and adjacent, and a
    closed 4-walk v, x, z, y, v has z in N(x) & N(y), so both are
    popcounts over the neighbour masks of N(v).
    """
    out = []
    for v, row in enumerate(adj):
        mask = nbrs[v]
        masks = [nbrs[x] for x in row]
        out.append(
            (
                len(row),
                sum((mask & a).bit_count() for a in masks),
                sum((a & b).bit_count() for a in masks for b in masks),
            )
        )
    return out


def _refine(
    adj: Sequence[Sequence[int]], node: Node, queue: list[int], ref: list | None
) -> list | None:
    """Make node equitable in place; its trace, or None on a departure.

    queue holds the starts of the cells W that may still split a cell:
    those for which the vertices of some cell may have different
    numbers of neighbours in W.  It grows as cells split, and the
    refinement ends when it runs out or the partition is discrete.
    With ref given, it stops and returns None at the first split that
    differs from ref, or when it ends with fewer splits than ref.
    """
    lab, start, end = node
    n = len(lab)
    queued = [False] * n
    for s in queue:
        queued[s] = True
    cells = len(set(start))
    trace: list = []
    head = 0
    while head < len(queue) and cells < n:
        s = queue[head]
        head += 1
        queued[s] = False
        count: dict[int, int] = {}
        for w in lab[s : end[s]]:
            for u in adj[w]:
                count[u] = count.get(u, 0) + 1
        hit: dict[int, list[int]] = {}
        for u in count:
            c = start[u]
            if end[c] - c > 1:
                if c in hit:
                    hit[c].append(u)
                else:
                    hit[c] = [u]
        for c in sorted(hit):
            touched = hit[c]
            e = end[c]
            groups: dict[int, list[int]] = {}
            if len(touched) < e - c:
                groups[0] = [u for u in lab[c:e] if u not in count]
            for u in touched:
                k = count[u]
                if k in groups:
                    groups[k].append(u)
                else:
                    groups[k] = [u]
            if len(groups) == 1:
                continue
            event = [c]
            pos = c
            big, big_len = c, 0
            for k in sorted(groups):
                piece = groups[k]
                size = len(piece)
                lab[pos : pos + size] = piece
                if pos != c:
                    for u in piece:
                        start[u] = pos
                end[pos] = pos + size
                if size > big_len:
                    big, big_len = pos, size
                event += (k, size)
                pos += size
            event = tuple(event)
            if ref is not None and (len(trace) >= len(ref) or ref[len(trace)] != event):
                return None
            trace.append(event)
            cells += len(groups) - 1
            skip = -1 if queued[c] else big
            pos = c
            while pos < e:
                if pos != skip and not queued[pos]:
                    queued[pos] = True
                    queue.append(pos)
                pos = end[pos]
    if ref is not None and len(trace) != len(ref):
        return None
    return trace


def _partition(keys: Sequence) -> tuple[Node, list[int]]:
    """The vertices v split into cells of equal keys[v], in key order,
    and the start of every cell, for _refine's queue."""
    n = len(keys)
    lab = sorted(range(n), key=keys.__getitem__)
    start, end = [0] * n, [0] * n
    queue: list[int] = []
    for i, v in enumerate(lab):
        if i == 0 or keys[v] != keys[lab[i - 1]]:
            queue.append(i)
        start[v] = queue[-1]
        end[queue[-1]] = i + 1
    return (lab, start, end), queue


def _root(adj: Sequence[Sequence[int]], nbrs: Sequence[int]) -> tuple[Node, list | None]:
    """The root partition, split by _root_invariant, and its trace."""
    node, queue = _partition(_root_invariant(adj, nbrs))
    return node, _refine(adj, node, queue, None)


def _target(node: Node) -> int:
    """Start of the first smallest non-singleton cell, or -1 if discrete."""
    lab, _, end = node
    best, best_size = -1, len(lab) + 1
    s = 0
    while s < len(lab):
        size = end[s] - s
        if 1 < size < best_size:
            best, best_size = s, size
        s = end[s]
    return best


def _child(node: Node, t: int, v: int) -> Node:
    """A copy of node with v, a vertex of the cell at t, made a singleton
    at t; refine it with [t] as the queue."""
    lab, start, end = node[0][:], node[1][:], node[2][:]
    e = end[t]
    i = lab.index(v, t, e)
    lab[t], lab[i] = v, lab[t]
    end[t] = t + 1
    end[t + 1] = e
    for u in lab[t + 1 : e]:
        start[u] = t + 1
    return lab, start, end


def _orbit(points: set[int], gens: list[tuple[int, ...]]) -> set[int]:
    seen = set(points)
    frontier = list(points)
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
    nbrs = neighbor_masks(g)
    node, trace = _root(adj, nbrs)
    path, traces, targets = [node], [trace], [_target(node)]
    while targets[-1] >= 0:
        t = targets[-1]
        node = _child(node, t, node[0][t])
        path.append(node)
        traces.append(_refine(adj, node, [t], None))
        targets.append(_target(node))
    first = node[0]

    def automorphism(leaf: list[int]) -> tuple[int, ...] | None:
        perm = [0] * g.n
        for a, b in zip(first, leaf):
            perm[a] = b
        if all(nbrs[perm[u]] >> perm[v] & 1 for u, v in g.edges):
            return tuple(perm)
        return None

    def search(node: Node, depth: int, v: int) -> tuple[int, ...] | None:
        """The map from the first leaf to a leaf under the child that
        makes v a singleton in node (at depth, with the first path's
        trace), if the map is an automorphism; else None.  Depth-first,
        children in lab order; a child whose trace departs from the
        first path's is dropped."""
        stack = [(node, depth, [v])]
        while stack:
            node, d, todo = stack[-1]
            if not todo:
                stack.pop()
                continue
            t = targets[d]
            child = _child(node, t, todo.pop())
            if _refine(adj, child, [t], traces[d + 1]) is None:
                continue
            t = targets[d + 1]
            if t < 0:
                perm = automorphism(child[0])
                if perm is not None:
                    return perm
            else:
                stack.append((child, d + 1, child[0][t : child[2][t]][::-1]))
        return None

    gens: list[tuple[int, ...]] = []
    for depth in range(len(path) - 2, -1, -1):
        node = path[depth]
        t = targets[depth]
        # generators found so far fix the path's vertices up to this one
        reached = {node[0][t]}
        ruled_out: set[int] = set()
        for w in node[0][t + 1 : node[2][t]]:
            if w in reached or w in ruled_out:
                continue
            perm = search(node, depth, w)
            if perm is None:
                ruled_out = _orbit(ruled_out | {w}, gens)
                continue
            gens.append(perm)
            reached = _orbit(reached, gens)
            ruled_out = _orbit(ruled_out, gens)
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


def edge_orbit_leaders(gens: Sequence[Sequence[int]], m: int) -> list[int]:
    """The lowest edge id of each orbit of the group that the edge
    permutations gens generate on the m edge ids, ascending.  With no
    generators, every edge is its own leader."""
    leaders: list[int] = []
    reached: set[int] = set()
    for e in range(m):
        if e not in reached:
            leaders.append(e)
            reached |= _orbit({e}, gens)
    return leaders
