"""Structure checks: bridges, bipartiteness, edge colouring, cycles.

The colouring and cycle searches are exhaustive backtrackers with a
node budget (Budget.search_nodes), run with explicit cursors rather
than recursion, so their depth (one level per edge or per vertex) is
not bounded by Python's recursion limit.  Hitting the budget raises
BudgetExceeded, which the callers must treat as "unknown", never as
"no".  Branch orders are fixed (lowest id first), so returned
witnesses are reproducible.
"""

from __future__ import annotations

from .errors import Budget, BudgetExceeded
from .graphs import Graph


def is_bridgeless(g: Graph) -> tuple[bool, int | None]:
    """(True, None) if 2-edge-connected pieces only; else (False, bridge id).

    Bridges are found with the iterative lowpoint walk; the returned
    bridge is the one with the smallest edge id.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    bridges: list[int] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # stack holds (vertex, incoming edge id, adjacency cursor)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_eid, idx = stack.pop()
            if idx < len(g.adj[v]):
                stack.append((v, in_eid, idx + 1))
                u, eid = g.adj[v][idx]
                if eid == in_eid:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, eid, 0))
                else:
                    low[v] = min(low[v], disc[u])
            else:
                if in_eid != -1:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.append(in_eid)
    if bridges:
        return False, min(bridges)
    return True, None


def is_bipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(True, two-colouring) or (False, None)."""
    colour: list[int] = [-1] * g.n
    for root in range(g.n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u, _ in g.adj[v]:
                if colour[u] == -1:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False, None
    return True, tuple(colour)


def is_independent(g: Graph, vertices) -> bool:
    vs = set(vertices)
    return all(not (u in vs and v in vs) for u, v in g.edges)


def tait_coloring(g: Graph, *, budget: Budget = Budget()) -> tuple[int, ...] | None:
    """A proper 3-edge-colouring as a colour per edge id, or None.

    Exhaustive backtracking over edges in id order.  The three edges at
    vertex 0 are pinned to colours 0 and 1 for the first two, which
    only discards colourings equal to another one up to renaming.
    """
    m = g.m
    if m == 0:
        return ()
    colour = [-1] * m
    # used[v] is a bitmask of colours present at v
    used = [0] * g.n
    pin = g.incident(0) if g.n else ()
    options = [(0, 1, 2)] * m
    if len(pin) >= 2:
        options[pin[0]] = (0,)
        options[pin[1]] = (1,)
    # depth-first over edge ids with an explicit cursor per edge: try
    # the next colour at eid, then go on to eid + 1 or back to eid - 1
    cursor = [0] * m
    eid = 0
    nodes = 1
    limit = budget.search_nodes
    if nodes > limit:
        raise BudgetExceeded("search_nodes", limit, nodes)
    while True:
        u, v = g.edges[eid]
        c = colour[eid]
        if c != -1:
            bit = 1 << c
            colour[eid] = -1
            used[u] &= ~bit
            used[v] &= ~bit
        opts = options[eid]
        while cursor[eid] < len(opts):
            c = opts[cursor[eid]]
            cursor[eid] += 1
            bit = 1 << c
            if not (used[u] & bit or used[v] & bit):
                colour[eid] = c
                used[u] |= bit
                used[v] |= bit
                break
        if colour[eid] == -1:
            if eid == 0:
                return None
            eid -= 1
            continue
        if eid + 1 == m:
            return tuple(colour)
        eid += 1
        cursor[eid] = 0
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded("search_nodes", limit, nodes)


def is_snark(g: Graph) -> bool:
    """Bridgeless and not 3-edge-colourable, within tait_coloring's
    default node budget."""
    ok, _ = is_bridgeless(g)
    if not ok:
        return False
    return tait_coloring(g) is None


def hamiltonian_cycle(g: Graph, *, budget: Budget = Budget()) -> tuple[int, ...] | None:
    """A hamiltonian cycle as a vertex sequence starting at 0, or None.

    Backtracking extends the path by the first unvisited neighbour in
    g.adj order, which is edge-id order, not neighbour order.  The
    cycle's second vertex is forced below its last, which removes the
    reversal twin of each cycle.
    """
    n = g.n
    if n < 2:
        return None
    path = [0]
    visited = [False] * n
    visited[0] = True
    # cursor[i] is the next index into g.adj[path[i]] to try
    cursor = [0]
    nodes = 1
    limit = budget.search_nodes
    if nodes > limit:
        raise BudgetExceeded("search_nodes", limit, nodes)
    while True:
        v = path[-1]
        if len(path) == n:
            if g.has_edge(v, 0) and path[1] < path[-1]:
                return tuple(path)
        else:
            adj = g.adj[v]
            i = cursor[-1]
            while i < len(adj) and visited[adj[i][0]]:
                i += 1
            if i < len(adj):
                cursor[-1] = i + 1
                u = adj[i][0]
                visited[u] = True
                path.append(u)
                cursor.append(0)
                nodes += 1
                if nodes > limit:
                    raise BudgetExceeded("search_nodes", limit, nodes)
                continue
        # v is exhausted: step back to its parent
        if len(path) == 1:
            return None
        cursor.pop()
        visited[path.pop()] = False
