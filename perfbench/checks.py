"""Correctness checks the benchmark runs outside its timed region.

Each check raises CheckFailed with a reason.  Frozen values come from
the project README; everything else is recomputed here from the graph's
edge list, without the library, or through a second library route.
"""

from __future__ import annotations

from fractions import Fraction

THIRD = Fraction(1, 3)

# eta of the catalog graphs with at most 20 vertices (README table)
CATALOG_ETA = {
    "k4": Fraction(1),
    "k33": Fraction(1),
    "gp(3,1)": Fraction(1, 2),
    "cube": Fraction(2, 3),
    "gp(5,1)": Fraction(1, 2),
    "petersen": Fraction(1, 3),
    "gp(6,1)": Fraction(1, 2),
    "gp(6,2)": Fraction(1, 2),
    "gp(8,3)": Fraction(3, 5),
    "blanusa1": Fraction(1, 3),
    "blanusa2": Fraction(2, 5),
}


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def is_matching(edges: tuple, ids) -> bool:
    ids = list(ids)
    ends = [v for e in ids for v in edges[e]]
    return len(set(ids)) == len(ids) and len(set(ends)) == len(ends)


def is_perfect(n: int, edges: tuple, ids) -> bool:
    ids = list(ids)
    return is_matching(edges, ids) and 2 * len(ids) == n


def perfect_matchings(n: int, edges: tuple) -> list[frozenset[int]]:
    """Every perfect matching, by branching on the lowest free vertex."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    out: list[frozenset[int]] = []
    free = [True] * n
    chosen: list[int] = []

    def extend(start: int) -> None:
        v = next((x for x in range(start, n) if free[x]), None)
        if v is None:
            out.append(frozenset(chosen))
            return
        free[v] = False
        for u, eid in adj[v]:
            if free[u]:
                free[u] = False
                chosen.append(eid)
                extend(v + 1)
                chosen.pop()
                free[u] = True
        free[v] = True

    extend(0)
    return out


def components_without(n: int, edges: tuple, removed: set[int]) -> tuple:
    """Components of the graph minus a vertex set, as sorted tuples."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = set(removed)
    out = []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def weight(w, ids) -> Fraction:
    return sum((w[e] for e in ids), Fraction(0))
