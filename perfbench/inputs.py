"""Seeded input generators for the benchmark.

Everything here depends only on the seed it is given, and hands the
program plain data: vertex counts with edge lists for graphs, OFF text
for meshes.  None of it calls into matchforge, so a change to the
library's own generators cannot change what the benchmark measures.
"""

from __future__ import annotations

import math
import random

Vec = tuple[float, float, float]


# ---------------------------------------------------------------------------
# graphs


def _connected(n: int, pairs: list[tuple[int, int]], skip: int = -1) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if i != skip:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return all(seen)


def has_bridge(n: int, pairs: list[tuple[int, int]]) -> bool:
    """True when deleting some single edge disconnects the graph."""
    return any(not _connected(n, pairs, skip=i) for i in range(len(pairs)))


def bridgeless_cubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A connected, simple, bridgeless cubic graph on n vertices.

    Stub pairing with rejection.  Returns the edges as sorted (u, v)
    pairs with u < v, in ascending order.
    """
    if n < 4 or n % 2:
        raise ValueError(f"cubic graphs need even n >= 4, got {n}")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = set()
        for i in range(0, 3 * n, 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in pairs:
                break
            pairs.add((min(u, v), max(u, v)))
        else:
            edges = sorted(pairs)
            if _connected(n, edges) and not has_bridge(n, edges):
                return edges


# ---------------------------------------------------------------------------
# meshes


def _normalise(p: Vec) -> Vec:
    r = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    return (p[0] / r, p[1] / r, p[2] / r)


def _icosahedron() -> tuple[list[Vec], list[tuple[int, int, int]]]:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    pts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    return [_normalise(p) for p in pts], faces


def icosphere(levels: int) -> tuple[list[Vec], list[tuple[int, int, int]]]:
    """Unit icosphere: 20 * 4**levels outward-oriented faces."""
    pts, faces = _icosahedron()
    for _ in range(levels):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in mid:
                pa, pb = pts[a], pts[b]
                pts.append(_normalise(tuple((x + y) / 2 for x, y in zip(pa, pb))))
                mid[key] = len(pts) - 1
            return mid[key]

        out = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = out
    return pts, faces


def torus(
    major: int, minor: int
) -> tuple[list[Vec], list[tuple[int, int, int]]]:
    """Torus (radii 3 and 1) with 2 * major * minor outward faces."""
    pts = []
    for i in range(major):
        a = 2 * math.pi * i / major
        for j in range(minor):
            b = 2 * math.pi * j / minor
            r = 3.0 + math.cos(b)
            pts.append((r * math.cos(a), r * math.sin(a), math.sin(b)))
    faces = []
    for i in range(major):
        for j in range(minor):
            p00 = i * minor + j
            p10 = ((i + 1) % major) * minor + j
            p11 = ((i + 1) % major) * minor + (j + 1) % minor
            p01 = i * minor + (j + 1) % minor
            faces += [(p00, p10, p11), (p00, p11, p01)]
    return pts, faces


def jitter(pts: list[Vec], rng: random.Random, amount: float) -> list[Vec]:
    """Move each vertex by up to amount (times the unit) on each axis."""
    return [
        tuple(x + amount * rng.uniform(-1.0, 1.0) for x in p) for p in pts
    ]


def off_text(pts: list[Vec], faces: list[tuple[int, int, int]]) -> str:
    lines = ["OFF", f"{len(pts)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"
