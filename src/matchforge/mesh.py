"""Quad meshing of closed triangle meshes via matchings of the dual graph.

Merging two triangles across their shared edge makes a quad, so a set of
pairwise edge-disjoint merges is a matching in the dual graph, which is
cubic whenever the mesh is closed.  Perfect matchings give all-quad
meshes; maximum-weight matchings trade leftover triangles for better
quads.  Quad quality is scored in [0, 1] from corner angles and the
bend across the removed edge, then snapped to an exact rational so the
matching layer stays in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import (
    BadParameters,
    BadWeights,
    Degenerate,
    NoPerfectMatching,
    NotClosed,
    NotTriangular,
    ParseError,
)
from .graphs import CubicGraph, as_cubic, from_edge_list
from .matching import best_matchings, matching_weight

Vec = tuple[float, float, float]

QUALITY_DENOMINATOR = 10**6


@dataclass(frozen=True)
class TriangleMesh:
    """A closed, consistently oriented triangle mesh."""

    vertices: tuple[Vec, ...]
    faces: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class QuadMesh:
    """Quadrangulation output; triangles holds any unmerged faces."""

    vertices: tuple[Vec, ...]
    quads: tuple[tuple[int, int, int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class DualGraph:
    """Face-adjacency graph of a mesh.

    Dual vertex i is face i.  shared_edge[e] is the mesh vertex pair the
    two faces of dual edge e have in common; dual edges are listed in
    sorted order of those pairs.
    """

    graph: CubicGraph
    shared_edge: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class QuadReport:
    mode: str
    quad_count: int
    triangle_count: int
    perfect_weight: Fraction | None
    maximum_weight: Fraction
    ratio: Fraction | None


# ---------------------------------------------------------------------------
# OFF input


def parse_off(text: str) -> TriangleMesh:
    """Parse OFF text into a validated TriangleMesh.

    Accepts '#' comments and blank lines.  Raises ParseError on
    malformed input, NotTriangular on non-triangle faces, Degenerate on
    repeated face vertices or zero-area triangles, NotClosed unless
    every edge is shared by exactly two consistently oriented faces.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty OFF input")
    pos = 0
    if lines[0].upper() == "OFF":
        pos = 1
    try:
        nv, nf, _ne = (int(x) for x in lines[pos].split())
    except (IndexError, ValueError) as exc:
        raise ParseError("bad OFF counts line") from exc
    pos += 1
    if nv < 1 or nf < 1:
        raise ParseError("OFF needs at least one vertex and face")
    if len(lines) - pos < nv + nf:
        raise ParseError("truncated OFF input")
    vertices: list[Vec] = []
    for i in range(nv):
        parts = lines[pos + i].split()
        if len(parts) != 3:
            raise ParseError(f"vertex line {i}: expected 3 coordinates")
        try:
            vertices.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(f"vertex line {i}: bad coordinate") from exc
    pos += nv
    faces: list[tuple[int, int, int]] = []
    for i in range(nf):
        parts = lines[pos + i].split()
        try:
            count = int(parts[0])
            ids = [int(x) for x in parts[1 : 1 + count]]
        except (IndexError, ValueError) as exc:
            raise ParseError(f"face line {i}: bad index") from exc
        if count != 3 or len(parts) < 1 + count:
            raise NotTriangular(f"face line {i}: {count} vertices")
        if any(not 0 <= v < nv for v in ids):
            raise ParseError(f"face line {i}: vertex index out of range")
        if len(set(ids)) != 3:
            raise Degenerate(f"face line {i}: repeated vertex")
        faces.append((ids[0], ids[1], ids[2]))
    mesh = TriangleMesh(tuple(vertices), tuple(faces))
    _check_closed(mesh)
    for fid, face in enumerate(mesh.faces):
        if _norm(_face_normal(mesh, face)) == 0.0:
            raise Degenerate(f"face {fid} has zero area")
    return mesh


def load_off(path: str | Path) -> TriangleMesh:
    return parse_off(Path(path).read_text())


def _check_closed(mesh: TriangleMesh) -> None:
    # each undirected edge must be used once in each direction
    use: dict[tuple[int, int], list[int]] = {}
    for fid, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            use.setdefault(key, []).append(1 if u < v else -1)
    for key, dirs in use.items():
        if len(dirs) != 2:
            raise NotClosed(f"edge {key} lies on {len(dirs)} faces")
        if dirs[0] + dirs[1] != 0:
            raise NotClosed(f"edge {key} traversed twice the same way")


# ---------------------------------------------------------------------------
# geometry


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: Vec) -> float:
    return math.sqrt(_dot(a, a))


def _face_normal(mesh: TriangleMesh, face: Sequence[int]) -> Vec:
    p0, p1, p2 = (mesh.vertices[v] for v in face)
    return _cross(_sub(p1, p0), _sub(p2, p0))


def _corner_angle_deg(prev: Vec, corner: Vec, nxt: Vec) -> float:
    u = _sub(prev, corner)
    v = _sub(nxt, corner)
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    cos = max(-1.0, min(1.0, _dot(u, v) / (nu * nv)))
    return math.degrees(math.acos(cos))


def quad_quality(pa: Vec, pu: Vec, pb: Vec, pv: Vec) -> Fraction:
    """Quality of the quad with corner cycle (a, u, b, v) in [0, 1].

    The angle term is the worst corner's min(angle/90, 90/angle); the
    planarity term is the clamped cosine of the bend between the two
    triangles (a, u, v) and (u, b, v) that the quad replaces.  Their
    product is snapped to a rational with denominator 10**6.
    """
    corners = (pa, pu, pb, pv)
    angle = 1.0
    for i in range(4):
        theta = _corner_angle_deg(corners[i - 1], corners[i], corners[(i + 1) % 4])
        if theta == 0.0:
            angle = 0.0
            break
        angle = min(angle, theta / 90.0, 90.0 / theta)
    n1 = _cross(_sub(pu, pa), _sub(pv, pa))
    n2 = _cross(_sub(pb, pu), _sub(pv, pu))
    m1, m2 = _norm(n1), _norm(n2)
    if m1 == 0.0 or m2 == 0.0:
        return Fraction(0)
    planar = max(0.0, _dot(n1, n2) / (m1 * m2))
    q = max(0.0, min(1.0, angle * planar))
    return Fraction(round(q * QUALITY_DENOMINATOR), QUALITY_DENOMINATOR)


# ---------------------------------------------------------------------------
# dual graph and quadrangulation


def dual_graph(mesh: TriangleMesh) -> DualGraph:
    """Face-adjacency graph; cubic because the mesh is closed.

    Raises DuplicateEdge if two faces share more than one edge and
    NotConnected on disconnected surfaces.
    """
    owner: dict[tuple[int, int], list[int]] = {}
    for fid, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            owner.setdefault((min(u, v), max(u, v)), []).append(fid)
    pairs = []
    shared = []
    for key in sorted(owner):
        f1, f2 = owner[key]
        pairs.append((f1, f2))
        shared.append(key)
    graph = as_cubic(from_edge_list(len(mesh.faces), pairs))
    return DualGraph(graph=graph, shared_edge=tuple(shared))


def quad_weights(mesh: TriangleMesh, dual: DualGraph) -> tuple[Fraction, ...]:
    """Quality per dual edge, in dual edge id order."""
    out = []
    for eid in range(dual.graph.m):
        out.append(quad_quality(*_quad_corners(mesh, dual, eid)))
    return tuple(out)


def _third_vertex(face: tuple[int, int, int], u: int, v: int) -> int:
    return next(x for x in face if x != u and x != v)


def _quad_cycle(mesh: TriangleMesh, dual: DualGraph, eid: int) -> tuple[int, int, int, int]:
    # orient the quad like the face that traverses the shared edge u -> v
    f1, f2 = dual.graph.endpoints(eid)
    u, v = dual.shared_edge[eid]
    face1 = mesh.faces[f1]
    forward = (u, v) in ((face1[0], face1[1]), (face1[1], face1[2]), (face1[2], face1[0]))
    if not forward:
        f1, f2 = f2, f1
        face1 = mesh.faces[f1]
    a = _third_vertex(face1, u, v)
    b = _third_vertex(mesh.faces[f2], u, v)
    return a, u, b, v


def _quad_corners(mesh: TriangleMesh, dual: DualGraph, eid: int) -> tuple[Vec, Vec, Vec, Vec]:
    a, u, b, v = _quad_cycle(mesh, dual, eid)
    pts = mesh.vertices
    return pts[a], pts[u], pts[b], pts[v]


def quadrangulate(
    mesh: TriangleMesh,
    mode: str = "perfect",
    weights: Sequence | None = None,
) -> tuple[QuadMesh, QuadReport]:
    """Merge triangle pairs into quads by a matching of the dual graph.

    mode 'perfect' pairs every face (raises NoPerfectMatching when the
    dual graph has none); mode 'maximum' takes a maximum-weight matching
    and leaves the rest as triangles.  weights overrides the computed
    qualities, one rational per dual edge.  The report's ratio needs
    both optima, and one blossom run (matching.best_matchings) gives
    them in either mode.
    """
    if mode not in ("perfect", "maximum"):
        raise BadParameters(f"mode must be perfect or maximum, got {mode!r}")
    dual = dual_graph(mesh)
    raw = quad_weights(mesh, dual) if weights is None else weights
    # unlike the ratio analysis, an all-zero quality vector is fine here:
    # every pairing ties and the report's ratio field stays None
    if len(raw) != dual.graph.m:
        raise BadWeights(f"expected {dual.graph.m} weights, got {len(raw)}")
    w = tuple(Fraction(x) for x in raw)
    if any(x < 0 for x in w):
        raise BadWeights("weights must be nonnegative")
    all_zero = all(x == 0 for x in w)
    # the engines insist on a positive entry; with every quality zero the
    # empty matching is maximum and any perfect matching is best
    engine_w = tuple(x + 1 for x in w) if all_zero else w
    # one blossom run gives both optima; meshes dwarf the enumeration limits
    best, best_perfect = best_matchings(dual.graph, engine_w)
    max_m = frozenset() if all_zero else best
    maximum_weight = matching_weight(w, max_m)
    perfect_weight: Fraction | None = None
    if best_perfect is not None:
        perfect_weight = matching_weight(w, best_perfect)
    elif mode == "perfect":
        raise NoPerfectMatching("no perfect matching exists")
    chosen = best_perfect if mode == "perfect" else max_m
    quads = tuple(
        _quad_cycle(mesh, dual, eid) for eid in sorted(chosen)
    )
    merged = set()
    for eid in chosen:
        merged.update(dual.graph.endpoints(eid))
    leftovers = tuple(
        mesh.faces[f] for f in range(len(mesh.faces)) if f not in merged
    )
    ratio = None
    if perfect_weight is not None and maximum_weight > 0:
        ratio = perfect_weight / maximum_weight
    report = QuadReport(
        mode=mode,
        quad_count=len(quads),
        triangle_count=len(leftovers),
        perfect_weight=perfect_weight,
        maximum_weight=maximum_weight,
        ratio=ratio,
    )
    return QuadMesh(mesh.vertices, quads, leftovers), report


def save_obj(mesh: QuadMesh, path: str | Path) -> None:
    """Write Wavefront OBJ with 1-based indices."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for quad in mesh.quads:
        lines.append("f " + " ".join(str(v + 1) for v in quad))
    for tri in mesh.triangles:
        lines.append("f " + " ".join(str(v + 1) for v in tri))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sample meshes, used by tests and the command line examples


def tetrahedron() -> TriangleMesh:
    pts = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))
    faces = ((0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2))
    return TriangleMesh(pts, faces)


def icosahedron() -> TriangleMesh:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            raw.append((0.0, a, b))
            raw.append((a, b, 0.0))
            raw.append((b, 0.0, a))
    pts = tuple(raw)
    # faces as vertex triples, oriented outward below
    from itertools import combinations

    edge_len = 2.0
    faces = []
    for i, j, k in combinations(range(12), 3):
        d = (
            _norm(_sub(pts[i], pts[j])),
            _norm(_sub(pts[j], pts[k])),
            _norm(_sub(pts[i], pts[k])),
        )
        if all(abs(x - edge_len) < 1e-9 for x in d):
            faces.append((i, j, k))
    oriented = []
    for face in faces:
        centroid = tuple(
            sum(pts[v][t] for v in face) / 3.0 for t in range(3)
        )
        normal = _cross(_sub(pts[face[1]], pts[face[0]]), _sub(pts[face[2]], pts[face[0]]))
        if _dot(normal, centroid) < 0.0:
            face = (face[0], face[2], face[1])
        oriented.append(face)
    return TriangleMesh(pts, tuple(oriented))


def off_text(mesh: TriangleMesh) -> str:
    """Serialise back to OFF, the inverse of parse_off."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in mesh.faces:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"
