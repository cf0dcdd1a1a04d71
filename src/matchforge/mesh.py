"""Quad meshing of closed triangle meshes via matchings of the dual graph.

Merging two triangles across their shared edge makes a quad, so a set of
pairwise edge-disjoint merges is a matching in the dual graph, which is
cubic whenever the mesh is closed.  Perfect matchings give all-quad
meshes; maximum-weight matchings trade leftover triangles for better
quads.  Quad quality is scored in [0, 1] from corner angles and the
bend across the removed edge, then snapped to an int numerator over
QUALITY_DENOMINATOR, so the matching layer stays in exact arithmetic.
Scoring and parse_off's zero-area check read the coordinates times one
power of two (see _unit_scaled), so neither depends on the mesh's size.
quad_quality and quad_weights return these as Fractions;
quadrangulate hands the int numerators straight to the blossom engine
(matching.best_integer_matchings), and decodes only the two matchings.

Each mesh quantity is built once.  A TriangleMesh keeps its edge-face
map (_edge_faces) and its dual graph on itself the first time either is
read, and neither takes part in equality or repr.  parse_off builds the
map to check closure; dual_graph, quadrangulate and the quad cycles
read that same map, and dual_graph's first result is the one every
later call returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .graphs import CubicGraph, Graph, as_cubic, check_vertex_count, from_edge_list
from .matching import best_integer_matchings, integer_weights

Vec = tuple[float, float, float]

QUALITY_DENOMINATOR = 10**6


@dataclass(frozen=True)
class TriangleMesh:
    """A closed, consistently oriented triangle mesh."""

    vertices: tuple[Vec, ...]
    faces: tuple[tuple[int, int, int], ...]

    # the edge-face map and the dual graph, built on first use and kept
    # in the instance dict, outside the dataclass fields, so equality,
    # hash and repr never read them
    _edges = cached_property(lambda self: _edge_faces(self))
    _dual = cached_property(lambda self: _build_dual(self))


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
    malformed input (a non-finite coordinate included, and a face line
    with fewer indices than its count), NotTriangular on non-triangle
    faces, Degenerate on repeated face vertices or zero-area triangles,
    NotClosed unless every edge is shared by exactly two consistently
    oriented faces.

    The text is split into its rows once, and the errors come in this
    order: the counts line; truncation, fewer than nv + nf rows after
    the counts line, which outranks every error of a row; each row's
    own errors, in row order; closure, checked by building the mesh's
    edge-face map (see the module docstring); then the first zero-area
    face, found as the faces are read.
    """
    rows = list(filter(None, (raw.split("#", 1)[0].split() for raw in text.splitlines())))
    if not rows:
        raise ParseError("empty OFF input")
    start = 1 if len(rows[0]) == 1 and rows[0][0].upper() == "OFF" else 0
    head = rows[start] if start < len(rows) else ()
    try:
        nv, nf, _ne = (int(x) for x in head)
    except ValueError as exc:
        raise ParseError("bad OFF counts line") from exc
    if nv < 1 or nf < 1:
        raise ParseError("OFF needs at least one vertex and face")
    first = start + 1  # the first vertex row
    if len(rows) - first < nv + nf:
        raise ParseError("truncated OFF input")
    vertices: list[Vec] = []
    faces: list[tuple[int, int, int]] = []
    flat = None  # the first zero-area face
    for i, parts in enumerate(rows[first : first + nv]):
        if len(parts) != 3:
            raise ParseError(f"vertex line {i}: expected 3 coordinates")
        try:
            x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"vertex line {i}: bad coordinate") from exc
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ParseError(f"vertex line {i}: non-finite coordinate")
        vertices.append((x, y, z))
    points = _unit_scaled(vertices)
    for i, parts in enumerate(rows[first + nv : first + nv + nf]):
        try:
            count = int(parts[0])
            ids = [int(x) for x in parts[1 : 1 + count]]
        except ValueError as exc:
            raise ParseError(f"face line {i}: bad index") from exc
        if len(parts) < 1 + count:
            raise ParseError(f"face line {i}: truncated")
        if count != 3:
            raise NotTriangular(f"face line {i}: {count} vertices")
        a, b, c = ids
        if not (0 <= a < nv and 0 <= b < nv and 0 <= c < nv):
            raise ParseError(f"face line {i}: vertex index out of range")
        if a == b or b == c or a == c:
            raise Degenerate(f"face line {i}: repeated vertex")
        faces.append((a, b, c))
        # the normal (b - a) x (c - a), zero exactly when its squared
        # length is, as sqrt(s) == 0.0 only for s == 0.0
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = points[a], points[b], points[c]
        px, py, pz = bx - ax, by - ay, bz - az
        qx, qy, qz = cx - ax, cy - ay, cz - az
        nx, ny, nz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
        if flat is None and nx * nx + ny * ny + nz * nz == 0.0:
            flat = i
    mesh = TriangleMesh(tuple(vertices), tuple(faces))
    mesh._edges  # builds the edge-face map, which checks closure
    if flat is not None:
        raise Degenerate(f"face {flat} has zero area")
    return mesh


def _edge_faces(mesh: TriangleMesh) -> dict[tuple[int, int], list]:
    """Each undirected edge (u, v), u < v, in order of first use -> the
    faces on it in id order, flat as [face id, whether it runs u -> v,
    face id, whether it runs u -> v]; the mesh keeps this map, so it is
    one list per edge, not a list of pairs.  Raises NotClosed unless
    every edge lies on two faces that run it opposite ways: once no
    edge is run twice the same way, the 3F uses of F faces fill two per
    edge exactly when no edge has one face."""
    uses: dict[tuple[int, int], list] = {}
    for fid, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            faces = uses.setdefault(key, [])
            if faces and (len(faces) == 4 or faces[1] == (u < v)):
                raise NotClosed(f"edge {key} traversed twice the same way")
            faces += (fid, u < v)
    if 2 * len(uses) != 3 * len(mesh.faces):
        key = next(k for k, fs in uses.items() if len(fs) == 2)
        raise NotClosed(f"edge {key} lies on 1 faces")
    return uses


# ---------------------------------------------------------------------------
# geometry


def _unit_scaled(points: Sequence[Vec]) -> list[Vec]:
    """The points times the power of two that brings the largest
    |coordinate| into [0.5, 1), so that squares and squared normals
    neither over- nor underflow.  Scaling by 2**k is exact, and each
    ratio in the quality has the same power above and below, so where
    nothing over- or underflowed the result is unchanged."""
    top = max((abs(c) for p in points for c in p), default=0.0)
    k = -math.frexp(top)[1]
    ldexp = math.ldexp
    return [(ldexp(x, k), ldexp(y, k), ldexp(z, k)) for x, y, z in points]


def _quality_numerator(pa: Vec, pu: Vec, pb: Vec, pv: Vec) -> int:
    """quad_quality times QUALITY_DENOMINATOR, an int.

    The vector arithmetic is written out inline for speed, term by term
    and in the order of the vector helpers (difference, cross product,
    dot product, norm) of the reference in tests/test_mesh.py, with each
    side of the cycle a -> u -> b -> v -> a and its length computed
    once.  The reference reads both sides of a corner outward from it
    (v - a and u - a at a); here the side into a corner is the one
    computed forward.  That moves no float, up to the sign of a zero, which no
    later step reads (comparisons, squares, acos and round treat 0.0
    and -0.0 alike): rounding is symmetric, so a difference taken the
    other way is the negated float, with the same square; it negates
    the dot product, so cos = -dot / (|in| |out|); and
    (u - a) x (v - a) is (a - v) x (u - a) term by term, as products
    commute.  The dot products are taken before the corner loop, but
    only a division can raise, and the divisions come in the
    reference's order.  The clamps are comparisons that keep a value
    exactly when min or max would return it; no NaN gets here, since
    every divisor is a positive finite float or the division raises.
    """
    sqrt, acos, degrees = math.sqrt, math.acos, math.degrees
    ax, ay, az = pa
    ux, uy, uz = pu
    bx, by, bz = pb
    vx, vy, vz = pv
    # the sides a -> u, u -> b, b -> v, v -> a and their lengths
    s0x, s0y, s0z = ux - ax, uy - ay, uz - az
    s1x, s1y, s1z = bx - ux, by - uy, bz - uz
    s2x, s2y, s2z = vx - bx, vy - by, vz - bz
    s3x, s3y, s3z = ax - vx, ay - vy, az - vz
    l0 = sqrt(s0x * s0x + s0y * s0y + s0z * s0z)
    l1 = sqrt(s1x * s1x + s1y * s1y + s1z * s1z)
    l2 = sqrt(s2x * s2x + s2y * s2y + s2z * s2z)
    l3 = sqrt(s3x * s3x + s3y * s3y + s3z * s3z)
    angle = 1.0
    # corners a, u, b, v: the lengths of the sides in and out, and the
    # dot product of the two
    for li, lo, dot in (
        (l3, l0, s3x * s0x + s3y * s0y + s3z * s0z),
        (l0, l1, s0x * s1x + s0y * s1y + s0z * s1z),
        (l1, l2, s1x * s2x + s1y * s2y + s1z * s2z),
        (l2, l3, s2x * s3x + s2y * s3y + s2z * s3z),
    ):
        if li == 0.0 or lo == 0.0:
            angle = 0.0
            break
        cos = -dot / (li * lo)
        if cos >= 1.0:
            cos = 1.0
        elif cos <= -1.0:
            cos = -1.0
        theta = degrees(acos(cos))
        if theta == 0.0:
            angle = 0.0
            break
        r = theta / 90.0
        if r < angle:
            angle = r
        r = 90.0 / theta
        if r < angle:
            angle = r
    # the normals n1 = (a - v) x (u - a) and n2 = (b - u) x (v - u) of
    # the triangles (a, u, v) and (u, b, v)
    n1x, n1y, n1z = s3y * s0z - s3z * s0y, s3z * s0x - s3x * s0z, s3x * s0y - s3y * s0x
    qx, qy, qz = vx - ux, vy - uy, vz - uz
    n2x, n2y, n2z = s1y * qz - s1z * qy, s1z * qx - s1x * qz, s1x * qy - s1y * qx
    m1 = sqrt(n1x * n1x + n1y * n1y + n1z * n1z)
    m2 = sqrt(n2x * n2x + n2y * n2y + n2z * n2z)
    if m1 == 0.0 or m2 == 0.0:
        return 0
    planar = (n1x * n2x + n1y * n2y + n1z * n2z) / (m1 * m2)
    if planar <= 0.0:
        return 0
    # angle >= 0 and planar > 0, so only the upper clamp can act
    q = angle * planar
    if q >= 1.0:
        q = 1.0
    return round(q * QUALITY_DENOMINATOR)


def quad_quality(pa: Vec, pu: Vec, pb: Vec, pv: Vec) -> Fraction:
    """Quality of the quad with corner cycle (a, u, b, v) in [0, 1].

    The angle term is the worst corner's min(angle/90, 90/angle); the
    planarity term is the clamped cosine of the bend between the two
    triangles (a, u, v) and (u, b, v) that the quad replaces.  Their
    product is snapped to a rational with denominator 10**6.  The
    corners are scaled first (see _unit_scaled).
    """
    return Fraction(_quality_numerator(*_unit_scaled((pa, pu, pb, pv))), QUALITY_DENOMINATOR)


# ---------------------------------------------------------------------------
# dual graph and quadrangulation


def dual_graph(mesh: TriangleMesh) -> DualGraph:
    """Face-adjacency graph; cubic because the mesh is closed.

    Raises NotClosed unless it is, DuplicateEdge if two faces share more
    than one edge and NotConnected on disconnected surfaces.  The first
    call builds the graph and keeps it on the mesh; later calls return
    that same graph.
    """
    return mesh._dual


def _build_dual(mesh: TriangleMesh) -> DualGraph:
    """The dual graph, built straight into a Graph from the edge-face
    map, with the checks of from_edge_list and as_cubic in their order.
    An edge's faces are listed in id order, so each pair is already
    (lower, upper) and in range, and no pair is a loop: a face with a
    repeated vertex a has an edge (a, a) that only it can run, which
    _edge_faces refuses.  That leaves the face count and a repeated
    pair, which from_edge_list is called to name only when there is
    one; as_cubic then checks degrees and connectivity."""
    uses = mesh._edges
    shared = tuple(sorted(uses))
    pairs = tuple((uses[k][0], uses[k][2]) for k in shared)
    n = len(mesh.faces)
    check_vertex_count(n)
    if len(set(pairs)) != len(pairs):
        from_edge_list(n, pairs)  # raises DuplicateEdge at the first repeat
    return DualGraph(graph=as_cubic(Graph(n, pairs)), shared_edge=shared)


def quad_weights(mesh: TriangleMesh, dual: DualGraph) -> tuple[Fraction, ...]:
    """Quality per dual edge, in dual edge id order."""
    return tuple(
        Fraction(q, QUALITY_DENOMINATOR)
        for q in _quality_numerators(mesh, _quad_cycles(mesh, dual))
    )


def _quality_numerators(mesh: TriangleMesh, cycles) -> list[int]:
    """The quality numerator over QUALITY_DENOMINATOR of each quad cycle."""
    pts = _unit_scaled(mesh.vertices)
    return [_quality_numerator(pts[a], pts[u], pts[b], pts[v]) for a, u, b, v in cycles]


def _quad_cycles(mesh: TriangleMesh, dual: DualGraph) -> list[tuple[int, int, int, int]]:
    """The corner cycle (a, u, b, v) of the quad of each dual edge, in
    dual edge id order, oriented like the face that traverses the
    shared edge u -> v, as the edge-face map's run flag tells.  A
    face's third vertex is its vertex sum less u and v."""
    faces, uses = mesh.faces, mesh._edges
    out = []
    for u, v in dual.shared_edge:
        f1, forward, f2, _ = uses[u, v]
        if not forward:
            f1, f2 = f2, f1
        out.append((sum(faces[f1]) - u - v, u, sum(faces[f2]) - u - v, v))
    return out


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
    both optima, and one blossom run (matching.best_integer_matchings)
    gives them in either mode.  The computed qualities reach the engine
    as their int numerators over QUALITY_DENOMINATOR; given weights are
    scaled to ints by matching.integer_weights.
    """
    if mode not in ("perfect", "maximum"):
        raise BadParameters(f"mode must be perfect or maximum, got {mode!r}")
    dual = dual_graph(mesh)
    cycles = _quad_cycles(mesh, dual)
    if weights is None:
        w, scale = _quality_numerators(mesh, cycles), QUALITY_DENOMINATOR
    else:
        if len(weights) != dual.graph.m:
            raise BadWeights(f"expected {dual.graph.m} weights, got {len(weights)}")
        fracs = [Fraction(x) for x in weights]
        if any(x < 0 for x in fracs):
            raise BadWeights("weights must be nonnegative")
        w, scale = integer_weights(fracs)
    # the weights are w[e] / scale from here on.  Unlike the ratio
    # analysis, an all-zero quality vector is fine here: every pairing
    # ties and the report's ratio field stays None
    all_zero = not any(w)
    # the engines insist on a positive entry; with every quality zero the
    # empty matching is maximum and any perfect matching is best
    engine = ([1] * len(w), 1) if all_zero else (w, scale)
    best, best_perfect = best_integer_matchings(dual.graph, *engine)
    max_m = frozenset() if all_zero else best
    maximum_weight = Fraction(sum(w[e] for e in max_m), scale)
    perfect_weight: Fraction | None = None
    if best_perfect is not None:
        perfect_weight = Fraction(sum(w[e] for e in best_perfect), scale)
    elif mode == "perfect":
        raise NoPerfectMatching("no perfect matching exists")
    chosen = best_perfect if mode == "perfect" else max_m
    quads = tuple(cycles[eid] for eid in sorted(chosen))
    merged = {f for eid in chosen for f in dual.graph.edges[eid]}
    leftovers = tuple(face for f, face in enumerate(mesh.faces) if f not in merged)
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
    # the 20 triples of vertices 2 apart, in lexicographic order, each
    # turned so that its normal points away from the centre
    faces = (
        (0, 1, 2), (0, 7, 1), (0, 2, 6), (0, 6, 5), (0, 5, 7),
        (1, 8, 2), (1, 7, 3), (1, 3, 8), (2, 4, 6), (2, 8, 4),
        (3, 7, 11), (3, 9, 8), (3, 11, 9), (4, 10, 6), (4, 8, 9),
        (4, 9, 10), (5, 6, 10), (5, 11, 7), (5, 10, 11), (9, 11, 10),
    )
    return TriangleMesh(tuple(raw), faces)


def off_text(mesh: TriangleMesh) -> str:
    """Serialise back to OFF, the inverse of parse_off."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in mesh.faces:
        lines.append(f"3 {a} {b} {c}")
    return "\n".join(lines) + "\n"
