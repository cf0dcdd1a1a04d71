"""Meshes: OFF parsing, dual graphs, quad quality, quadrangulation, OBJ."""

import hashlib
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from matchforge import errors, matching
from matchforge import mesh as mesh_module
from matchforge.classify import is_bridgeless
from matchforge.matching import random_weights
from matchforge.mesh import (
    QUALITY_DENOMINATOR,
    TriangleMesh,
    _quad_cycles,
    _quality_numerators,
    dual_graph,
    icosahedron,
    off_text,
    parse_off,
    quad_quality,
    quad_weights,
    quadrangulate,
    save_obj,
    tetrahedron,
)

TETRA_OFF = """OFF
# right-angle tetrahedron
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def test_parse_off_basics():
    mesh = parse_off(TETRA_OFF)
    assert len(mesh.vertices) == 4
    assert len(mesh.faces) == 4
    assert mesh.vertices[1] == (1.0, 0.0, 0.0)
    assert mesh.faces[0] == (0, 2, 1)


def test_parse_off_header_optional():
    no_header = "\n".join(TETRA_OFF.splitlines()[1:])
    assert parse_off(no_header) == parse_off(TETRA_OFF)


def test_parse_off_errors():
    with pytest.raises(errors.ParseError):
        parse_off("")
    with pytest.raises(errors.ParseError):
        parse_off("OFF\nnot numbers\n")
    with pytest.raises(errors.ParseError):
        parse_off("OFF\n4 4 6\n0 0 0\n")  # truncated
    with pytest.raises(errors.ParseError):
        parse_off(TETRA_OFF.replace("3 1 2 3", "3 1 2 9"))  # index range
    with pytest.raises(errors.NotTriangular):
        parse_off(TETRA_OFF.replace("3 1 2 3", "4 1 2 3 0"))
    with pytest.raises(errors.Degenerate):
        parse_off(TETRA_OFF.replace("3 1 2 3", "3 1 2 2"))


def test_parse_off_truncated_face_line():
    # fewer indices than the count is malformed input, not a non-triangle
    with pytest.raises(errors.ParseError, match="face line 3: truncated"):
        parse_off(TETRA_OFF.replace("3 1 2 3", "3 1 2"))
    with pytest.raises(errors.ParseError, match="face line 3: truncated"):
        parse_off(TETRA_OFF.replace("3 1 2 3", "4 1 2 3"))
    with pytest.raises(errors.ParseError, match="face line 0: truncated"):
        parse_off(TETRA_OFF.replace("3 0 2 1", "3"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_parse_off_non_finite_coordinate(bad):
    with pytest.raises(errors.ParseError, match="vertex line 3: non-finite coordinate"):
        parse_off(TETRA_OFF.replace("0 0 1", f"0 0 {bad}"))


def test_parse_off_open_surface_rejected():
    # drop one face: its three edges become boundary
    open_text = "OFF\n4 3 6\n" + "\n".join(TETRA_OFF.splitlines()[3:10]) + "\n"
    with pytest.raises(errors.NotClosed):
        parse_off(open_text)


def test_parse_off_inconsistent_orientation_rejected():
    flipped = TETRA_OFF.replace("3 1 2 3", "3 1 3 2")
    with pytest.raises(errors.NotClosed):
        parse_off(flipped)


@pytest.mark.parametrize("quad", [False, True], ids=["dual_graph", "quadrangulate"])
def test_a_mesh_built_in_code_is_checked_for_closedness(quad):
    # the tetrahedron less one face, and with a face repeated: both once
    # reached the dual graph unchecked and failed to unpack its edges
    tet = tetrahedron()
    run = quadrangulate if quad else dual_graph
    with pytest.raises(errors.NotClosed, match=r"edge \(1, 2\) lies on 1 faces"):
        run(TriangleMesh(tet.vertices, tet.faces[:3]))
    with pytest.raises(errors.NotClosed, match=r"edge \(0, 1\) traversed twice the same way"):
        run(TriangleMesh(tet.vertices, tet.faces + tet.faces[:1]))
    # closed, but two faces sharing all three edges, and two disjoint
    # tetrahedra: the dual built straight from the edge-face map still
    # refuses both
    with pytest.raises(errors.DuplicateEdge, match=r"edge \(0, 1\) repeated"):
        run(TriangleMesh(tet.vertices[:3], ((0, 1, 2), (0, 2, 1))))
    twice = tuple((a + 4, b + 4, c + 4) for a, b, c in tet.faces)
    with pytest.raises(errors.NotConnected, match="2 components"):
        run(TriangleMesh(tet.vertices * 2, tet.faces + twice))


def test_each_mesh_quantity_is_built_once(monkeypatch):
    # parse_off builds the edge-face map to check closure; the dual, the
    # quad cycles and both modes of quadrangulate read that same map,
    # and every dual_graph call returns the first one built
    calls = []
    build = mesh_module._edge_faces
    monkeypatch.setattr(mesh_module, "_edge_faces", lambda m: calls.append(m) or build(m))
    mesh = parse_off(off_text(icosahedron()))
    for mode in ("perfect", "maximum"):
        quadrangulate(mesh, mode=mode)
    quad_weights(mesh, dual_graph(mesh))
    assert calls == [mesh]
    assert dual_graph(mesh) is dual_graph(mesh)


@pytest.mark.parametrize(
    "text, error",
    [
        ("OFF\n0 1 0\n", "OFF needs at least one vertex and face"),
        (TETRA_OFF.replace("0 0 1\n", "0 0\n"), "vertex line 3: expected 3 coordinates"),
        (TETRA_OFF.replace("0 0 1\n", "0 0 x\n"), "vertex line 3: bad coordinate"),
        (TETRA_OFF.replace("3 0 3 2", "3 0 x 2"), "face line 2: bad index"),
    ],
    ids=["zero-vertices", "two-coordinates", "non-numeric-coordinate", "non-integer-index"],
)
def test_parse_off_names_each_malformed_line(text, error):
    with pytest.raises(errors.ParseError, match=error):
        parse_off(text)


# tokens the corpus below writes into OFF lines: bad numbers, counts,
# out-of-range and negative ids, a 30-digit int, comments, a header,
# and forms int() and float() take or refuse
_OFF_TOKENS = (
    "x", "nan", "3", "4", "-1", "99", "0", "1", "2", "#", "1e999", "9" * 30,
    "0.5", "OFF", "off", "3 0 1", "  ", "+3", "1_0", " ", "2.0",
)


def _mutated_off_texts(seed, count):
    """count seeded OFF texts: the tetrahedron, the icosahedron, the
    tetrahedron with comments and a blank line, or a headerless one
    with a zero-area face, each after one to three line edits (delete,
    repeat, swap, cut the rest, replace, add or drop a token, insert a
    blank or comment line), joined by LF or CRLF."""
    bases = [
        off_text(tetrahedron()),
        off_text(icosahedron()),
        TETRA_OFF.replace("3 0 1 3", "3 0 1 3 # x").replace("3 0 3 2", "\n3 0 3 2"),
        "\n".join(TETRA_OFF.replace("0 0 1", "2 0 0").splitlines()[1:]),
    ]
    rng = random.Random(seed)
    for _ in range(count):
        lines = rng.choice(bases).splitlines()
        for _ in range(rng.randint(1, 3)):
            if not lines:
                lines.append(rng.choice(_OFF_TOKENS))
                continue
            op, i = rng.randrange(8), rng.randrange(len(lines))
            parts = lines[i].split()
            if op == 0:
                del lines[i]
            elif op == 1:
                lines.insert(i, lines[i])
            elif op == 2:
                j = rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
            elif op == 3 and parts:
                parts[rng.randrange(len(parts))] = rng.choice(_OFF_TOKENS)
                lines[i] = " ".join(parts)
            elif op == 4:
                lines.insert(i, rng.choice(["", "# comment", "   ", "\t"]))
            elif op == 5:
                del lines[i:]
            elif op == 6:
                lines[i] += " " + rng.choice(_OFF_TOKENS)
            elif op == 7 and parts:
                del parts[rng.randrange(len(parts))]
                lines[i] = " ".join(parts)
        yield rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


# Digest of parse_off's outcome (the mesh, or the error type and
# message) on each of _mutated_off_texts(7, 3000), computed at commit
# bb64bf8, before parse_off read its input in one pass
PARSE_OFF_OUTCOMES_SHA256 = "920e385565002a5aadc814a887145affcbd0a59ea39ec65ab3e4f6a944c27fab"


def test_parse_off_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    kinds = set()
    for text in _mutated_off_texts(7, 3000):
        try:
            mesh = parse_off(text)
            outcome = ("ok", mesh.vertices, mesh.faces)
        except errors.MatchforgeError as exc:
            outcome = (type(exc).__name__, str(exc))
        kinds.add(outcome[0])
        digest.update(repr(outcome).encode())
    assert kinds == {"ok", "ParseError", "NotTriangular", "Degenerate", "NotClosed"}
    assert digest.hexdigest() == PARSE_OFF_OUTCOMES_SHA256


def test_parse_off_zero_area_rejected():
    text = TETRA_OFF.replace("0 0 1", "2 0 0")  # vertex 3 collinear with 0, 1
    with pytest.raises(errors.Degenerate):
        parse_off(text)


def test_off_round_trip(tmp_path):
    for mesh in (tetrahedron(), icosahedron()):
        assert parse_off(off_text(mesh)) == mesh
        # the map and dual a mesh keeps take no part in equality, hash or repr
        parsed = parse_off(off_text(mesh))
        dual_graph(parsed)
        assert (parsed, hash(parsed), repr(parsed)) == (mesh, hash(mesh), repr(mesh))
    path = tmp_path / "ico.off"
    path.write_text(off_text(icosahedron()))
    assert parse_off(path.read_text()) == icosahedron()


def test_sample_meshes():
    t = tetrahedron()
    assert len(t.vertices) == 4 and len(t.faces) == 4
    ico = icosahedron()
    assert len(ico.vertices) == 12 and len(ico.faces) == 20


def test_dual_graph_tetrahedron_is_k4():
    dual = dual_graph(tetrahedron())
    g = dual.graph
    assert g.n == 4 and g.m == 6
    assert all(g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))
    # each dual edge records the mesh edge its two faces share
    for eid, (u, v) in enumerate(g.edges):
        shared = set(dual.shared_edge[eid])
        fu = set(tetrahedron().faces[u])
        fv = set(tetrahedron().faces[v])
        assert shared == fu & fv


def test_dual_graph_icosahedron():
    dual = dual_graph(icosahedron())
    g = dual.graph
    assert g.n == 20 and g.m == 30
    ok, _ = is_bridgeless(g)
    assert ok


def test_quad_quality_geometry():
    # planar unit square: all corners 90 degrees, no bend
    assert quad_quality((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)) == 1
    # fold-back: second apex inside the first triangle
    assert quad_quality((0, 0, 0), (1, 0, 0), (0.3, 0.3, 0), (0, 1, 0)) == 0
    # planar parallelogram with 60/120 corners scores on angle alone
    q = quad_quality((0, 0, 0), (1, 0, 0), (1.5, 0.8660254037844386, 0), (0.5, 0.8660254037844386, 0))
    assert 0 < q < 1
    assert QUALITY_DENOMINATOR % q.denominator == 0
    # mild bend also stays strictly between
    q = quad_quality((0, 0, 0), (1, 0, 0), (1, 1, 0.3), (0, 1, 0))
    assert 0 < q < 1


def test_quad_weights_frozen():
    ico = icosahedron()
    w = quad_weights(ico, dual_graph(ico))
    assert set(w) == {Fraction(62113, 125000)}
    t = tetrahedron()
    # regular tetrahedron folds are all sharper than a right angle
    assert set(quad_weights(t, dual_graph(t))) == {Fraction(0)}


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a):
    return math.sqrt(_dot(a, a))


def test_icosahedron_faces_are_the_searched_triples():
    # every triple of vertices whose three sides have length 2, in
    # lexicographic order, turned so its normal points the way of its
    # centroid: the search icosahedron() ran before it listed its faces
    pts = icosahedron().vertices
    faces = []
    for face in combinations(range(12), 3):
        i, j, k = face
        sides = (_sub(pts[i], pts[j]), _sub(pts[j], pts[k]), _sub(pts[i], pts[k]))
        if all(abs(_norm(d) - 2.0) < 1e-9 for d in sides):
            centroid = tuple(sum(pts[v][t] for v in face) / 3.0 for t in range(3))
            if _dot(_cross(_sub(pts[j], pts[i]), _sub(pts[k], pts[i])), centroid) < 0.0:
                face = (i, k, j)
            faces.append(face)
    assert tuple(faces) == icosahedron().faces


def _quality_reference(pa, pu, pb, pv, events):
    """quad_quality written with plain vector helpers and min/max
    clamps, on the unscaled points.  Adds to events the name of each
    clamp that acts and each early exit taken; quad_quality scales the
    points by a power of two, which moves no ratio, so its kernel meets
    the same ones."""
    corners = (pa, pu, pb, pv)
    angle = 1.0
    for i in range(4):
        u = _sub(corners[i - 1], corners[i])
        v = _sub(corners[(i + 1) % 4], corners[i])
        nu, nv = _norm(u), _norm(v)
        if nu == 0.0 or nv == 0.0:
            events.add("zero side")
            angle = 0.0
            break
        cos = _dot(u, v) / (nu * nv)
        if cos >= 1.0:
            events.add("cos at +1")
        elif cos <= -1.0:
            events.add("cos at -1")
        theta = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
        if theta == 0.0:
            events.add("theta 0")
            angle = 0.0
            break
        angle = min(angle, theta / 90.0, 90.0 / theta)
    n1 = _cross(_sub(pu, pa), _sub(pv, pa))
    n2 = _cross(_sub(pb, pu), _sub(pv, pu))
    m1, m2 = _norm(n1), _norm(n2)
    if m1 == 0.0 or m2 == 0.0:
        events.add("zero area")
        return Fraction(0)
    planar = _dot(n1, n2) / (m1 * m2)
    if planar <= 0.0:
        events.add("planar <= 0")
    q = angle * max(0.0, planar)
    if q >= 1.0:
        events.add("q at 1")
    q = max(0.0, min(1.0, q))
    return Fraction(round(q * QUALITY_DENOMINATOR), QUALITY_DENOMINATOR)


def test_quad_quality_matches_the_helper_reference(seed=1357):
    rng = random.Random(seed)
    counts = {}
    for _ in range(3000):
        kind = rng.random()
        if kind < 0.6:
            pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(4)]
        else:  # small grids give right angles, folds and repeated corners
            pts = [tuple(float(rng.randint(-1, 1)) for _ in range(3)) for _ in range(4)]
        events = set()
        assert quad_quality(*pts) == _quality_reference(*pts, events)
        for event in events:
            counts[event] = counts.get(event, 0) + 1
    # the corpus reaches every clamp and early exit of the kernel
    assert set(counts) == {
        "zero side", "cos at +1", "cos at -1", "theta 0", "zero area", "planar <= 0", "q at 1"
    }, counts


def test_quadrangulate_perfect_icosahedron():
    qm, report = quadrangulate(icosahedron())
    assert report.mode == "perfect"
    assert report.quad_count == 10 and report.triangle_count == 0
    assert qm.triangles == ()
    assert report.perfect_weight == Fraction(62113, 12500)
    assert report.ratio == 1
    for quad in qm.quads:
        assert len(set(quad)) == 4


def _scaled(mesh, scale):
    return TriangleMesh(tuple(tuple(c * scale for c in p) for p in mesh.vertices), mesh.faces)


# scales at which squared coordinates, or the squared norms of face
# normals, over- or underflow: unscaled scoring gave every quality 0 at
# each of them, and parse_off rejected the last three as zero-area
FAR_SCALES = (1e100, 3.7e150, 1e-100, 1e-150, 1e-300)


@pytest.mark.parametrize("scale", FAR_SCALES)
def test_quad_quality_does_not_depend_on_the_scale(scale):
    mesh = parse_off(off_text(_scaled(icosahedron(), scale)))
    assert set(quad_weights(mesh, dual_graph(mesh))) == {Fraction(62113, 125000)}
    qm, report = quadrangulate(mesh)
    assert report.quad_count == 10 and report.triangle_count == 0
    assert report.perfect_weight == Fraction(62113, 12500)
    assert qm.quads == quadrangulate(icosahedron())[0].quads


@pytest.mark.parametrize("scale", FAR_SCALES)
def test_zero_area_is_found_at_any_scale(scale):
    mesh = parse_off(TETRA_OFF)
    flat = TriangleMesh((*mesh.vertices[:3], (2.0, 0.0, 0.0)), mesh.faces)
    with pytest.raises(errors.Degenerate, match="zero area"):
        parse_off(off_text(_scaled(flat, scale)))


@pytest.mark.parametrize("mode", ["perfect", "maximum"])
def test_quadrangulate_runs_the_blossom_once(monkeypatch, mode):
    calls = []
    engine = matching.max_weight_matching_pairs
    monkeypatch.setattr(
        matching, "max_weight_matching_pairs", lambda *a: calls.append(a[0]) or engine(*a)
    )
    quadrangulate(icosahedron(), mode=mode)
    assert calls == [20]  # one run on the 20-vertex dual graph


def test_quadrangulate_quads_are_face_pairs():
    ico = icosahedron()
    qm, _ = quadrangulate(ico)
    face_sets = [frozenset(f) for f in ico.faces]
    for a, u, b, v in qm.quads:
        assert frozenset({a, u, v}) in face_sets
        assert frozenset({b, u, v}) in face_sets


def test_quadrangulate_zero_quality_mesh():
    # all qualities zero: perfect mode still pairs, maximum merges nothing
    qm, report = quadrangulate(tetrahedron())
    assert report.quad_count == 2 and report.perfect_weight == 0
    assert report.ratio is None
    qm, report = quadrangulate(tetrahedron(), mode="maximum")
    assert report.quad_count == 0 and report.triangle_count == 4
    assert report.maximum_weight == 0


def test_quadrangulate_custom_weights_and_validation():
    t = tetrahedron()
    # dual edges 0 and 5 of the tetrahedron pair up all four faces
    qm, report = quadrangulate(t, weights=[1, 0, 0, 0, 0, 1])
    assert report.quad_count == 2 and report.perfect_weight == 2
    with pytest.raises(errors.BadWeights):
        quadrangulate(t, weights=[1, 2])
    with pytest.raises(errors.BadWeights):
        quadrangulate(t, weights=[1, -1, 0, 0, 0, 0])
    with pytest.raises(errors.BadParameters):
        quadrangulate(t, mode="best")


def test_quadrangulate_counts_add_up(seed=2468):
    ico = icosahedron()
    dual = dual_graph(ico)
    rng = random.Random(seed)
    for _ in range(20):
        w = random_weights(dual.graph, rng)
        for mode in ("perfect", "maximum"):
            qm, report = quadrangulate(ico, mode=mode, weights=w)
            assert 2 * report.quad_count + report.triangle_count == 20
            assert report.maximum_weight >= (report.perfect_weight or 0)
            if report.ratio is not None:
                assert Fraction(1, 3) <= report.ratio <= 1


# Digest of quadrangulate on the icosahedron under 20 seeded random_weights
# draws (seed 2468) in both modes, computed at commit eee7350, before
# given weights and computed qualities shared one integer route
CUSTOM_WEIGHTS_SHA256 = "0e7bbad0f6ef09ed6c31b2e20852b10171ba807c92397f0b7d6dd70015cdd83f"


def test_zero_and_custom_weights_keep_their_results():
    t = tetrahedron()
    for weights in (None, [0] * 6):
        qm, _ = quadrangulate(t, weights=weights)
        assert qm.quads == ((1, 0, 2, 3), (0, 1, 3, 2))
        qm, _ = quadrangulate(t, mode="maximum", weights=weights)
        assert qm.quads == () and qm.triangles == t.faces
    for mode in ("perfect", "maximum"):
        qm, report = quadrangulate(t, mode=mode, weights=[1, 0, 0, 0, 0, 1])
        assert qm.quads == ((2, 0, 3, 1), (0, 2, 1, 3))
        assert report.maximum_weight == report.perfect_weight == report.ratio * 2 == 2
    ico = icosahedron()
    dual = dual_graph(ico)
    rng = random.Random(2468)
    digest = hashlib.sha256()
    for _ in range(20):
        w = random_weights(dual.graph, rng)
        for mode in ("perfect", "maximum"):
            digest.update(repr(quadrangulate(ico, mode=mode, weights=w)).encode())
    assert digest.hexdigest() == CUSTOM_WEIGHTS_SHA256


def test_save_obj(tmp_path):
    qm, _ = quadrangulate(icosahedron())
    path = tmp_path / "out.obj"
    save_obj(qm, path)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 12
    fs = [l for l in lines if l.startswith("f ")]
    assert len(fs) == 10
    assert all(len(l.split()) == 5 for l in fs)
    # 1-based indexing within range
    for l in fs:
        assert all(1 <= int(tok) <= 12 for tok in l.split()[1:])


def _icosphere(levels, jitter, seed):
    """The icosahedron split at edge midpoints levels times (20 * 4**levels
    faces), pushed onto the unit sphere, then each vertex moved by up to
    jitter on each axis with a seeded draw."""
    ico = icosahedron()
    pts = [tuple(x / math.hypot(*p) for x in p) for p in ico.vertices]
    faces = list(ico.faces)
    for _ in range(levels):
        mid = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid:
                p = [(x + y) / 2 for x, y in zip(pts[a], pts[b])]
                pts.append(tuple(x / math.hypot(*p) for x in p))
                mid[key] = len(pts) - 1
            return mid[key]

        out = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = out
    rng = random.Random(seed)
    moved = tuple(tuple(x + jitter * rng.uniform(-1, 1) for x in p) for p in pts)
    return parse_off(off_text(TriangleMesh(moved, tuple(faces))))


# (levels, jitter, seed, mode) of the meshes whose quadrangulations are
# pinned; the maximum matching of the 80-face mesh with jitter 0.1 leaves
# two triangles, so there the best perfect matching weighs less
PINNED_MESHES = (
    (1, 0.02, 1, "perfect"),
    (1, 0.02, 1, "maximum"),
    (1, 0.1, 5, "perfect"),
    (1, 0.1, 5, "maximum"),
    (2, 0.01, 2, "perfect"),
    (2, 0.01, 2, "maximum"),
    (3, 0.005, 3, "perfect"),
)
# Digest of the quads, triangles and report of each PINNED_MESHES entry,
# computed at commit 4f242b7, where quadrangulate ran the blossom twice
QUADRANGULATE_SHA256 = "e3292aa24814c1d32c32259e84c9119af7d41514074bb7aec2f312f61c382b27"


def test_quadrangulate_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for levels, jitter, seed, mode in PINNED_MESHES:
        mesh = _icosphere(levels, jitter, seed)
        assert len(mesh.faces) == 20 * 4**levels
        qm, report = quadrangulate(mesh, mode=mode)
        digest.update(repr((qm.quads, qm.triangles, report)).encode())
    assert digest.hexdigest() == QUADRANGULATE_SHA256


def _torus(major, minor, jitter, seed):
    """A torus with radii 3 and 1 cut into 2 * major * minor outward
    triangles, each vertex then moved by up to jitter on each axis with
    a seeded draw."""
    pts = []
    for i in range(major):
        a = 2 * math.pi * i / major
        for j in range(minor):
            b = 2 * math.pi * j / minor
            r = 3 + math.cos(b)
            pts.append((r * math.cos(a), r * math.sin(a), math.sin(b)))
    faces = []
    for i in range(major):
        for j in range(minor):
            p00 = i * minor + j
            p10 = (i + 1) % major * minor + j
            p11 = (i + 1) % major * minor + (j + 1) % minor
            p01 = i * minor + (j + 1) % minor
            faces += [(p00, p10, p11), (p00, p11, p01)]
    rng = random.Random(seed)
    moved = tuple(tuple(x + jitter * rng.uniform(-1, 1) for x in p) for p in pts)
    return parse_off(off_text(TriangleMesh(moved, tuple(faces))))


# (mesh, mode) pairs where the blossom's greedy start covers most of the
# run: on the genus-1 torus nearly every stage matches one edge
GREEDY_MESHES = (
    (lambda: _torus(24, 12, 0.03, 7), "perfect"),
    (lambda: _torus(24, 12, 0.03, 7), "maximum"),
    (lambda: _icosphere(3, 0.005, 3), "maximum"),
)
# Digest of the quads, triangles and report of each GREEDY_MESHES entry,
# computed at commit 40918d9, before the engine replayed its greedy stages
GREEDY_MESHES_SHA256 = "e2cd664a0bc83dcbacd4d1157615c2dcc0c502a9d8e7960989f3cfff8e0100ba"


def test_greedy_start_meshes_match_the_pinned_digest():
    digest = hashlib.sha256()
    for build, mode in GREEDY_MESHES:
        qm, report = quadrangulate(build(), mode=mode)
        digest.update(repr((qm.quads, qm.triangles, report)).encode())
    assert digest.hexdigest() == GREEDY_MESHES_SHA256


# Digest of both results (sorted pairs, potentials, odd sets) of the
# shifted engine call that quadrangulate makes on the 80-, 320- and
# 1,280-face icospheres of PINNED_MESHES and on the 576-face torus,
# computed at commit b3a05d5, while the engine still kept a set of
# tight edges and added the shift to every dual and weight; the quads
# alone would not show a change to the duals at this scale
MESH_DUALS_SHA256 = "fd8d304ca0a4e3e2b093de761bbf86fa556a01ff4ae290d49332dffe04d42853"


def test_engine_duals_on_meshes_match_the_pinned_digest():
    draws = dict.fromkeys((levels, jitter, seed) for levels, jitter, seed, _ in PINNED_MESHES)
    digest = hashlib.sha256()
    for mesh in [*(_icosphere(*draw) for draw in draws), _torus(24, 12, 0.03, 7)]:
        dual = dual_graph(mesh)
        ints = _quality_numerators(mesh, _quad_cycles(mesh, dual))
        first, second, _ = matching._shifted_engine(dual.graph, ints, QUALITY_DENOMINATOR)
        for pairs, potentials, odd_sets in (first, second):
            digest.update(repr((sorted(pairs), potentials, odd_sets)).encode())
    assert digest.hexdigest() == MESH_DUALS_SHA256


ROUTE_MESHES = (
    lambda: _icosphere(1, 0.1, 5),
    lambda: _icosphere(2, 0.01, 2),
    lambda: _torus(24, 12, 0.03, 7),
)


@pytest.mark.parametrize("build", ROUTE_MESHES)
def test_quad_weights_are_quad_quality_per_edge(build):
    mesh = build()
    dual = dual_graph(mesh)
    w = quad_weights(mesh, dual)
    assert len(w) == dual.graph.m
    pts = mesh.vertices
    for eid, (f1, f2) in enumerate(dual.graph.edges):
        u, v = dual.shared_edge[eid]
        # the face that traverses u -> v holds corner a, the other b
        if (u, v) not in zip(mesh.faces[f1], mesh.faces[f1][1:] + mesh.faces[f1][:1]):
            f1, f2 = f2, f1
        (a,) = set(mesh.faces[f1]) - {u, v}
        (b,) = set(mesh.faces[f2]) - {u, v}
        assert w[eid] == quad_quality(pts[a], pts[u], pts[b], pts[v])


@pytest.mark.parametrize("build", ROUTE_MESHES)
@pytest.mark.parametrize("mode", ["perfect", "maximum"])
def test_given_quad_weights_match_the_default_route(build, mode):
    # the default route scores in ints over QUALITY_DENOMINATOR; the
    # same qualities passed as Fractions go through the LCM scaling
    mesh = build()
    default = quadrangulate(mesh, mode=mode)
    given = quadrangulate(mesh, mode=mode, weights=quad_weights(mesh, dual_graph(mesh)))
    assert given == default


# Digest of the quads, triangles and report of _icosphere(4, 0.005, 3)
# (5,120 faces) in perfect then maximum mode, computed at commit eee7350,
# before the qualities reached the engine as ints; the 1,280-face mesh
# of the same draw is pinned in both modes by QUADRANGULATE_SHA256 and
# GREEDY_MESHES_SHA256
LARGE_MESH_SHA256 = "eecca8429e692e920eb9b0b59a643c5048b978fcbc6f3519ce9f4453fe437072"


@pytest.mark.skipif(
    os.environ.get("MATCHFORGE_FULL") != "1", reason="about 20 s; set MATCHFORGE_FULL=1"
)
def test_large_mesh_matches_the_pinned_digest():
    mesh = _icosphere(4, 0.005, 3)
    assert len(mesh.faces) == 5120
    digest = hashlib.sha256()
    for mode in ("perfect", "maximum"):
        qm, report = quadrangulate(mesh, mode=mode)
        digest.update(repr((qm.quads, qm.triangles, report)).encode())
    assert digest.hexdigest() == LARGE_MESH_SHA256
