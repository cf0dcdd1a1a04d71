"""Meshes: OFF parsing, dual graphs, quad quality, quadrangulation, OBJ."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from matchforge import errors, matching
from matchforge.classify import is_bridgeless
from matchforge.matching import random_weights
from matchforge.mesh import (
    QUALITY_DENOMINATOR,
    TriangleMesh,
    dual_graph,
    icosahedron,
    load_off,
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


def test_parse_off_open_surface_rejected():
    # drop one face: its three edges become boundary
    open_text = "OFF\n4 3 6\n" + "\n".join(TETRA_OFF.splitlines()[3:10]) + "\n"
    with pytest.raises(errors.NotClosed):
        parse_off(open_text)


def test_parse_off_inconsistent_orientation_rejected():
    flipped = TETRA_OFF.replace("3 1 2 3", "3 1 3 2")
    with pytest.raises(errors.NotClosed):
        parse_off(flipped)


def test_parse_off_zero_area_rejected():
    text = TETRA_OFF.replace("0 0 1", "2 0 0")  # vertex 3 collinear with 0, 1
    with pytest.raises(errors.Degenerate):
        parse_off(text)


def test_off_round_trip(tmp_path):
    for mesh in (tetrahedron(), icosahedron()):
        assert parse_off(off_text(mesh)) == mesh
    path = tmp_path / "ico.off"
    path.write_text(off_text(icosahedron()))
    assert load_off(path) == icosahedron()


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


def test_quadrangulate_perfect_icosahedron():
    qm, report = quadrangulate(icosahedron())
    assert report.mode == "perfect"
    assert report.quad_count == 10 and report.triangle_count == 0
    assert qm.triangles == ()
    assert report.perfect_weight == Fraction(62113, 12500)
    assert report.ratio == 1
    for quad in qm.quads:
        assert len(set(quad)) == 4


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
