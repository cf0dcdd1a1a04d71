"""The three workloads: their job lists and the check for each job.

A job is one user-visible request: an exact value, a certificate with
its recheck, or a quad mesh.  Jobs call the library through module
attributes (mf.eta.eta_exact, not a name bound at import), so the
tracer's wrappers see every call.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import inputs
from checks import (
    CATALOG_ETA,
    THIRD,
    components_without,
    is_matching,
    is_perfect,
    perfect_matchings,
    require,
    weight,
)

WORKLOADS = ("eta-catalog", "certify", "quad-mesh")

# eta-catalog: one seeded bridgeless cubic graph per size
ETA_RANDOM_SIZES = (12, 14, 14, 16)
# certify: berge_witness on seeded bridgeless cubic graphs of these sizes
BERGE_RANDOM_SIZES = (16, 16, 18, 18, 20, 20)
# certify: (graph, matching size, largest cap accepted, frozen bound)
CAP_SEARCHES = (
    ("cube", 3, 2, Fraction(2, 3)),
    ("petersen", 3, 1, Fraction(1, 3)),
    ("blanusa1", 5, 2, Fraction(2, 5)),
    ("blanusa2", 6, 4, None),
)
# quad-mesh: (name, faces as built, jitter, mode)
MESHES = (
    ("icosphere80", lambda: inputs.icosphere(1), 0.02, "maximum"),
    ("icosphere320", lambda: inputs.icosphere(2), 0.01, "perfect"),
    ("torus576", lambda: inputs.torus(24, 12), 0.03, "maximum"),
)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def build(workload: str, mf: SimpleNamespace, seed: int) -> list[Job]:
    """The job list of one workload; all inputs are made here."""
    rng = random.Random(seed)
    if workload == "eta-catalog":
        return _eta_catalog(mf, rng)
    if workload == "certify":
        return _certify(mf, rng)
    if workload == "quad-mesh":
        return _quad_mesh(mf, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _random_graph(mf: SimpleNamespace, n: int, rng: random.Random):
    return mf.graphs.as_cubic(
        mf.graphs.from_edge_list(n, inputs.bridgeless_cubic(n, rng))
    )


# ---------------------------------------------------------------------------
# eta-catalog


def _eta_catalog(mf: SimpleNamespace, rng: random.Random) -> list[Job]:
    named = [(g.name, g) for g in mf.generators.catalog(20)]
    require(
        sorted(name for name, _ in named) == sorted(CATALOG_ETA),
        "catalog(20) no longer matches the frozen table",
    )
    for i, n in enumerate(ETA_RANDOM_SIZES):
        named.append((f"random{i}-n{n}", _random_graph(mf, n, rng)))
    return [
        Job(
            f"eta:{name}",
            lambda g=g: mf.eta.eta_exact(g),
            lambda res, g=g, name=name: _check_eta(mf, g, CATALOG_ETA.get(name), res),
        )
        for name, g in named
    ]


def _check_eta(mf: SimpleNamespace, g, frozen: Fraction | None, res) -> None:
    if frozen is not None:
        require(res.value == frozen, f"eta {res.value}, frozen value {frozen}")
    w = res.witness_weights
    require(len(w) == g.m and min(w) >= 0 and max(w) > 0, "witness is not a weighting")
    arg = mf.matching.max_weight_matching(g, w)
    pm = mf.matching.max_weight_perfect_matching(g, w)
    require(is_matching(g.edges, arg), "recomputed argmax is not a matching")
    require(is_perfect(g.n, g.edges, pm), "recomputed best PM is not perfect")
    best, worst = weight(w, arg), weight(w, pm)
    require(worst / best == res.value, f"witness ratio {worst / best} != {res.value}")
    require(
        (res.argmax_weight, res.worst_pm_weight) == (best, worst),
        "reported weights disagree with the recomputation",
    )
    upper = mf.eta.best_maximal_matching_bound(g).bound
    require(res.value <= upper, f"eta {res.value} above exposed-set bound {upper}")
    if not inputs.has_bridge(g.n, list(g.edges)):
        require(res.value >= THIRD, f"bridgeless graph with eta {res.value} < 1/3")


# ---------------------------------------------------------------------------
# certify


def _certify(mf: SimpleNamespace, rng: random.Random) -> list[Job]:
    eta = mf.eta
    jobs = []

    def certified(name, g, make, check, recheck=True):
        # produce, then the `cert verify` path: JSON out, JSON in, verify
        def run():
            cert = make()
            back = eta.cert_from_json(json.loads(json.dumps(eta.cert_to_json(cert))))
            return cert, back, eta.verify(g, back) if recheck else None

        def full_check(out):
            cert, back, verdict = out
            require(back == cert, "certificate changed through JSON")
            if recheck:
                require(verdict == (True, "ok"), f"verify rejected: {verdict}")
            check(cert)

        jobs.append(Job(name, run, full_check))

    berge = [(g.name, g) for g in mf.generators.catalog(20)]
    for i, n in enumerate(BERGE_RANDOM_SIZES):
        berge.append((f"random{i}-n{n}", _random_graph(mf, n, rng)))
    for name, g in berge:
        certified(
            f"berge:{name}",
            g,
            lambda g=g: eta.berge_witness(g),
            lambda c, g=g, name=name: _check_berge(g, name, c),
        )

    for name, size, max_cap, frozen in CAP_SEARCHES:
        g = mf.generators.named(name)
        certified(
            f"cap:{name}",
            g,
            lambda g=g, size=size, max_cap=max_cap: eta.cap_certificate(
                g, eta.find_cap_matching(g, size, max_cap)
            ),
            lambda c, g=g, size=size, max_cap=max_cap, frozen=frozen: _check_cap(
                g, size, max_cap, frozen, c
            ),
        )

    nauru = mf.generators.named("nauru")
    certified(
        "independent:nauru",
        nauru,
        lambda: eta.find_independent_set_bound(nauru, 8),
        lambda c: _check_independent(nauru, 8, c),
    )

    odd = mf.generators.odd_component_example()
    certified(
        "odd:example",
        odd,
        lambda: eta.odd_component_cert(odd, (0, 1)),
        lambda c: _check_odd(odd, (0, 1), Fraction(1, 2), c),
    )

    # 40 vertices: verify's perfect-matching enumeration stops at 26 in
    # the seed, so these two are checked here against the frozen cap 4
    fam, fam_m = mf.generators.eta_third_family(2)
    certified(
        "cap:family2",
        fam,
        lambda: eta.cap_certificate(fam, fam_m),
        lambda c: _check_family(fam, fam_m, c),
        recheck=False,
    )
    certified(
        "odd:family2",
        fam,
        lambda: eta.odd_component_cert(fam, fam_m),
        lambda c: _check_family(fam, fam_m, c),
        recheck=False,
    )
    return jobs


def _check_berge(g, name: str, c) -> None:
    require(c.kind == "berge_cover_lower" and c.bound == THIRD, "not a 1/3 cover")
    k = c.cover_count
    coverage = [0] * g.m
    for edges, mult in c.families:
        require(mult >= 1, "nonpositive multiplicity")
        require(is_perfect(g.n, g.edges, edges), "family member is not a PM")
        for e in edges:
            coverage[e] += mult
    require(sum(mult for _, mult in c.families) == 3 * k, "family size is not 3k")
    require(all(x == k for x in coverage), "coverage is not uniform")
    if name == "petersen":
        require(
            k == 2 and len(c.families) == 6 and all(m == 1 for _, m in c.families),
            "petersen cover is not the frozen six matchings, k = 2",
        )


def _cap_of(g, matching) -> int:
    m = set(matching)
    return max(len(m & pm) for pm in perfect_matchings(g.n, g.edges))


def _check_cap(g, size: int, max_cap: int, frozen: Fraction | None, c) -> None:
    require(c.kind == "cap_upper", f"kind {c.kind}")
    require(
        len(c.matching) == size and is_matching(g.edges, c.matching),
        "cap matching has the wrong size or is not a matching",
    )
    cap = _cap_of(g, c.matching)
    require(c.cap == cap <= max_cap, f"cap {c.cap}, recomputed {cap}, limit {max_cap}")
    require(c.bound == Fraction(cap, size), "bound is not cap / size")
    if frozen is not None:
        require(c.bound == frozen, f"bound {c.bound}, frozen {frozen}")


def _check_independent(g, size: int, c) -> None:
    s = set(c.independent_set)
    require(c.kind == "independent_set_upper" and len(s) == size, "wrong set size")
    require(
        not any(u in s and v in s for u, v in g.edges), "exposed set not independent"
    )
    covered = [v for e in c.matching for v in g.edges[e]]
    require(
        is_matching(g.edges, c.matching) and set(covered) | s == set(range(g.n))
        and not s & set(covered),
        "matching does not cover exactly the other vertices",
    )
    require(c.bound == Fraction(g.n - 2 * size, g.n - size), "wrong exposed-set bound")


def _check_components(g, matching, c) -> None:
    ends = {v for e in matching for v in g.edges[e]}
    require(
        tuple(c.component_list) == components_without(g.n, g.edges, ends),
        "component list does not match the deletion",
    )


def _check_odd(g, matching, frozen: Fraction, c) -> None:
    require(c.kind == "odd_component_upper", f"kind {c.kind}")
    require(tuple(c.matching) == tuple(sorted(matching)), "matching changed")
    require(c.cap == _cap_of(g, matching), "cap disagrees with enumeration")
    require(c.bound == frozen, f"bound {c.bound}, frozen {frozen}")
    _check_components(g, matching, c)


def _check_family(g, matching, c) -> None:
    require(tuple(c.matching) == tuple(sorted(matching)), "matching changed")
    require(
        c.cap == 4 and c.bound == THIRD,
        f"cap {c.cap} and bound {c.bound}, frozen cap 4 and bound 1/3",
    )
    if c.kind == "odd_component_upper":
        _check_components(g, matching, c)
    else:
        require(c.kind == "cap_upper", f"kind {c.kind}")


# ---------------------------------------------------------------------------
# quad-mesh


def _quad_mesh(mf: SimpleNamespace, rng: random.Random) -> list[Job]:
    jobs = []
    for name, shape, amount, mode in MESHES:
        pts, faces = shape()
        text = inputs.off_text(inputs.jitter(pts, rng, amount), faces)
        jobs.append(
            Job(
                f"quad:{name}:{mode}",
                lambda text=text, mode=mode: mf.mesh.quadrangulate(
                    mf.mesh.parse_off(text), mode
                ),
                lambda out, text=text, mode=mode: _check_quads(mf, text, mode, out),
            )
        )
    return jobs


def _check_quads(mf: SimpleNamespace, text: str, mode: str, out) -> None:
    quads, report = out
    mesh = mf.mesh.parse_off(text)
    dual = mf.mesh.dual_graph(mesh)
    face_id = {frozenset(f): i for i, f in enumerate(mesh.faces)}
    edge_id = {pair: e for e, pair in enumerate(dual.shared_edge)}
    used: list[int] = []
    chosen = []
    for a, u, b, v in quads.quads:
        used += [face_id.get(frozenset((a, u, v)), -1), face_id.get(frozenset((b, u, v)), -1)]
        chosen.append(edge_id.get((min(u, v), max(u, v)), -1))
    used += [face_id.get(frozenset(t), -1) for t in quads.triangles]
    require(sorted(used) == list(range(len(mesh.faces))), "faces not used exactly once")
    require(
        (report.quad_count, report.triangle_count)
        == (len(quads.quads), len(quads.triangles)),
        "report counts disagree with the mesh",
    )
    if mode == "perfect":
        require(report.triangle_count == 0, "perfect mode left triangles")
    w = mf.mesh.quad_weights(mesh, dual)
    got = weight(w, chosen)
    claimed = report.perfect_weight if mode == "perfect" else report.maximum_weight
    require(got == claimed, f"chosen quality {got}, report says {claimed}")
    require(report.perfect_weight is not None, "closed mesh without a perfect pairing")
    require(report.ratio == report.perfect_weight / report.maximum_weight, "bad ratio")
    bridgeless = not inputs.has_bridge(dual.graph.n, list(dual.graph.edges))
    require(report.ratio <= 1, f"ratio {report.ratio} above 1")
    if bridgeless:
        require(report.ratio >= THIRD, f"ratio {report.ratio} below 1/3 on a bridgeless dual")
