"""Self-contained checks of the library's headline results.

Each check recomputes a documented value from scratch and fails loudly
on any mismatch.  run_checks drives them with per-check wall clocks;
the gated checks run past the default enumeration budgets and only run
on request.  Each pinned exact eta is a GP_ETA row: petersen (check 1),
nauru (check 13, 5 s limit), and the gated gp(13,5) and gp(14,3).
Every upper-bound certificate a check builds must pass verify.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, IO

from . import DEFAULT_SEED
from .classify import hamiltonian_cycle, is_bridgeless, is_snark, tait_coloring
from .errors import Budget, BudgetExceeded, InternalError, MatchforgeError, NoPerfectMatching
from .eta import (
    BoundCertificate,
    berge_witness,
    best_maximal_matching_bound,
    cap_certificate,
    eta_exact,
    find_cap_matching,
    find_independent_set_bound,
    is_eta_one,
    is_eta_zero,
    maximal_matching_bound,
    odd_component_cert,
    verify,
)
from .generators import (
    bridge_join,
    catalog,
    eta_third_family,
    gp,
    named,
    random_cubic,
)
from .graphs import Graph, from_edge_list
from .matching import (
    best_matchings,
    enumerate_maximal_matchings,
    enumerate_perfect_matchings,
    has_perfect_matching,
    matching_weight,
    max_weight_matching,
    max_weight_perfect_matching,
    random_weights,
)
from .mesh import dual_graph, icosahedron, quadrangulate, tetrahedron

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


class CheckFailed(MatchforgeError):
    """A check did not reproduce its documented value."""


def check(ok: bool, detail: object) -> None:
    """Raise CheckFailed(detail) unless ok; unlike assert, survives -O."""
    if not ok:
        raise CheckFailed(detail)


@dataclass
class CheckOutcome:
    check_id: str
    label: str
    ok: bool
    detail: str
    seconds: float
    limit: float | None


# exact eta per gp(n, k): the value, the argmax matching and the witness
# weights by edge id.  gp(5, 2) and gp(12, 5) are petersen and nauru,
# with named()'s edge ids; the tests do not enumerate past 24 vertices.
GP_ETA = {
    (5, 2): (THIRD, (0, 8, 12), dict.fromkeys((0, 8, 12), Fraction(1))),
    (12, 5): (
        HALF, (0, 2, 4, 6, 20, 22, 24, 30, 33), dict.fromkeys((0, 4, 20, 22, 30, 33), THIRD)
    ),
    (13, 5): (
        Fraction(4, 9),
        (0, 2, 6, 18, 22, 24, 27, 29, 36, 38),
        {**dict.fromkeys((0, 6, 18, 22, 24, 29, 38), Fraction(1, 4)), 36: HALF},
    ),
    (14, 3): (
        Fraction(3, 7),
        (0, 2, 4, 6, 9, 26, 31, 32, 36, 41),
        dict.fromkeys((0, 9, 26, 31, 32, 36, 41), THIRD),
    ),
}


def _check_gp_eta(*rows: tuple[int, int]) -> str:
    """eta_exact, at a vertex limit of the graph's size, must reproduce
    the given GP_ETA rows."""
    for n, k in rows:
        value, argmax, witness = GP_ETA[n, k]
        g = gp(n, k)
        r = eta_exact(g, budget=Budget(vertex_limit=g.n))
        check(r.value == value, f"eta {r.value}")
        check(r.argmax_matching == argmax, f"argmax {r.argmax_matching}")
        expected = tuple(witness.get(e, 0) for e in range(g.m))
        check(r.witness_weights == expected, f"witness {r.witness_weights}")
    return "exact eta " + ", ".join(f"gp({n},{k}) = {GP_ETA[n, k][0]}" for n, k in rows)


def _certified(g: Graph, cert: BoundCertificate, bound: Fraction, size: int) -> None:
    """Require cert to prove bound on g with the size its kind names
    (|S| for an exposed set, the cap for a cap), and verify to accept it."""
    got = len(cert.independent_set) if cert.cap is None else cert.cap
    check(cert.bound == bound and got == size, cert)
    ok, msg = verify(g, cert)
    check(ok, msg)


def _check_eta_k33() -> str:
    g = named("k33")
    r = eta_exact(g)
    check(r.value == 1, f"eta {r.value}")
    one, _ = is_eta_one(g)
    check(one, "k33 has a non-perfect maximal matching")
    return "eta = 1 and every maximal matching is perfect"


def _check_eta_path() -> str:
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    r = eta_exact(g)
    check(r.value == 0, f"eta {r.value}")
    zero, edge = is_eta_zero(g)
    check(zero and edge == 1, "middle edge not found outside every perfect matching")
    return "eta = 0, middle edge lies in no perfect matching"


def _check_exposed_set_bounds() -> str:
    nauru = named("nauru")
    c = find_independent_set_bound(nauru, 8)
    check(c is not None, "no 8-vertex witness on nauru")
    _certified(nauru, c, HALF, 8)
    for name, bound, size in (("petersen", THIRD, 4), ("blanusa2", HALF, 6), ("k4", 1, 0)):
        g = named(name)
        _certified(g, best_maximal_matching_bound(g), bound, size)
    return "petersen 1/3 (|S|=4), nauru 1/2 (|S|=8), blanusa2 1/2 (|S|=6), k4 1"


def _check_cap_certificates() -> str:
    rows = (("cube", 3, 2), ("petersen", 3, 1), ("blanusa1", 5, 2), ("blanusa2", 6, 4))
    for name, size, cap in rows:
        g = named(name)
        m = find_cap_matching(g, size, cap)
        check(m is not None, f"no {size}-matching of cap {cap} on {name}")
        _certified(g, cap_certificate(g, m), Fraction(cap, size), cap)
    return "cube 2/3, petersen 1/3, blanusa1 2/5, blanusa2 2/3"


def _check_berge_covers() -> str:
    count = 0
    for g in catalog(20):
        b = berge_witness(g)
        ok, msg = verify(g, b)
        check(ok, (g.name, msg))
        if g.name == "petersen":
            check(b.cover_count == 2, "petersen cover count is not 2")
            check(len(b.families) == 6, "petersen cover is not six matchings")
            check(all(mult == 1 for _, mult in b.families), "a repeated matching")
        count += 1
    return f"{count} catalog graphs carry a uniform cover; petersen k = 2"


def _check_boundary_equivalences() -> str:
    ran = 0
    for g in catalog(24):
        try:
            r = eta_exact(g)
        except BudgetExceeded:
            continue
        zero, _ = is_eta_zero(g)
        one, _ = is_eta_one(g)
        check((r.value == 0) == zero, g.name)
        check((r.value == 1) == one, g.name)
        ran += 1
    rng = random.Random(DEFAULT_SEED)
    found = 0
    attempts = 0
    while found < 50:
        attempts += 1
        check(attempts < 1000, "bridged sampling stalled")
        ga = random_cubic(rng.choice([6, 8, 10]), rng)
        gb = random_cubic(rng.choice([6, 8, 10]), rng)
        joined = bridge_join(
            ga, rng.randrange(ga.m), gb, rng.randrange(gb.m)
        )
        if not has_perfect_matching(joined):
            continue
        zero, _ = is_eta_zero(joined)
        check(zero, "bridged graph with every edge in some perfect matching")
        found += 1
    return f"{ran} catalog graphs agree at 0/1; {found} bridged graphs all eta 0"


def _family_structure(d: int) -> None:
    g, m = eta_third_family(d)
    check(len(m) * 10 == 3 * g.n, (d, len(m), g.n))
    _certified(g, maximal_matching_bound(g, m), THIRD, 2 * g.n // 5)
    _certified(g, odd_component_cert(g, m), THIRD, len(m) // 3)


def _check_snark_family() -> str:
    for d in (0, 1, 2):
        _family_structure(d)
    for d in (0, 1):
        g, _ = eta_third_family(d)
        check(is_snark(g), d)
    return "d in {0,1,2}: |M| = 3n/10, bounds 1/3 (exposed set, cap); d <= 1 snarks"


def _check_classifiers() -> str:
    check(tait_coloring(named("petersen")) is None, "petersen got a coloring")
    colored = 0
    for n in range(3, 11):
        for k in range(1, (n - 1) // 2 + 1):
            c = tait_coloring(gp(n, k))
            if (n, k) == (5, 2):
                check(c is None, "gp(5,2) got a coloring")
            else:
                check(c is not None, f"gp({n},{k}) not colored")
                colored += 1
    check(hamiltonian_cycle(named("petersen")) is None, "petersen is Hamiltonian")
    check(hamiltonian_cycle(named("cube")) is not None, "cube has no Hamiltonian cycle")
    return f"{colored} generalized Petersen graphs colored; gp(5,2) alone is not"


def _check_engine_agreement() -> str:
    rng = random.Random(DEFAULT_SEED)
    trials = 0
    for g in catalog(12):
        maximals = enumerate_maximal_matchings(g)
        pms = enumerate_perfect_matchings(g)
        for _ in range(200):
            w = random_weights(g, rng)
            # max keeps the first optimum of each sorted stream
            first = max(maximals, key=lambda m: matching_weight(w, m))
            first_pm = max(pms, key=lambda p: matching_weight(w, p))
            best, pm = best_matchings(g, w)
            check(pm is not None, g.name)
            check(matching_weight(w, best) == matching_weight(w, first), g.name)
            check(matching_weight(w, pm) == matching_weight(w, first_pm), g.name)
            check(max_weight_matching(g, w) == first, g.name)
            check(max_weight_perfect_matching(g, w) == first_pm, g.name)
            trials += 1
    return (
        f"{trials} draws: one-run optima weigh as both enumerations' optima,"
        " argmax routes = their first optima"
    )


def _check_mesh_pipeline() -> str:
    tet = tetrahedron()
    d = dual_graph(tet)
    check(d.graph.n == 4 and d.graph.m == 6, "tetrahedron dual is not K4")
    ico = icosahedron()
    d = dual_graph(ico)
    ok, _ = is_bridgeless(d.graph)
    check(ok and d.graph.n == 20 and d.graph.m == 30, "icosahedron dual is wrong")
    _, rep = quadrangulate(ico, mode="perfect")
    check(rep.quad_count == 10 and rep.triangle_count == 0, rep)
    rng = random.Random(DEFAULT_SEED)
    for _ in range(1000):
        w = random_weights(d.graph, rng)
        _, rep = quadrangulate(ico, mode="maximum", weights=w)
        check(THIRD <= rep.ratio <= 1, rep.ratio)
    return "tetra dual K4; ico dual bridgeless cubic; 1000 ratios in [1/3, 1]"


def _check_exclusions() -> str:
    try:
        eta_exact(named("nauru"))
    except BudgetExceeded:
        return "nauru exact eta refused at default budgets (check 13 raises the vertex limit)"
    raise CheckFailed("nauru exact eta ran inside default budgets")


def _check_nauru_full_scan() -> str:
    g = named("nauru")
    c = best_maximal_matching_bound(g, budget=Budget(vertex_limit=24))
    _certified(g, c, HALF, 8)
    return f"full scan: bound 1/2 at matching {c.matching}"


def _check_family_d2_snark() -> str:
    g, _ = eta_third_family(2)
    check(is_snark(g), "depth-2 member is not a snark")
    return f"depth-2 member ({g.n} vertices) is a snark"


@dataclass(frozen=True)
class Check:
    check_id: str
    label: str
    limit: float | None
    gated: bool
    func: Callable[[], str]


CHECKS: tuple[Check, ...] = (
    Check("1", "exact eta of petersen", 30.0, False, partial(_check_gp_eta, (5, 2))),
    Check("2", "exact eta of k33", 5.0, False, _check_eta_k33),
    Check("3", "exact eta of the 3-edge path", 1.0, False, _check_eta_path),
    Check("4", "exposed-set bounds", 120.0, False, _check_exposed_set_bounds),
    Check("5", "cap certificates", 180.0, False, _check_cap_certificates),
    Check("6", "uniform cover witnesses", 60.0, False, _check_berge_covers),
    Check("7", "boundary equivalences", 120.0, False, _check_boundary_equivalences),
    Check("8", "one-third snark family", 120.0, False, _check_snark_family),
    Check("9", "classifier ground truth", 60.0, False, _check_classifiers),
    Check("10", "matching engine agreement", 180.0, False, _check_engine_agreement),
    Check("11", "mesh pipeline", 120.0, False, _check_mesh_pipeline),
    Check("12", "default budget exclusions", 5.0, False, _check_exclusions),
    Check("13", "exact eta of nauru at 24 vertices", 5.0, False, partial(_check_gp_eta, (12, 5))),
    Check("4-full", "nauru full maximal scan", None, True, _check_nauru_full_scan),
    Check("8-full", "family depth-2 snark", None, True, _check_family_d2_snark),
    Check(
        "gp-eta", "exact eta of gp(13,5) and gp(14,3)", None, True,
        partial(_check_gp_eta, (13, 5), (14, 3)),
    ),
)


def run_checks(
    ids: list[str] | None = None,
    include_gated: bool = False,
    stream: IO[str] | None = None,
) -> list[CheckOutcome]:
    """Run the selected checks, printing one line per check to stream.
    Raises MatchforgeError, before any check runs, on an unknown id."""
    known = {chk.check_id for chk in CHECKS}
    bad = [x for x in ids or () if x not in known]
    if bad:
        raise MatchforgeError(f"unknown check ids: {', '.join(bad)}")
    selected = []
    for chk in CHECKS:
        if ids is not None:
            if chk.check_id in ids:
                selected.append(chk)
        elif include_gated or not chk.gated:
            selected.append(chk)
    out = []
    for chk in selected:
        t0 = time.time()
        try:
            detail = chk.func()
            ok = True
        except (
            CheckFailed,
            BudgetExceeded,
            InternalError,
            NoPerfectMatching,
        ) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        elapsed = time.time() - t0
        if ok and chk.limit is not None and elapsed > chk.limit:
            ok = False
            detail += f" [exceeded {chk.limit:.0f}s limit]"
        outcome = CheckOutcome(
            check_id=chk.check_id,
            label=chk.label,
            ok=ok,
            detail=detail,
            seconds=elapsed,
            limit=chk.limit,
        )
        out.append(outcome)
        if stream is not None:
            mark = "ok  " if ok else "FAIL"
            stream.write(
                f"{mark} [{chk.check_id:>9}] {chk.label}: {detail} "
                f"({elapsed:.2f}s)\n"
            )
            stream.flush()
    return out
