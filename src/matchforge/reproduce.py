"""Self-contained checks of the library's headline results.

Each check recomputes a documented value from scratch and fails loudly
on any mismatch.  run_checks drives them with per-check wall clocks;
the gated checks run past the default enumeration budgets (the exact
eta of nauru, and of gp(13,5) and gp(14,3) at 26 and 28 vertices,
among them) and only run on request.  The exact eta of nauru, at
a vertex limit of 24, is also default check 13, under a 5 s limit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, IO

from . import DEFAULT_SEED
from .classify import hamiltonian_cycle, is_bridgeless, is_snark, tait_coloring
from .errors import Budget, BudgetExceeded, InternalError, MatchforgeError, NoPerfectMatching
from .eta import (
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
from .graphs import from_edge_list
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


def _check_eta_petersen() -> str:
    r = eta_exact(named("petersen"))
    check(r.value == THIRD, f"eta {r.value}")
    check(r.worst_pm_weight == 1, "best perfect matching weight is not 1")
    check(r.worst_pm_weight / r.argmax_weight == THIRD, "witness ratio is not 1/3")
    return f"eta = {r.value}, witness argmax {r.argmax_matching}"


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
    c = best_maximal_matching_bound(named("petersen"))
    check(c.bound == THIRD and len(c.independent_set) == 4, c)
    ok, msg = verify(named("petersen"), c)
    check(ok, msg)
    c = find_independent_set_bound(named("nauru"), 8)
    check(c is not None, "no 8-vertex witness on nauru")
    check(c.bound == HALF and len(c.independent_set) == 8, c)
    ok, msg = verify(named("nauru"), c)
    check(ok, msg)
    c = best_maximal_matching_bound(named("blanusa2"))
    check(c.bound == HALF and len(c.independent_set) == 6, c)
    c = best_maximal_matching_bound(named("k4"))
    check(c.bound == 1 and len(c.independent_set) == 0, c)
    return "petersen 1/3 (|S|=4), nauru 1/2 (|S|=8), blanusa2 1/2 (|S|=6), k4 1"


def _check_cap_certificates() -> str:
    cube = named("cube")
    m = find_cap_matching(cube, 3, 2)
    check(m is not None, "no 3-matching of cap 2 on cube")
    c = cap_certificate(cube, m)
    check(c.cap == 2 and c.bound == Fraction(2, 3), c)
    pet = named("petersen")
    m = find_cap_matching(pet, 3, 1)
    check(m is not None, "no 3-matching of cap 1 on petersen")
    c = cap_certificate(pet, m)
    check(c.cap == 1 and c.bound == THIRD, c)
    b1 = named("blanusa1")
    m = find_cap_matching(b1, 5, 2)
    check(m is not None, "no 5-matching of cap 2 on blanusa1")
    c = cap_certificate(b1, m)
    check(c.bound == Fraction(2, 5), c)
    ok, msg = verify(b1, c)
    check(ok, msg)
    b2 = named("blanusa2")
    m = find_cap_matching(b2, 6, 4)
    check(m is not None, "no 6-matching of cap <= 4 on blanusa2")
    c = cap_certificate(b2, m)
    check(c.bound <= Fraction(2, 3), c)
    ok, msg = verify(b2, c)
    check(ok, msg)
    return "cube 2/3, petersen 1/3, blanusa1 2/5, blanusa2 <= 2/3"


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
    c = maximal_matching_bound(g, m)
    check(c.bound == THIRD, (d, c.bound))
    ok, msg = verify(g, c)
    check(ok, (d, msg))
    c = odd_component_cert(g, m)
    check(c.cap * 3 == len(m) and c.bound == THIRD, (d, c.cap, c.bound))
    ok, msg = verify(g, c)
    check(ok, (d, msg))


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
        pass
    else:
        raise CheckFailed("nauru exact eta ran inside default budgets")
    return "nauru exact eta refused at default budgets (run the gated check)"


def _check_nauru_full_scan() -> str:
    c = best_maximal_matching_bound(named("nauru"), budget=Budget(vertex_limit=24))
    check(c.bound == HALF and len(c.independent_set) == 8, c)
    ok, msg = verify(named("nauru"), c)
    check(ok, msg)
    return f"full scan: bound 1/2 at matching {c.matching}"


def _check_family_d2_snark() -> str:
    g, _ = eta_third_family(2)
    check(is_snark(g), "depth-2 member is not a snark")
    return f"depth-2 member ({g.n} vertices) is a snark"


# the exact-eta witness of nauru: 1/3 on six edges, computed by the
# full scan; the orbit scan must reproduce it
NAURU_ARGMAX = (0, 2, 4, 6, 20, 22, 24, 30, 33)
NAURU_WITNESS = frozenset((0, 4, 20, 22, 30, 33))


def _check_nauru_eta() -> str:
    g = named("nauru")
    r = eta_exact(g, budget=Budget(vertex_limit=24))
    check(r.value == HALF, r.value)
    check(r.argmax_matching == NAURU_ARGMAX, r.argmax_matching)
    expected = tuple(THIRD if e in NAURU_WITNESS else 0 for e in range(g.m))
    check(r.witness_weights == expected, r.witness_weights)
    return "exact eta(nauru) = 1/2, matching its exposed-set bound"


# exact eta past 24 vertices, where the tests do not enumerate: per
# gp(n, k), the value, the argmax matching and the witness weights
GP_ETA = {
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


def _check_gp_eta() -> str:
    for (n, k), (value, argmax, witness) in GP_ETA.items():
        g = gp(n, k)
        r = eta_exact(g, budget=Budget(vertex_limit=g.n))
        check(r.value == value, (n, k, r.value))
        check(r.argmax_matching == argmax, (n, k, r.argmax_matching))
        expected = tuple(witness.get(e, 0) for e in range(g.m))
        check(r.witness_weights == expected, (n, k, r.witness_weights))
    return "exact eta gp(13,5) = 4/9, gp(14,3) = 3/7"


@dataclass(frozen=True)
class Check:
    check_id: str
    label: str
    limit: float | None
    gated: bool
    func: Callable[[], str]


CHECKS: tuple[Check, ...] = (
    Check("1", "exact eta of petersen", 30.0, False, _check_eta_petersen),
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
    Check("13", "exact eta of nauru at 24 vertices", 5.0, False, _check_nauru_eta),
    Check("4-full", "nauru full maximal scan", None, True, _check_nauru_full_scan),
    Check("8-full", "family depth-2 snark", None, True, _check_family_d2_snark),
    Check("nauru-eta", "exact eta of nauru", None, True, _check_nauru_eta),
    Check("gp-eta", "exact eta of gp(13,5) and gp(14,3)", None, True, _check_gp_eta),
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
