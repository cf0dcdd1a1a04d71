"""Worst-case ratio: exact values, bound certificates, verification, JSON."""

import gc
import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from matchforge import errors
from matchforge.errors import Budget
from matchforge import eta as eta_module
from matchforge import matching as matching_module
from matchforge.classify import is_bipartite, is_bridgeless, is_independent
from matchforge.eta import (
    BERGE_COVER_LOWER,
    CAP_UPPER,
    INDEPENDENT_SET_UPPER,
    ODD_COMPONENT_UPPER,
    BoundCertificate,
    berge_witness,
    best_maximal_matching_bound,
    cap_certificate,
    cert_from_json,
    cert_to_json,
    eta_exact,
    find_cap_matching,
    find_independent_set_bound,
    is_eta_one,
    is_eta_zero,
    maximal_matching_bound,
    odd_component_cert,
    verify,
)
from matchforge.eta import _maximal_traces, _support_lp_max
from matchforge.generators import (
    bridge_join,
    catalog,
    eta_third_family,
    gp,
    named,
    odd_component_example,
    random_cubic,
)
from matchforge.graphs import components, from_edge_list
from matchforge.lp import program, solve
from matchforge.matching import (
    enumerate_maximal_matchings,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_matching,
    matching_weight,
    max_weight_matching,
    max_weight_perfect_matching,
    random_weights,
    unsaturated,
)


def _is_maximal(g, m):
    return is_matching(g, m) and is_independent(g, unsaturated(g, m))


def _remainder(g, drop):
    """g less the vertices in drop, the rest renumbered in ascending order."""
    new_id = {v: i for i, v in enumerate(v for v in range(g.n) if v not in drop)}
    pairs = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    return from_edge_list(len(new_id), pairs)


# Exact ratios computed once with this engine and pinned; independent
# replay happens through the witness identities checked below.
FROZEN_ETA = {
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


def _ratio(g, weights) -> Fraction:
    best = matching_weight(weights, max_weight_matching(g, weights))
    pm = matching_weight(weights, max_weight_perfect_matching(g, weights))
    return pm / best


def test_eta_petersen_exact():
    r = eta_exact(named("petersen"))
    assert r.value == Fraction(1, 3)
    assert r.argmax_matching == (0, 8, 12)
    assert r.argmax_weight == 3
    assert r.worst_pm_weight == 1
    assert {r.witness_weights[e] for e in r.argmax_matching} == {Fraction(1)}
    assert sum(1 for w in r.witness_weights if w) == 3


def test_eta_exact_rejects_a_witness_that_does_not_re_evaluate(monkeypatch):
    # the argmax re-evaluation is an explicit check: it also holds under -O
    engine = eta_module.best_integer_matchings
    monkeypatch.setattr(
        eta_module,
        "best_integer_matchings",
        lambda g, ints, scale: (frozenset({0}), engine(g, ints, scale)[1]),
    )
    message = "re-evaluates to 1/1, the scan found 1/3"
    with pytest.raises(errors.InternalError, match=message):
        eta_exact(named("petersen"))


def test_eta_frozen_catalog_values():
    for g in catalog(16):
        r = eta_exact(g)
        assert r.value == FROZEN_ETA[g.name], g.name
        # witness identities: the weighting really attains the value
        assert r.worst_pm_weight / r.argmax_weight == r.value, g.name
        assert _ratio(g, r.witness_weights) == r.value, g.name


def test_eta_blanusa_pair():
    assert eta_exact(named("blanusa1")).value == Fraction(1, 3)
    assert eta_exact(named("blanusa2")).value == Fraction(2, 5)


def test_eta_value_is_a_true_minimum(seed=63):
    # no random weighting may beat the computed value
    rng = random.Random(seed)
    for label in ("k4", "cube", "petersen"):
        g = named(label)
        eta = FROZEN_ETA[label]
        for _ in range(30):
            w = random_weights(g, rng)
            assert _ratio(g, w) >= eta


def _all_trace_rows(edges, pms):
    """Reference rows: one per distinct nonempty trace of a perfect matching."""
    index = {e: i for i, e in enumerate(edges)}
    rows = []
    seen_rows = set()
    for p in pms:
        coeffs = [Fraction(0)] * len(edges)
        hit = False
        for e in p:
            i = index.get(e)
            if i is not None:
                coeffs[i] = Fraction(1)
                hit = True
        if not hit:
            continue
        key = tuple(coeffs)
        if key in seen_rows:
            continue
        seen_rows.add(key)
        rows.append((coeffs, Fraction(1)))
    return rows


@pytest.mark.parametrize(
    "g",
    [named("petersen"), gp(6, 1), named("blanusa1")],
    ids=["petersen", "gp(6,1)", "blanusa1"],
)
def test_maximal_trace_rows_keep_support_lp_value(g):
    pms = enumerate_perfect_matchings(g)
    pm_masks = [sum(1 << e for e in p) for p in pms]
    for m in enumerate_maximal_matchings(g):
        edges = tuple(sorted(m))
        mask = sum(1 << e for e in m)
        s, w = _support_lp_max(mask, _maximal_traces(mask, pm_masks))
        rows = _all_trace_rows(edges, pms)
        full = solve(program([-1] * len(edges), rows))
        assert -full.value == s, edges
        for coeffs, rhs in rows:
            assert sum(c * x for c, x in zip(coeffs, w)) <= rhs, edges


def test_eta_zero_on_path():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    r = eta_exact(g)
    assert r.value == 0
    # middle edge lies in no perfect matching; witness puts weight there
    assert r.witness_weights[1] == 1
    assert r.worst_pm_weight == 0 and r.argmax_weight == 1
    zero, eid = is_eta_zero(g)
    assert zero and eid == 1


def test_eta_zero_needs_perfect_matching():
    with pytest.raises(errors.NoPerfectMatching):
        is_eta_zero(from_edge_list(3, [(0, 1), (1, 2)]))


def test_eta_zero_on_bridged_cubic(seed=515):
    rng = random.Random(seed)
    hits = 0
    for _ in range(50):
        g = bridge_join(
            random_cubic(rng.choice([4, 6, 8]), rng),
            0,
            random_cubic(rng.choice([4, 6, 8]), rng),
            0,
        )
        try:
            zero, eid = is_eta_zero(g)
        except errors.NoPerfectMatching:
            continue
        hits += 1
        assert zero and eid is not None
    assert hits >= 10


def _eta_zero_reference(g):
    """The first edge that no enumerated perfect matching holds."""
    pms = enumerate_perfect_matchings(g)
    if not pms:
        raise errors.NoPerfectMatching("no perfect matching")
    covered = frozenset().union(*pms)
    return next(((True, e) for e in range(g.m) if e not in covered), (False, None))


def _eta_zero_corpus(seed=20261020):
    """Two graphs without a perfect matching (a 3-vertex path and the
    4-vertex star), the 4-vertex path, catalog(24), then seeded random
    cubic graphs on 4 to 12 vertices, each followed by a bridge join of
    two such graphs at random edges."""
    yield from_edge_list(3, [(0, 1), (1, 2)])
    yield from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    yield from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    yield from catalog(24)
    rng = random.Random(seed)
    for _ in range(120):
        yield random_cubic(rng.randrange(4, 13, 2), rng)
        left = random_cubic(rng.randrange(4, 13, 2), rng)
        right = random_cubic(rng.randrange(4, 13, 2), rng)
        yield bridge_join(left, rng.randrange(left.m), right, rng.randrange(right.m))


def test_eta_zero_matches_the_enumeration():
    def outcome(decide, g):
        try:
            return decide(g)
        except errors.NoPerfectMatching:
            return "no perfect matching"

    graphs = list(_eta_zero_corpus())
    assert len(graphs) >= 240
    outcomes = [outcome(is_eta_zero, g) for g in graphs]
    assert outcomes == [outcome(_eta_zero_reference, g) for g in graphs]
    # the corpus holds every kind of answer
    assert {o if isinstance(o, str) else o[0] for o in outcomes} == {
        True, False, "no perfect matching"
    }


@pytest.mark.parametrize(
    "make, answer",
    [
        (lambda: bridge_join(gp(100, 1), 0, gp(100, 1), 0), (True, 598)),
        (lambda: gp(150, 1), (False, None)),
    ],
    ids=["bridged-402", "gp150-1"],
)
def test_eta_zero_takes_a_few_engine_rounds(monkeypatch, make, answer):
    calls = []
    engine = matching_module.max_weight_matching_pairs
    monkeypatch.setattr(
        matching_module,
        "max_weight_matching_pairs",
        lambda *a: calls.append(a[0]) or engine(*a),
    )
    g = make()
    assert is_eta_zero(g) == answer
    assert len(calls) <= 8 and set(calls) == {g.n}


def test_eta_one_detection():
    for label in ("k4", "k33"):
        one, witness = is_eta_one(named(label))
        assert one and witness is None
    for label in ("cube", "petersen"):
        g = named(label)
        one, witness = is_eta_one(g)
        assert not one
        # the witness is maximal but leaves vertices exposed
        assert _is_maximal(g, witness)
        assert 2 * len(witness) < g.n


def test_eta_boundary_agreement():
    for g in catalog(12):
        r = eta_exact(g)
        assert (r.value == 0) == is_eta_zero(g)[0], g.name
        assert (r.value == 1) == is_eta_one(g)[0], g.name


def _eta_one_reference(g):
    """The backtracking search is_eta_one used to run, without its node
    budget: a maximal matching that leaves a vertex exposed, trying
    exposure before matching, or (True, None)."""
    UNDECIDED, MATCHED, EXPOSED = 0, 1, 2
    state = [UNDECIDED] * g.n
    chosen = []
    partner = []  # branch taken at each frame: -1 exposed, else v's mate
    stack = []  # branch vertex, branches left
    while True:
        v = next((u for u in range(g.n) if state[u] == UNDECIDED), None)
        if v is None:
            if 2 * len(chosen) < g.n:
                return False, frozenset(chosen)
        else:
            # (-1, -1), the branch that leaves v exposed, then its neighbours
            stack.append((v, itertools.chain(((-1, -1),), g.adj[v])))
        # backtrack to the deepest branch vertex with a branch left
        while stack:
            v, branches = stack[-1]
            if len(partner) == len(stack):  # undo its last branch
                u = partner.pop()
                if u >= 0:
                    state[u] = UNDECIDED
                    chosen.pop()
            for u, eid in branches:
                if u < 0:
                    if any(state[x] == EXPOSED for x, _ in g.adj[v]):
                        continue
                    state[v] = EXPOSED
                else:
                    if state[u] != UNDECIDED:
                        continue
                    state[v] = state[u] = MATCHED
                    chosen.append(eid)
                partner.append(u)
                break
            else:
                state[v] = UNDECIDED
                stack.pop()
                continue
            break
        else:
            return True, None


def _disjoint_union(parts):
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return from_edge_list(offset, edges)


def test_eta_one_on_many_components_needs_no_search():
    # the backtracking search branched over every component at once and
    # never finished here; one local blossom run per vertex takes
    # milliseconds
    g = _disjoint_union([named("k4"), named("k33")] * 25)
    start = time.perf_counter()
    assert is_eta_one(g) == (True, None)
    assert time.perf_counter() - start < 5


def test_eta_one_agrees_with_the_reference_search(seed=20261018):
    rng = random.Random(seed)
    drawn = ones = 0
    while drawn < 1500:
        n = rng.randrange(2, 11, 2)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs)
        try:
            one, witness = is_eta_one(g)
        except errors.NoPerfectMatching:
            continue
        drawn += 1
        assert one == _eta_one_reference(g)[0], pairs
        if one:
            ones += 1
            assert witness is None
        else:
            assert _is_maximal(g, witness) and 2 * len(witness) < g.n, pairs
    assert 200 < ones < drawn - 200


def _sumner(g):
    """Every component of the cubic graph g is K4 or K3,3."""
    for comp in components(g):
        sub = _remainder(g, set(range(g.n)) - set(comp))
        if not (sub.n == 4 or (sub.n == 6 and is_bipartite(sub)[0])):
            return False
    return True


def test_eta_one_on_cubic_graphs_is_sumners_theorem(seed=1979):
    # a connected graph whose maximal matchings are all perfect is
    # K_2n or K_n,n (Sumner 1979): among cubic graphs, K4 and K3,3
    rng = random.Random(seed)
    # gp(3, 1), the prism, is the other cubic graph on six vertices
    pool = [named("k4"), named("k33"), gp(3, 1), named("cube"), named("petersen")]
    ones = 0
    for _ in range(200):
        parts = [
            rng.choice(pool) if rng.random() < 0.6 else random_cubic(rng.randrange(4, 13, 2), rng)
            for _ in range(rng.randint(1, 4))
        ]
        g = _disjoint_union(parts)
        try:
            one, witness = is_eta_one(g)
        except errors.NoPerfectMatching:
            continue
        assert one == _sumner(g)
        ones += one
        if not one:
            assert _is_maximal(g, witness) and 2 * len(witness) < g.n
    assert ones >= 10


def test_eta_budget_refusals():
    with pytest.raises(errors.BudgetExceeded):
        eta_exact(named("nauru"))  # 24 vertices over the default limit
    with pytest.raises(errors.BudgetExceeded):
        eta_exact(named("petersen"), budget=Budget(maximal_count=70))


@pytest.mark.parametrize("g", catalog(24), ids=lambda g: g.name)
def test_eta_budget_refuses_exactly_past_the_count(g):
    # the scan enumerates only orbit leaders' masks, yet answers at the
    # count of all maximal matchings (nauru 15,050, petersen 71) and
    # refuses one below it; blanusa1 stops at s = 3 with orbits still
    # unmet, which are closed, with no LP, before the scan returns
    limit = Budget(vertex_limit=g.n)
    count = len(enumerate_maximal_matchings(g, budget=limit))
    result = eta_exact(g, budget=limit)
    assert eta_exact(g, budget=replace(limit, maximal_count=count)) == result
    with pytest.raises(errors.BudgetExceeded, match=f"more than {count - 1} maximal"):
        eta_exact(g, budget=replace(limit, maximal_count=count - 1))


def test_eta_scan_stops_at_s3_when_the_count_bound_holds(monkeypatch):
    # blanusa1 (m = 27) reaches s = 3 with orbits unmet.  At the default
    # budget 3^27 <= (10^6)^3, so no orbit is closed after the stop; at
    # its count of 1,563 maximal matchings 1563^3 < 3^27, so every orbit
    # still is, and the refusal one below stays exact
    g = named("blanusa1")
    events, seen_sets = [], []
    add_orbit, support_lp = eta_module._add_orbit, eta_module._support_lp_max

    def counting_orbit(mask, tables, seen):
        events.append("orbit")
        seen_sets.append(seen)
        add_orbit(mask, tables, seen)

    def counting_lp(mask, traces):
        s, assignment = support_lp(mask, traces)
        events.append(s)
        return s, assignment

    monkeypatch.setattr(eta_module, "_add_orbit", counting_orbit)
    monkeypatch.setattr(eta_module, "_support_lp_max", counting_lp)
    results = []
    for budget in (Budget(), Budget(maximal_count=1563)):
        events.clear()
        results.append(eta_exact(g, budget=budget))
        after = events[events.index(Fraction(3)) + 1 :]
        assert Fraction(3) not in after
        if budget == Budget():
            assert after == []
        else:
            assert after and set(after) == {"orbit"}
            assert len(seen_sets[-1]) == 1563
    assert results[0] == results[1] and results[0].value == Fraction(1, 3)


def _eta_exact_inputs():
    """catalog(20), 30 seeded bridgeless cubic graphs (n <= 20) and 20
    seeded bridge_join graphs with a perfect matching (eta = 0)."""
    yield from catalog(20)
    rng = random.Random(20261020)
    made = 0
    while made < 30:
        g = random_cubic(rng.randrange(8, 21, 2), rng)
        if is_bridgeless(g)[0]:
            made += 1
            yield g
    made = 0
    while made < 20:
        left = random_cubic(rng.choice([4, 6, 8]), rng)
        right = random_cubic(rng.choice([4, 6, 8]), rng)
        g = bridge_join(left, rng.randrange(left.m), right, rng.randrange(right.m))
        if has_perfect_matching(g):
            made += 1
            yield g


# Digest of repr(eta_exact(g)) over _eta_exact_inputs, computed at commit
# eb8142a, where eta_exact tested eta = 0 with is_eta_zero's blossom runs
# and re-evaluated the witness on Fraction tie-break weights
ETA_EXACT_SHA256 = "cc7fb986dd7d64d1aa22a417cae25e82009fac3fbb1fdb3907fd273a11f413b4"


def test_eta_exact_results_match_the_pinned_digest():
    digest = hashlib.sha256()
    zeros = 0
    for g in _eta_exact_inputs():
        r = eta_exact(g)
        zeros += r.value == 0
        digest.update(repr(r).encode())
    assert zeros == 20
    assert digest.hexdigest() == ETA_EXACT_SHA256


def _rand7_28():
    rng = random.Random(7)
    while True:
        g = random_cubic(28, rng)
        if is_bridgeless(g)[0]:
            return g


# Exact eta past the catalog, computed at commit 15a6a27, before the scan
# skipped LPs by fractional covers: per graph, the value, the argmax and
# the sha256 of repr(witness_weights).  About 0.8, 1.9 and 3.7 s each on
# a 2-vCPU x86 machine.
PAST_THE_CATALOG = {
    "gp15-4": (
        lambda: gp(15, 4),
        Fraction(5, 11),
        (0, 2, 4, 7, 9, 12, 21, 31, 34, 37, 39, 44),
        "6f2924b9197a581b5e12ddc396faac81c5418551e80cc139c2ec058b4481255f",
    ),
    "gp16-3": (
        lambda: gp(16, 3),
        Fraction(3, 8),
        (0, 2, 6, 11, 20, 25, 30, 31, 32, 37, 42),
        "2cc8e74417e702769968abec5b7a741dfcb6d441e2eeae4b41314eaeb3d1fcf5",
    ),
    "rand7-28": (
        _rand7_28,
        Fraction(3, 8),
        (0, 2, 4, 12, 14, 15, 18, 19, 34, 38),
        "8995ca18b4d6e9ec59d35e5ed6ee0305381cba56efa3264b2787ff001d762994",
    ),
}


@pytest.mark.skipif(
    os.environ.get("MATCHFORGE_FULL") != "1",
    reason="gated long job; set MATCHFORGE_FULL=1",
)
@pytest.mark.parametrize("name", PAST_THE_CATALOG)
def test_exact_eta_past_the_catalog(name):
    make, value, argmax, witness_sha256 = PAST_THE_CATALOG[name]
    r = eta_exact(make(), budget=Budget(vertex_limit=40))
    assert r.value == value
    assert r.argmax_matching == argmax
    digest = hashlib.sha256(repr(r.witness_weights).encode()).hexdigest()
    assert digest == witness_sha256


def test_eta_exact_runs_one_blossom_per_bridgeless_graph(monkeypatch):
    # eta = 0 is read off the perfect-matching masks; the one engine run
    # left is the witness re-evaluation
    calls = []
    engine = matching_module.max_weight_matching_pairs
    monkeypatch.setattr(
        matching_module,
        "max_weight_matching_pairs",
        lambda *a: calls.append(a[0]) or engine(*a),
    )
    for g in catalog(20):
        if not is_bridgeless(g)[0]:
            continue
        calls.clear()
        eta_exact(g)
        assert calls == [g.n], g.name


def test_eta_zero_past_the_enumeration_limits():
    # 34 vertices: past the perfect-matching limit, so is_eta_zero decides
    g = bridge_join(gp(8, 1), 0, gp(8, 1), 0)
    assert g.n == 34 and is_eta_zero(g) == (True, 46)
    r = eta_exact(g)
    assert r.value == 0 and r.witness_weights[46] == 1
    assert sum(r.witness_weights) == 1
    # 24 vertices: past the maximal-matching limit only
    g = bridge_join(gp(5, 1), 0, gp(6, 1), 0)
    assert g.n == 24 and is_eta_zero(g) == (True, 9)
    r = eta_exact(g)
    assert r.value == 0 and r.witness_weights[9] == 1
    assert sum(r.witness_weights) == 1
    # past the count budget; a graph with eta > 0 gets the enumeration's error
    assert eta_exact(g, budget=Budget(perfect_count=1)) == r
    with pytest.raises(errors.BudgetExceeded, match="more than 1 perfect matchings"):
        eta_exact(named("petersen"), budget=Budget(perfect_count=1))


def test_cap_certificate_of_one_edge_certifies_eta_zero():
    # M = {f} for an edge f in no perfect matching: cap 0 proves eta <= 0,
    # so eta = 0 needs no certificate kind of its own
    g = bridge_join(gp(8, 1), 0, gp(8, 1), 0)
    c = cap_certificate(g, [46])
    assert (c.kind, c.cap, c.bound, len(c.odd_sets)) == (CAP_UPPER, 0, 0, 1)
    assert cert_from_json(json.loads(json.dumps(cert_to_json(c)))) == c
    assert verify(g, c) == (True, "ok")
    assert not verify(g, replace(c, cap=1, bound=Fraction(1)))[0]


@pytest.mark.parametrize(
    "g",
    [
        from_edge_list(4, [(0, 1), (0, 2), (0, 3)]),
        from_edge_list(3, [(0, 1), (1, 2)]),
        from_edge_list(28, [(0, 1), (0, 2), (0, 3)] + [(v, v + 1) for v in range(4, 28, 2)]),
        from_edge_list(27, [(v, v + 1) for v in range(26)]),
    ],
    ids=["star", "odd path", "28-vertex star", "27-vertex path"],
)
def test_eta_exact_needs_a_perfect_matching(g):
    # the same error within the enumeration limit and past it
    message = "^eta needs a graph with a perfect matching$"
    for limit in (g.n, g.n - 1):
        with pytest.raises(errors.NoPerfectMatching, match=message):
            eta_exact(g, budget=Budget(vertex_limit=limit))


def test_maximal_matching_bound_petersen():
    g = named("petersen")
    cert = maximal_matching_bound(g, [0, 8, 12])
    assert cert.kind == INDEPENDENT_SET_UPPER
    assert cert.bound == Fraction(1, 3)
    assert cert.matching == (0, 8, 12)
    assert len(cert.independent_set) == 4
    ok, why = verify(g, cert)
    assert ok, why


def test_maximal_matching_bound_validation():
    g = named("petersen")
    with pytest.raises(errors.IncludeNotMatching):
        maximal_matching_bound(g, [0, 1])
    with pytest.raises(errors.BadParameters):
        maximal_matching_bound(g, [0])  # not maximal


def test_best_maximal_matching_bound_frozen():
    g = named("petersen")
    cert = best_maximal_matching_bound(g)
    assert cert.bound == Fraction(1, 3)
    assert cert.matching == (0, 8, 12)
    assert cert.independent_set == (2, 4, 5, 6)
    b2 = named("blanusa2")
    cert = best_maximal_matching_bound(b2)
    assert cert.bound == Fraction(1, 2)
    assert cert.matching == (0, 4, 8, 11, 14, 18)
    assert cert.independent_set == (4, 5, 8, 10, 16, 17)
    assert verify(b2, cert)[0]


def seeded_cubic(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_cubic(rng.randrange(8, 21, 2), rng) for _ in range(count)]


@pytest.mark.parametrize(
    "g",
    list(catalog(20)) + seeded_cubic(20, seed=20261019),
    ids=lambda g: getattr(g, "name", f"random-n{g.n}"),
)
def test_best_maximal_matching_bound_is_the_first_smallest_matching(g):
    maximals = enumerate_maximal_matchings(g)
    first = min(maximals, key=lambda m: (len(m), tuple(sorted(m))))
    assert best_maximal_matching_bound(g) == maximal_matching_bound(g, first)


def test_perfect_maximal_matching_gives_trivial_bound():
    g = named("k4")
    cert = best_maximal_matching_bound(g)
    assert cert.bound == 1 and cert.independent_set == ()


def test_find_independent_set_bound_nauru():
    g = named("nauru")
    cert = find_independent_set_bound(g, 8)
    assert cert is not None
    assert cert.bound == Fraction(1, 2)
    assert cert.independent_set == (0, 2, 4, 7, 18, 20, 21, 22)
    ok, why = verify(g, cert)
    assert ok, why
    # the Petersen graph has no independent 5-set
    assert find_independent_set_bound(named("petersen"), 5) is None


def test_odd_components_are_refused_before_the_subgraph(monkeypatch, seed=20261020):
    # the flood fill agrees with graphs.components on random remainders
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(1, 13)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs)
        removed = [v for v in range(n) if rng.random() < 0.3]
        rest = sum(1 << v for v in range(n) if v not in removed)
        nbrs = [sum(1 << u for u in g.neighbors(v)) for v in range(n)]
        want = [len(c) for c in components(_remainder(g, removed))]
        got = [c.bit_count() for c in eta_module._mask_components(nbrs, rest)]
        assert got == want, (pairs, removed)
    # on nauru, 148 of the 149 full nodes leave an odd component; only
    # the witness's remainder is built and matched
    built = []
    real = eta_module.subgraph
    monkeypatch.setattr(eta_module, "subgraph", lambda *a: built.append(1) or real(*a))
    assert find_independent_set_bound(named("nauru"), 8) is not None
    assert len(built) == 1


def test_find_independent_set_bound_is_the_first_witness(seed=20261019):
    # reference: the first independent set, in itertools.combinations
    # order, whose deletion leaves a graph with a perfect matching
    rng = random.Random(seed)
    found = 0
    for _ in range(150):
        n = rng.randrange(1, 11)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs)
        for k in range(n + 1):
            want = next(
                (
                    s
                    for s in itertools.combinations(range(n), k)
                    if is_independent(g, s)
                    and enumerate_perfect_matchings(_remainder(g, s))
                ),
                None,
            )
            if want is not None and len(want) == n:
                # edgeless: the only witness is the empty matching
                with pytest.raises(errors.BadParameters):
                    find_independent_set_bound(g, k)
                continue
            cert = find_independent_set_bound(g, k)
            got = None if cert is None else cert.independent_set
            assert got == want, (pairs, k)
            found += cert is not None
    assert found


# Search nodes each search needs to finish, counted by the recursive
# searches of commit 4f242b7; the iterative ones branch in the same order
NODES_TO_FINISH = {
    "independent nauru 8": (find_independent_set_bound, named("nauru"), (8,), 347),
    "independent blanusa1 6": (find_independent_set_bound, named("blanusa1"), (6,), 120),
}


@pytest.mark.parametrize("search, g, args, nodes", NODES_TO_FINISH.values(), ids=NODES_TO_FINISH)
def test_searches_count_the_pinned_nodes(search, g, args, nodes):
    search(g, *args, budget=Budget(witness_nodes=nodes))
    with pytest.raises(errors.BudgetExceeded):
        search(g, *args, budget=Budget(witness_nodes=nodes - 1))


def test_deep_searches_end_without_a_recursion_error():
    # gp(1100, 1) has 2200 vertices; the first witness of the independent
    # search lies over 1000 levels down, and is_eta_one's witness, grown
    # greedily from one local blossom run at vertex 0, has 1099 edges
    g = gp(1100, 1)
    with pytest.raises(errors.BudgetExceeded):
        find_independent_set_bound(g, 1000, budget=Budget(witness_nodes=1200))
    one, witness = is_eta_one(g)
    assert not one and _is_maximal(g, witness) and 2 * len(witness) < g.n


def test_cap_certificate_matches_enumeration():
    # reference: the cap is the largest overlap with an enumerated perfect
    # matching, and verify accepts every certificate
    rng = random.Random(20)
    with_sets = 0
    for g in catalog(20):
        pms = enumerate_perfect_matchings(g)
        maximals = enumerate_maximal_matchings(g)
        for m in rng.sample(maximals, min(30, len(maximals))):
            cert = cap_certificate(g, m)
            assert cert.cap == max(len(m & p) for p in pms), g.name
            assert cert.bound == Fraction(cert.cap, len(m))
            assert verify(g, cert) == (True, "ok"), g.name
            with_sets += bool(cert.odd_sets)
    assert with_sets  # some caps need odd sets in their proof
    cert = cap_certificate(named("cube"), [0, 6, 11])
    assert cert.kind == CAP_UPPER
    assert cert.cap == 2 and cert.bound == Fraction(2, 3)


def test_cap_certificate_needs_perfect_matchings():
    two_triangles = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(errors.NoPerfectMatching):
        cap_certificate(two_triangles, [0])
    with pytest.raises(errors.BadParameters):
        cap_certificate(named("cube"), [])
    with pytest.raises(errors.IncludeNotMatching):
        odd_component_cert(named("cube"), [0, 1])


@pytest.mark.parametrize("depth", [2, 3])
def test_verify_checks_family_caps_by_arithmetic(depth, monkeypatch):
    from matchforge import blossom, eta, matching

    g, m = eta_third_family(depth)  # 40 and 80 vertices
    certs = [cap_certificate(g, m), odd_component_cert(g, m)]

    def refuse(*args, **kwargs):
        raise AssertionError("verify must not search")

    monkeypatch.setattr(eta, "_perfect_masks", refuse)
    monkeypatch.setattr(matching, "_perfect_masks", refuse)
    monkeypatch.setattr(matching, "enumerate_perfect_matchings", refuse)
    monkeypatch.setattr(blossom, "max_weight_matching_pairs", refuse)
    monkeypatch.setattr(matching, "max_weight_matching_pairs", refuse)
    for cert in certs:
        assert cert.cap * 3 == len(m) and cert.bound == Fraction(1, 3)
        back = cert_from_json(json.loads(json.dumps(cert_to_json(cert))))
        assert verify(g, back) == (True, "ok"), cert.kind


def test_witness_searches_refuse_bad_parameters():
    g = named("petersen")
    for size in (-1, g.n + 1):
        with pytest.raises(errors.BadParameters, match=f"^set size {size} out of range$"):
            find_independent_set_bound(g, size)
    for size, max_cap in ((0, 1), (3, -1)):
        with pytest.raises(errors.BadParameters, match="^need size >= 1 and max_cap >= 0$"):
            find_cap_matching(g, size, max_cap)
    path = from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(errors.NoPerfectMatching, match="^cap search needs perfect matchings$"):
        find_cap_matching(path, 1, 1)


def test_find_cap_matching_frozen():
    cases = [
        ("petersen", 3, 1, (0, 8, 12), Fraction(1, 3)),
        ("cube", 3, 2, (0, 6, 11), Fraction(2, 3)),
        ("blanusa1", 5, 2, (0, 8, 13, 16, 19), Fraction(2, 5)),
        ("blanusa2", 6, 4, (0, 4, 5, 10, 17, 21), Fraction(2, 3)),
    ]
    for label, size, max_cap, edges, bound in cases:
        g = named(label)
        m = find_cap_matching(g, size, max_cap)
        assert m is not None, label
        assert tuple(sorted(m)) == edges, label
        cert = cap_certificate(g, m)
        assert cert.cap <= max_cap and cert.bound <= bound, label
        assert verify(g, cert)[0], label
    # no size-3 matching of the cube avoids every perfect matching twice
    assert find_cap_matching(named("cube"), 3, 1) is None
    # nor any size-8 matching of nauru three times; the search prunes
    # every node below a partial cap of 4
    assert find_cap_matching(named("nauru"), 8, 3) is None


def _first_cap_matchings(g):
    """{(size, max_cap): the first matching of that size, in
    itertools.combinations order, whose largest overlap with an
    enumerated perfect matching is at most max_cap, or None}, for every
    size from 1 to n/2 and every max_cap from 0 to size."""
    pms = enumerate_perfect_matchings(g)
    want = {}
    for size in range(1, g.n // 2 + 1):
        first = [None] * (size + 1)
        for combo in itertools.combinations(range(g.m), size):
            if len({v for e in combo for v in g.edges[e]}) < 2 * size:
                continue  # not a matching
            cap = max(len(pm.intersection(combo)) for pm in pms)
            for c in range(cap, size + 1):
                if first[c] is None:
                    first[c] = frozenset(combo)
            if first[0] is not None:
                break
        for c, m in enumerate(first):
            want[size, c] = m
    return want


def _cap_search_graphs(seed=20261019):
    """Seeded graphs with a perfect matching and at most 14 vertices:
    random cubic ones, and sparser and denser random ones with at most
    24 edges, which keeps the brute force small."""
    rng = random.Random(seed)
    for n in (4, 6, 8, 8, 10, 10, 12, 12, 14):
        yield random_cubic(n, rng)
    made = 0
    while made < 30:
        n = rng.randrange(2, 13, 2)
        p = rng.choice((0.3, 0.5, 0.8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs)
        if g.m <= 24 and enumerate_perfect_matchings(g):
            made += 1
            yield g


def test_find_cap_matching_agrees_with_brute_force():
    outcomes = set()
    for g in _cap_search_graphs():
        for (size, max_cap), want in _first_cap_matchings(g).items():
            assert find_cap_matching(g, size, max_cap) == want, (g.edges, size, max_cap)
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_find_cap_matching_on_a_long_path():
    # 1000 levels deep: the search keeps its own stack
    g = from_edge_list(2000, [(v, v + 1) for v in range(1999)])
    m = find_cap_matching(g, 1000, 1000, budget=Budget(vertex_limit=2000))
    assert m == frozenset(range(0, 1999, 2))


def test_find_cap_matching_leaves_no_garbage_cycles():
    gc.disable()
    try:
        gc.collect()
        assert find_cap_matching(named("petersen"), 3, 1) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_odd_component_certificate():
    g = odd_component_example()
    cert = odd_component_cert(g, [0, 1])
    assert cert.kind == ODD_COMPONENT_UPPER
    assert cert.cap == 1
    assert cert.bound == Fraction(1, 2)
    assert sorted(len(c) for c in cert.component_list) == [5, 5, 8]
    ok, why = verify(g, cert)
    assert ok, why


def test_components_without_match_the_remainders_components(seed=20261021):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(0, 13)
        p = rng.random()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs)
        m, used = [], set()
        for e in rng.sample(range(g.m), rng.randint(0, g.m)):
            if used.isdisjoint(g.edges[e]):
                m.append(e)
                used.update(g.edges[e])
        keep = [v for v in range(n) if v not in used]
        want = tuple(
            tuple(keep[v] for v in comp) for comp in components(_remainder(g, used))
        )
        assert eta_module._components_without(g, m) == want, (pairs, m)


def test_berge_witness_petersen():
    g = named("petersen")
    cert = berge_witness(g)
    assert cert.kind == BERGE_COVER_LOWER
    assert cert.bound == Fraction(1, 3)
    assert cert.cover_count == 2
    assert len(cert.families) == 6
    assert all(mult == 1 for _, mult in cert.families)
    total = sum(mult for _, mult in cert.families)
    assert total == 3 * cert.cover_count
    # each edge covered exactly cover_count times
    counts = [0] * g.m
    for pm, mult in cert.families:
        for e in pm:
            counts[e] += mult
    assert counts == [2] * g.m
    assert verify(g, cert)[0]


def test_berge_witness_k4():
    cert = berge_witness(named("k4"))
    assert cert.cover_count == 1
    assert len(cert.families) == 3
    assert verify(named("k4"), cert)[0]


def test_berge_witness_needs_bridgeless():
    g = bridge_join(named("k4"), 0, named("k4"), 0)
    with pytest.raises(errors.BadParameters):
        berge_witness(g)


def _cube_with_a_diagonal():
    g = named("cube")
    return from_edge_list(g.n, [*g.edges, (0, 2)])


@pytest.mark.parametrize(
    "g",
    [
        # bridgeless with a uniform fractional cover (each of its 15
        # perfect matchings at 1/9), but of total 5/3, not 1
        from_edge_list(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
        # the cube's own cover reaches total 1 and leaves the diagonal
        # uncovered, so only the degree check stops it
        _cube_with_a_diagonal(),
    ],
    ids=["k6", "cube+diagonal"],
)
def test_berge_witness_needs_degree_three(g):
    with pytest.raises(errors.BadParameters):
        berge_witness(g)


def _berge_certificates():
    """cert_to_json(berge_witness(g)) over catalog(20) and 200 seeded
    bridgeless cubic graphs with 8..20 vertices."""
    for g in catalog(20):
        yield cert_to_json(berge_witness(g))
    rng = random.Random(20261018)
    made = 0
    while made < 200:
        g = random_cubic(rng.randrange(8, 21, 2), rng)
        if is_bridgeless(g)[0]:
            made += 1
            yield cert_to_json(berge_witness(g))


# Digest of _berge_certificates computed with the two-phase simplex of
# commit 2360fff, which solved the Berge LP as coverage = 1/3 by phase
# 1.  The packing LP must pick the very same vertex of the polytope.
BERGE_CERTIFICATES_SHA256 = (
    "aa1abe114c371d116b00f20979641ca84a3cb03410f5c11403fd65c369d1bbde"
)


def test_berge_certificates_match_the_pinned_digest():
    digest = hashlib.sha256()
    for doc in _berge_certificates():
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == BERGE_CERTIFICATES_SHA256


def test_verify_rejects_tampering():
    g = named("cube")
    cap = cap_certificate(g, [0, 6, 11])
    bad = replace(cap, cap=1, bound=Fraction(1, 3))
    ok, why = verify(g, bad)
    assert not ok and "cap" in why

    p = named("petersen")
    ind = maximal_matching_bound(p, [0, 8, 12])
    for broken in (
        replace(ind, bound=Fraction(1, 4)),
        replace(ind, independent_set=(2, 4, 5)),
        replace(ind, matching=(0, 1, 12)),
    ):
        assert not verify(p, broken)[0]

    berge = berge_witness(p)
    families = list(berge.families)
    families[0] = (families[0][0], 2)
    assert not verify(p, replace(berge, families=tuple(families)))[0]

    oc = odd_component_cert(odd_component_example(), [0, 1])
    assert not verify(odd_component_example(), replace(oc, cap=2))[0]
    assert not verify(g, BoundCertificate(kind="nonsense", bound=Fraction(1)))[0]


def test_verify_tests_the_matching_as_written():
    # a repeated id is refused by every kind that carries a matching,
    # before its own checks; the exposed-set kind once tested the set of
    # ids, so Petersen's certificate with id 0 twice verified as ok
    p, cube = named("petersen"), named("cube")
    odd = odd_component_example()
    for g, cert, repeated in (
        (p, maximal_matching_bound(p, [0, 8, 12]), (0, 0, 8, 12)),
        (cube, cap_certificate(cube, [0, 6, 11]), (0, 0, 6, 11)),
        (odd, odd_component_cert(odd, [0, 1]), (0, 0, 1)),
    ):
        assert verify(g, cert) == (True, "ok")
        assert verify(g, replace(cert, matching=repeated)) == (
            False, "matching field is not a nonempty matching"
        )


def _verdict_certificates():
    """Per kind, a graph and a certificate that verifies on it."""
    p, cube, odd = named("petersen"), named("cube"), odd_component_example()
    return {
        "exposed": (p, maximal_matching_bound(p, [0, 8, 12])),
        "cap": (cube, cap_certificate(cube, [0, 6, 11])),
        "odd": (odd, odd_component_cert(odd, [0, 1])),
        "berge": (p, berge_witness(p)),
    }


def _with_family(i, edges=None, mult=None):
    """An edit that replaces the edges or the multiplicity of family i."""
    def edit(g, cert):
        families = list(cert.families)
        e, k = families[i]
        families[i] = (e if edges is None else edges(cert), k if mult is None else mult)
        return {"families": tuple(families)}
    return edit


# One edited certificate per verify verdict: per case, the kind, the
# edit (graph, certificate -> changed fields) and the exact verdict
TAMPERED = {
    "exposed-not-maximal": (
        "exposed",
        lambda g, c: {"matching": (0,), "independent_set": unsaturated(g, (0,))},
        "exposed set not independent (matching not maximal)",
    ),
    "cap-repeated-id": (
        "cap", lambda g, c: {"matching": (0, 0, 6, 11)},
        "matching field is not a nonempty matching",
    ),
    "cap-empty-matching": (
        "cap", lambda g, c: {"matching": ()}, "matching field is not a nonempty matching"
    ),
    "cap-bound": (
        "cap", lambda g, c: {"bound": c.bound / 2}, "bound is not cap / |matching|"
    ),
    "odd-components": (
        "odd", lambda g, c: {"component_list": c.component_list[:-1]},
        "component list does not match the deletion",
    ),
    "berge-zero-count": (
        "berge", lambda g, c: {"cover_count": 0}, "cover count must be positive"
    ),
    "berge-bound": (
        "berge", lambda g, c: {"bound": Fraction(1, 2)}, "bound of this kind is always 1/3"
    ),
    "berge-zero-multiplicity": (
        "berge", _with_family(0, mult=0), "multiplicities must be positive"
    ),
    "berge-short-member": (
        "berge", _with_family(0, edges=lambda c: c.families[0][0][:-1]),
        "family member is not a perfect matching",
    ),
    "berge-uneven": (
        "berge", _with_family(0, edges=lambda c: c.families[1][0]),
        "coverage is not uniform",
    ),
}


@pytest.mark.parametrize("case", TAMPERED)
def test_verify_names_each_tampering(case):
    kind, edit, verdict = TAMPERED[case]
    g, cert = _verdict_certificates()[kind]
    assert verify(g, cert) == (True, "ok")
    assert verify(g, replace(cert, **edit(g, cert))) == (False, verdict)


def test_verify_rejects_wrong_graph():
    cert = maximal_matching_bound(named("petersen"), [0, 8, 12])
    ok, _ = verify(named("cube"), cert)
    assert not ok


def test_cert_json_round_trip():
    g = named("petersen")
    certs = [
        maximal_matching_bound(g, [0, 8, 12]),
        cap_certificate(g, [0, 8, 12]),
        berge_witness(g),
        odd_component_cert(odd_component_example(), [0, 1]),
    ]
    for cert in certs:
        text = json.dumps(cert_to_json(cert))
        back = cert_from_json(json.loads(text))
        assert back == cert


def test_cert_json_malformed():
    with pytest.raises(errors.ParseError):
        cert_from_json({"kind": "cap_upper"})  # no bound
    with pytest.raises(errors.ParseError):
        cert_from_json({"kind": "cap_upper", "bound": {"num": "1"}})
    with pytest.raises(errors.ParseError):
        cert_from_json([])


def _readable_certificates():
    """One certificate of each kind, as cert_to_json writes it."""
    g = named("petersen")
    cube = maximal_matching_bound(named("cube"), [0, 6, 11])
    return {
        "exposed": cert_to_json(cube),
        "cap": cert_to_json(_cap_with_odd_set()[1]),
        "berge": cert_to_json(berge_witness(g)),
        "odd": cert_to_json(odd_component_cert(odd_component_example(), [0, 1])),
    }


# One edit per way a file can differ from what cert_to_json writes: per
# case, the certificate kind, the key edited and the edit of its value
MALFORMED = {
    "float-ids": ("exposed", "matching", lambda m: [0.4, 6.4, 11.4]),
    "string-ids": ("exposed", "matching", lambda m: ["0", "6", "11"]),
    "bool-id": ("exposed", "matching", lambda m: [True, *m[1:]]),
    "string-for-list": ("exposed", "matching", lambda m: "0611"),
    "float-set": ("exposed", "independent_set", lambda s: [float(v) for v in s]),
    "float-num-1.9": ("exposed", "bound", lambda b: {"num": 1.9, "den": "3"}),
    "float-num-2.9": ("exposed", "bound", lambda b: {"num": 2.9, "den": "3"}),
    "int-den": ("exposed", "bound", lambda b: {"num": "2", "den": 3}),
    "plus-sign": ("exposed", "bound", lambda b: {"num": "+2", "den": "3"}),
    "space": ("exposed", "bound", lambda b: {"num": "2", "den": " 3"}),
    "leading-zero": ("exposed", "bound", lambda b: {"num": "02", "den": "3"}),
    "non-ascii-digit": ("exposed", "bound", lambda b: {"num": "2", "den": "\u0663"}),
    "negative-den": ("exposed", "bound", lambda b: {"num": "-2", "den": "-3"}),
    "zero-den": ("exposed", "bound", lambda b: {"num": "2", "den": "0"}),
    "extra-rational-key": ("exposed", "bound", lambda b: {**b, "sign": "+"}),
    "list-rational": ("exposed", "bound", lambda b: ["2", "3"]),
    "unknown-key": ("exposed", "cover", lambda _: 1),
    "float-cap": ("cap", "cap", lambda c: float(c)),
    "bool-cap": ("cap", "cap", lambda c: True),
    "string-cap": ("cap", "cap", lambda c: str(c)),
    "extra-potential-key": ("cap", "potentials", lambda ys: [{**ys[0], "x": 0}]),
    "int-potential": ("cap", "potentials", lambda ys: [{"num": 1, "den": "1"}]),
    "string-potentials": ("cap", "potentials", lambda ys: str(ys)),
    "extra-odd-set-key": ("cap", "odd_sets", lambda ss: [{**ss[0], "weight": 1}]),
    "string-odd-set": ("cap", "odd_sets", lambda ss: [{**ss[0], "vertices": "012"}]),
    "bool-cover-count": ("berge", "cover_count", lambda k: True),
    "float-multiplicity": (
        "berge", "families", lambda fs: [{**fs[0], "multiplicity": 1.0}, *fs[1:]]
    ),
    "extra-family-key": ("berge", "families", lambda fs: [{**fs[0], "k": 1}, *fs[1:]]),
    "list-family": ("berge", "families", lambda fs: [[fs[0]["edges"], 1], *fs[1:]]),
    "string-component": (
        "odd", "components", lambda cs: [[str(v) for v in cs[0]], *cs[1:]]
    ),
    "object-components": ("odd", "components", lambda cs: {"0": cs[0]}),
    # a key of another kind's payload, with a value that reads as that kind's
    "foreign-cover-count": ("exposed", "cover_count", lambda _: 7),
    "foreign-components": ("cap", "components", lambda _: [[0]]),
    "foreign-independent-set": ("berge", "independent_set", lambda _: [1, 2]),
    "foreign-families": (
        "odd", "families", lambda _: [{"edges": [0, 1], "multiplicity": 1}]
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cert_json_accepts_only_what_cert_to_json_writes(case):
    kind, key, edit = MALFORMED[case]
    data = _readable_certificates()[kind]
    assert cert_from_json(json.loads(json.dumps(data))) is not None
    with pytest.raises(errors.ParseError):
        cert_from_json({**data, key: edit(data.get(key))})


def _cap_with_odd_set():
    # blanusa2 and the matching (0, 8, 12): cap 2, proved with one odd set
    g = named("blanusa2")
    cert = cap_certificate(g, [0, 8, 12])
    assert cert.cap == 2 and len(cert.odd_sets) == 1
    assert verify(g, cert) == (True, "ok")
    return g, cert


def test_verify_rejects_a_tampered_dual():
    g, cert = _cap_with_odd_set()
    zeroed = tuple((b, Fraction(0)) for b, _ in cert.odd_sets)
    ok, why = verify(g, replace(cert, odd_sets=zeroed))
    assert not ok and "dual" in why
    assert verify(g, replace(cert, potentials=None)) == (False, "missing payload")
    short = replace(cert, potentials=cert.potentials[:-1])
    assert not verify(g, short)[0]
    lowered = replace(cert, potentials=(cert.potentials[0] - 1,) + cert.potentials[1:])
    assert not verify(g, lowered)[0]
    # a perfect matching that misses the stated cap, or is not perfect
    other = tuple(sorted(next(
        p for p in enumerate_perfect_matchings(g) if not p & {0, 8, 12}
    )))
    assert not verify(g, replace(cert, perfect_matching=other))[0]
    assert not verify(g, replace(cert, perfect_matching=(0, 8)))[0]
    # a forged cap 0: attained by other, but the all-zero dual covers no
    # edge of the matching
    zero = (Fraction(0),) * g.n
    forged = replace(
        cert, cap=0, bound=Fraction(0), perfect_matching=other, potentials=zero,
        odd_sets=(),
    )
    assert verify(g, forged) == (False, "dual value is None, certificate says cap 0")


def test_verify_rejects_a_certificate_file_without_dual():
    g, cert = _cap_with_odd_set()
    for field in ("potentials", "odd_sets", "perfect_matching"):
        data = cert_to_json(cert)
        del data[field]
        assert verify(g, cert_from_json(data)) == (False, "missing payload")


@pytest.mark.parametrize(
    "field, bad",
    [
        ("potentials", 5),
        ("potentials", "1/2"),
        ("potentials", [{"num": "1"}]),
        ("potentials", [{"num": "1", "den": "0"}]),
        ("odd_sets", [{"vertices": [0, 1, 2]}]),
        ("perfect_matching", ["x"]),
    ],
)
def test_cert_json_rejects_a_malformed_dual(field, bad):
    _, cert = _cap_with_odd_set()
    data = cert_to_json(cert)
    data[field] = bad
    with pytest.raises(errors.ParseError):
        cert_from_json(data)


def test_payload_table_follows_the_certificate_fields():
    names = [name for name, _, _, _ in eta_module._PAYLOAD]
    assert names == [f.name for f in fields(BoundCertificate)][2:]
    for required in eta_module._REQUIRED.values():
        assert set(required) <= set(names)


def test_verify_names_each_missing_payload_field():
    g = named("petersen")
    for cert in (
        maximal_matching_bound(g, [0, 8, 12]),
        cap_certificate(g, [0, 8, 12]),
        berge_witness(g),
    ):
        assert verify(g, cert) == (True, "ok")
        for name in eta_module._REQUIRED[cert.kind]:
            missing = replace(cert, **{name: None})
            assert verify(g, missing) == (False, "missing payload")
    odd = odd_component_example()
    cert = odd_component_cert(odd, [0, 1])
    no_components = replace(cert, component_list=None)
    assert verify(odd, no_components) == (False, "missing components")
    assert verify(odd, replace(cert, cap=None)) == (False, "missing payload")
    # a kind read from JSON may be unhashable
    data = {"kind": ["cap_upper"], "bound": {"num": "1", "den": "3"}}
    assert verify(g, cert_from_json(data)) == (
        False, "unknown certificate kind ['cap_upper']"
    )


def test_encode_writes_fractions_as_string_pairs():
    assert eta_module.encode(Fraction(-2, 6)) == {"num": "-1", "den": "3"}
    assert eta_module.encode((1, [Fraction(1, 2), None], ((True, "x"),))) == [
        1, [{"num": "1", "den": "2"}, None], [[True, "x"]]
    ]
    r = eta_exact(named("k4"))
    assert list(eta_module.encode(r)) == [f.name for f in fields(r)]
    with pytest.raises(TypeError):
        eta_module.encode({1, 2})


def test_eta_result_json_shape():
    r = eta_exact(named("k4"))
    doc = eta_module.encode(r)
    assert doc["value"] == {"num": "1", "den": "1"}
    assert len(doc["witness_weights"]) == 6
    assert doc["argmax_weight"]["num"] == str(r.argmax_weight.numerator)


def test_bounds_bracket_exact_values():
    for g in catalog(16):
        lo = berge_witness(g)
        hi = best_maximal_matching_bound(g)
        eta = FROZEN_ETA[g.name]
        assert lo.bound <= eta <= hi.bound, g.name
