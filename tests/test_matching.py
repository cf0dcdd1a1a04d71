"""Matching engines: enumeration, blossom optima with their duals, weight I/O."""

import gc
import math
import random
import time
from fractions import Fraction
from itertools import chain

import pytest

from matchforge import errors
from matchforge.errors import Budget
from matchforge.blossom import dual_objective
from matchforge.generators import catalog, gp, named, random_cubic
from matchforge.graphs import from_edge_list
from matchforge import matching
from matchforge.symmetry import edge_automorphisms, edge_orbit_leaders
from matchforge.matching import (
    best_matchings,
    enumerate_maximal_matchings,
    enumerate_perfect_matchings,
    format_weight_csv,
    has_perfect_matching,
    is_matching,
    matching_weight,
    max_weight_matching,
    max_weight_perfect_matching,
    parse_weight_csv,
    perfect_matching_dual,
    random_weights,
    saturated,
    uniform_weights,
    unsaturated,
    validate_weights,
)

# Counts verified against an independent subset-scan oracle.
FROZEN_COUNTS = {
    "k4": (3, 3, [2]),
    "k33": (6, 6, [3]),
    "cube": (9, 17, [3, 4]),
    "petersen": (6, 71, [3, 4, 5]),
}

PETERSEN_PMS = [
    [0, 2, 9, 10, 11],
    [0, 3, 7, 13, 14],
    [1, 3, 5, 11, 12],
    [1, 4, 8, 10, 14],
    [2, 4, 6, 12, 13],
    [5, 6, 7, 8, 9],
]


def _is_maximal(g, m):
    """Reference check: a matching that no edge of g can extend."""
    sat = saturated(g, m)
    return is_matching(g, m) and all(u in sat or v in sat for u, v in g.edges)


def test_matching_predicates():
    g = named("petersen")
    assert is_matching(g, [0, 2])
    assert not is_matching(g, [0, 1])  # share vertex 1
    assert saturated(g, [0]) == frozenset({0, 1})
    assert unsaturated(g, [0]) == tuple(range(2, 10))
    assert not _is_maximal(g, frozenset({0}))
    assert _is_maximal(g, frozenset(PETERSEN_PMS[0]))


def test_enumeration_frozen_counts():
    for label, (n_pm, n_max, sizes) in FROZEN_COUNTS.items():
        g = named(label)
        pms = enumerate_perfect_matchings(g)
        maxi = enumerate_maximal_matchings(g)
        assert len(pms) == n_pm, label
        assert len(maxi) == n_max, label
        assert sorted({len(m) for m in maxi}) == sizes, label
        assert set(pms) <= set(maxi)
        for m in maxi:
            assert _is_maximal(g, m)


def test_petersen_perfect_matchings_exact():
    pms = enumerate_perfect_matchings(named("petersen"))
    assert [sorted(m) for m in pms] == PETERSEN_PMS


@pytest.mark.parametrize(
    "enumerate_",
    [enumerate_maximal_matchings, enumerate_perfect_matchings, has_perfect_matching],
)
def test_enumeration_leaves_no_garbage_cycles(enumerate_):
    # a reference cycle would keep every found matching (or the blossom's
    # whole state) alive until the next full collection
    gc.disable()
    try:
        gc.collect()
        enumerate_(gp(8, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the mask cores against the frozenset searches they replaced


class Refused(Exception):
    """A reference search's refusal: the message that BudgetExceeded
    carried, written out as it read before the Budget fields."""


def _sorted_stream(found):
    return tuple(sorted(found, key=lambda s: tuple(sorted(s))))


def reference_perfect_matchings(
    g,
    *,
    vertex_limit=26,
    count_budget=10**5,
):
    """The frozenset search that enumerate_perfect_matchings ran before
    its mask core: branch on the lowest unsaturated vertex, then sort."""
    if vertex_limit is None:
        vertex_limit = 26
    if g.n > vertex_limit:
        raise Refused(
            f"{g.n} vertices exceeds the enumeration limit {vertex_limit}"
        )
    if g.n % 2:
        return ()
    n, adj = g.n, g.adj
    found = []
    sat = [False] * n
    chosen = []
    partner = []
    stack = []
    v = 0
    while True:
        while v < n and sat[v]:
            v += 1
        if v == n:
            if len(found) >= count_budget:
                raise Refused(f"more than {count_budget} perfect matchings")
            found.append(frozenset(chosen))
        else:
            sat[v] = True
            stack.append((v, iter(adj[v])))
        while stack:
            v, neighbours = stack[-1]
            if len(partner) == len(stack):
                sat[partner.pop()] = False
                chosen.pop()
            for u, eid in neighbours:
                if not sat[u]:
                    sat[u] = True
                    partner.append(u)
                    chosen.append(eid)
                    break
            else:
                sat[v] = False
                stack.pop()
                continue
            break
        else:
            return _sorted_stream(found)


def reference_maximal_matchings(
    g,
    *,
    vertex_limit=20,
    count_budget=10**6,
):
    """The frozenset search that enumerate_maximal_matchings ran before
    its mask core: match the lowest undecided vertex to each undecided
    neighbour, then leave it exposed if no neighbour is, then sort."""
    if vertex_limit is None:
        vertex_limit = 20
    if g.n > vertex_limit:
        raise Refused(
            f"{g.n} vertices exceeds the enumeration limit {vertex_limit}"
        )
    UNDECIDED, MATCHED, EXPOSED = 0, 1, 2
    n, adj = g.n, g.adj
    state = [UNDECIDED] * n
    found = []
    chosen = []
    partner = []
    stack = []
    v = 0
    while True:
        while v < n and state[v] != UNDECIDED:
            v += 1
        if v == n:
            if len(found) >= count_budget:
                raise Refused(f"more than {count_budget} maximal matchings")
            found.append(frozenset(chosen))
        else:
            state[v] = MATCHED
            stack.append((v, chain(adj[v], ((-1, -1),))))
        while stack:
            v, options = stack[-1]
            if len(partner) == len(stack):
                u = partner.pop()
                if u >= 0:
                    state[u] = UNDECIDED
                    chosen.pop()
            for u, eid in options:
                if u >= 0:
                    if state[u] != UNDECIDED:
                        continue
                    state[u] = MATCHED
                    chosen.append(eid)
                elif any(state[w] == EXPOSED for w, _ in adj[v]):
                    continue
                else:
                    state[v] = EXPOSED
                partner.append(u)
                break
            else:
                state[v] = UNDECIDED
                stack.pop()
                continue
            break
        else:
            return _sorted_stream(found)


def _complete(n):
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _path(n):
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def _cycle(n):
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def _reference_graphs():
    rng = random.Random(20261018)
    graphs = [(g.name, g) for g in catalog(20)]
    graphs += [(f"cubic{i}", random_cubic(rng.randrange(4, 21, 2), rng)) for i in range(30)]
    graphs += [(f"complete{n}", _complete(n)) for n in range(1, 9)]
    graphs += [(f"path{n}", _path(n)) for n in range(1, 13)]
    graphs += [(f"cycle{n}", _cycle(n)) for n in (3, 5, 7, 9)]
    graphs += [("empty", from_edge_list(0, [])), ("edgeless5", from_edge_list(5, []))]
    return [pytest.param(g, id=name) for name, g in graphs]


STREAMS = [
    (matching.enumerate_perfect_matchings, reference_perfect_matchings),
    (matching.enumerate_maximal_matchings, reference_maximal_matchings),
]


@pytest.mark.parametrize("g", _reference_graphs())
def test_mask_cores_give_the_reference_streams(g):
    for enumerate_, reference in STREAMS:
        assert enumerate_(g) == reference(g), enumerate_.__name__


def _mixed_degree_graphs(seed=20261019, count=200):
    """Seeded random graphs on at most 12 vertices: a random core, some
    isolated vertices and some pendant ones, relabelled at random.  The
    edges are listed in shuffled order, and edge ids follow the list, so
    a vertex's adjacency order is not the order of its neighbours."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        isolated = min(rng.choice((0, 0, 0, 1, 2)), n - 1)
        pendant = rng.randint(0, min(3, n - isolated - 1))
        core = n - isolated - pendant
        p = rng.uniform(0.3, 1.0)
        pairs = [(u, v) for u in range(core) for v in range(u + 1, core) if rng.random() < p]
        pairs += [(core + i, rng.randrange(core)) for i in range(pendant)]
        label = list(range(n))
        rng.shuffle(label)
        rng.shuffle(pairs)
        yield from_edge_list(n, [(label[u], label[v]) for u, v in pairs])


def test_mask_cores_give_the_reference_streams_on_mixed_degrees():
    seen = {"isolated": 0, "pendant": 0, "irregular": 0, "unsorted": 0, "perfect": 0}
    for i, g in enumerate(_mixed_degree_graphs()):
        degrees = {g.degree(v) for v in range(g.n)}
        seen["isolated"] += 0 in degrees
        seen["pendant"] += 1 in degrees
        seen["irregular"] += len(degrees) > 1
        seen["unsorted"] += any(
            list(g.neighbors(v)) != sorted(g.neighbors(v)) for v in range(g.n)
        )
        seen["perfect"] += bool(reference_perfect_matchings(g))
        for enumerate_, reference in STREAMS:
            assert enumerate_(g) == reference(g), (i, enumerate_.__name__)
    assert min(seen.values()) >= 30, seen


def _disjoint_union(*graphs):
    pairs, offset = [], 0
    for g in graphs:
        pairs += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return from_edge_list(offset, pairs)


@pytest.mark.parametrize(
    "names",
    [("k4", "k4", "k4"), ("k33", "cube"), ("k4", "petersen"), ("petersen", "cube")],
)
def test_mask_cores_on_disjoint_unions(names):
    parts = [named(name) for name in names]
    g = _disjoint_union(*parts)
    for enumerate_, reference in STREAMS:
        stream = enumerate_(g)
        assert stream == reference(g), enumerate_.__name__
        # a matching of a disjoint union is one matching per part
        assert len(stream) == math.prod(len(enumerate_(h)) for h in parts)


def _outcome(enumerate_, g, **kw):
    try:
        return enumerate_(g, **kw)
    except (errors.BudgetExceeded, Refused) as exc:
        return ("BudgetExceeded", str(exc))


@pytest.mark.parametrize("label", ["k4", "cube", "petersen", "blanusa1"])
def test_mask_cores_stop_where_the_references_stop(label):
    g = named(label)
    for (enumerate_, reference), field in zip(STREAMS, ("perfect_count", "maximal_count")):
        count = len(reference(g))
        for budget in (0, 1, count - 1, count):
            got = _outcome(enumerate_, g, budget=Budget(**{field: budget}))
            assert got == _outcome(reference, g, count_budget=budget), budget
            assert (got[0] == "BudgetExceeded") == (budget < count)
        for limit in (g.n - 1, g.n, None):
            got = _outcome(enumerate_, g, budget=Budget(vertex_limit=limit))
            assert got == _outcome(reference, g, vertex_limit=limit), limit


def _leader_graphs(seed=20261023):
    """catalog(20) and 30 seeded cubic graphs with 8..20 vertices."""
    yield from catalog(20)
    rng = random.Random(seed)
    for _ in range(30):
        yield random_cubic(rng.randrange(8, 21, 2), rng)


def test_leader_stream_is_the_stream_filtered_to_leader_masks(seed=20261024):
    # with leaders, the maximal core lists exactly the masks of the full
    # stream whose lowest edge is a leader, in stream order: for the
    # leaders of the edge orbits, as exact eta passes them, and for a
    # random set of edges
    rng = random.Random(seed)
    symmetric = 0
    for i, g in enumerate(_leader_graphs()):
        full = matching._maximal_masks(g)
        orbit_leaders = edge_orbit_leaders(edge_automorphisms(g), g.m)
        symmetric += len(orbit_leaders) < g.m
        some_edges = sorted(rng.sample(range(g.m), rng.randint(1, g.m)))
        for leaders in (orbit_leaders, some_edges):
            lead = set(leaders)
            want = [mask for mask in full if (mask & -mask).bit_length() - 1 in lead]
            assert matching._maximal_masks(g, leaders=leaders) == want, i
    assert symmetric >= 12, symmetric


def _mask(s):
    return sum(1 << e for e in s)


def _key(s, m):
    """The enumerators' key: the reversed mask above the edge mask."""
    return sum(1 << (m - 1 - e) for e in s) << m | _mask(s)


def test_reversed_mask_order_is_tuple_order_on_antichains(seed=6):
    rng = random.Random(seed)
    for _ in range(200):
        m = rng.randint(1, 12)
        sets = {frozenset(rng.sample(range(m), rng.randint(0, m))) for _ in range(20)}
        # keep the sets that no other set contains: an antichain
        family = [a for a in sets if not any(a < b for b in sets)]
        by_tuple = sorted(family, key=lambda s: tuple(sorted(s)))
        keys = [_key(s, m) for s in family]
        assert matching._sorted_masks(keys, m) == [_mask(s) for s in by_tuple]
    # nested sets break it: (0,) precedes (0, 1), but has the smaller key
    nested = [frozenset({0}), frozenset({0, 1})]
    assert sorted(nested, key=lambda s: tuple(sorted(s)))[0] == frozenset({0})
    assert matching._sorted_masks([_key(s, 2) for s in nested], 2)[0] == 0b11


def test_enumeration_vertex_limits():
    with pytest.raises(errors.BudgetExceeded):
        enumerate_maximal_matchings(named("nauru"))  # 24 > 20
    with pytest.raises(errors.BudgetExceeded):
        enumerate_perfect_matchings(gp(14, 1))  # 28 > 26
    assert len(enumerate_perfect_matchings(named("nauru"))) == 120
    nauru = enumerate_maximal_matchings(named("nauru"), budget=Budget(vertex_limit=24))
    assert len(nauru) == 15050


def test_enumeration_count_budgets():
    with pytest.raises(errors.BudgetExceeded):
        enumerate_maximal_matchings(named("petersen"), budget=Budget(maximal_count=70))
    with pytest.raises(errors.BudgetExceeded):
        enumerate_perfect_matchings(named("cube"), budget=Budget(perfect_count=8))


def test_weight_validation():
    g = named("k4")
    w = validate_weights(g, [1, "2/3", Fraction(1, 2), 0, 0, 4])
    assert w[1] == Fraction(2, 3)
    with pytest.raises(errors.BadWeights):
        validate_weights(g, [1, 2, 3])  # wrong length
    with pytest.raises(errors.BadWeights):
        validate_weights(g, [1, -1, 0, 0, 0, 0])
    with pytest.raises(errors.BadWeights):
        validate_weights(g, [0] * 6)  # all zero
    assert uniform_weights(g) == (Fraction(1),) * 6


def test_max_weight_matching_tie_and_zero_edges():
    g = named("cube")
    # spokes only: best matching picks all four spokes
    w = [Fraction(1) if 4 <= e < 8 else Fraction(0) for e in range(g.m)]
    m = max_weight_matching(g, w)
    assert matching_weight(w, m) == 4


def test_perfect_vs_unrestricted_gap():
    g = named("petersen")
    # unit weight on a size-3 maximal matching, tiny elsewhere
    w = [Fraction(0)] * g.m
    for e in (0, 8, 12):
        w[e] = Fraction(1)
    best = max_weight_matching(g, w)
    best_pm = max_weight_perfect_matching(g, w)
    assert matching_weight(w, best) == 3
    assert matching_weight(w, best_pm) == 1


def _first_optimum(stream, w):
    """Reference argmax: the first optimum of a sorted matching stream."""
    totals = [sum(w[e] for e in m) for m in stream]
    return stream[totals.index(max(totals))]


@pytest.mark.parametrize("g", catalog(), ids=lambda g: g.name)
def test_argmax_is_the_first_optimum(g, seed=2025):
    # nauru has 24 vertices, more than the maximal-matching enumeration
    # takes by default; the argmax has no such limit
    maxi = enumerate_maximal_matchings(g, budget=Budget(vertex_limit=24))
    pms = enumerate_perfect_matchings(g)
    rng = random.Random(seed)
    draws = [[1] * g.m] + [[rng.randint(0, 1) for _ in range(g.m)] for _ in range(5)]
    for w in filter(any, draws):
        assert max_weight_matching(g, w) == _first_optimum(maxi, w)
        assert max_weight_perfect_matching(g, w) == _first_optimum(pms, w)


def test_shift_route_matches_enumeration(seed=1212):
    rng = random.Random(seed)
    for g in catalog(16):
        pms = enumerate_perfect_matchings(g)
        for _ in range(25):
            w = random_weights(g, rng)
            got = perfect_matching_dual(g, w)[0]
            assert saturated(g, got) == frozenset(range(g.n))
            best = max(matching_weight(w, p) for p in pms)
            assert matching_weight(w, got) == best


def test_perfect_matching_dual_proves_the_optimum(seed=1213):
    rng = random.Random(seed)
    for g in catalog(16):
        pms = enumerate_perfect_matchings(g)
        for _ in range(10):
            w = random_weights(g, rng)
            pm, potentials, odd_sets = perfect_matching_dual(g, w)
            weights = dict(zip(g.edges, w))
            value = dual_objective(weights, potentials, odd_sets)
            assert value == matching_weight(w, pm)
            assert value == max(matching_weight(w, p) for p in pms)


def test_blossom_route_matches_enumeration(seed=77):
    rng = random.Random(seed)
    for g in catalog(16):
        maxi = enumerate_maximal_matchings(g)
        for _ in range(25):
            w = random_weights(g, rng)
            got = best_matchings(g, w)[0]
            best = max(matching_weight(w, m) for m in maxi)
            assert matching_weight(w, got) == best


# coprime denominators, one of them a prime product above 2**64, so the
# blossom's integer weights are far wider than a machine word
BIG_DENOMINATOR = (2**61 - 1) * 1000003
MIXED_DENOMINATORS = (97, 10**6, BIG_DENOMINATOR)


def _mixed_weights(g, rng):
    out = []
    for _ in range(g.m):
        den = rng.choice(MIXED_DENOMINATORS)
        out.append(Fraction(rng.randint(0, 3 * den), den))
    out[0] += 1  # at least one positive weight
    return out


@pytest.mark.parametrize("seed", [4, 5])
def test_blossom_scaling_with_mixed_large_denominators(seed):
    rng = random.Random(seed)
    for g in catalog(16):
        maxi = enumerate_maximal_matchings(g)
        pms = enumerate_perfect_matchings(g)
        for _ in range(8):
            w = _mixed_weights(g, rng)
            best = max(matching_weight(w, m) for m in maxi)
            assert matching_weight(w, best_matchings(g, w)[0]) == best
            best_pm = max(matching_weight(w, p) for p in pms)
            assert matching_weight(w, perfect_matching_dual(g, w)[0]) == best_pm
    assert math.lcm(*MIXED_DENOMINATORS) > 2**64


def test_blossom_shifted_weights_regression(seed=9000):
    # shift-sized offsets once broke base tracking inside nested blossoms
    g = gp(10, 2)
    rng = random.Random(seed)
    pms = None
    for _ in range(50):
        w = list(random_weights(g, rng))
        shift = 1 + sum(w)
        shifted = [x + shift for x in w]
        got = perfect_matching_dual(g, w)[0]
        assert saturated(g, got) == frozenset(range(g.n))
        direct = best_matchings(g, shifted)[0]
        assert matching_weight(shifted, direct) == matching_weight(shifted, got)


def _narrow_weights(g, rng, top, den):
    """random_weights' draws, one rng call for each numerator and
    denominator, over numerators 0..top and denominators 1..den."""
    while True:
        w = tuple(Fraction(rng.randint(0, top), rng.randint(1, den)) for _ in range(g.m))
        if any(x > 0 for x in w):
            return w


def test_best_matchings_agree_with_the_two_routes(seed=1214):
    # random graphs, many without a perfect matching, and catalog graphs
    rng = random.Random(seed)
    graphs = list(catalog(12))
    while len(graphs) < 60:
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        if pairs:
            graphs.append(from_edge_list(n, pairs))
    without = 0
    for g in graphs:
        for _ in range(5):
            w = _narrow_weights(g, rng, 3, 3)
            best, pm = best_matchings(g, w)
            # a run without the shift, and the perfect-matching route
            ints, _ = matching.integer_weights(validate_weights(g, w))
            assert best == matching._edge_ids(g, matching._engine(g, ints)[0])
            try:
                assert pm == perfect_matching_dual(g, w)[0]
            except errors.NoPerfectMatching:
                assert pm is None
                without += 1
    assert without >= 50


def test_one_engine_run_for_both_optima(monkeypatch):
    g = named("petersen")
    w = random_weights(g, random.Random(3))
    calls = []
    engine = matching.max_weight_matching_pairs
    monkeypatch.setattr(
        matching, "max_weight_matching_pairs", lambda *a: calls.append(a[0]) or engine(*a)
    )
    perfect_matching_dual(g, w)
    assert len(calls) == 1
    best_matchings(g, w)
    assert len(calls) == 2


def test_perfect_matching_dual_failures():
    with pytest.raises(errors.NoPerfectMatching):
        perfect_matching_dual(from_edge_list(3, [(0, 1), (1, 2)]), [1, 1])
    two_triangles = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(errors.NoPerfectMatching):
        perfect_matching_dual(two_triangles, [1] * 6)


def test_has_perfect_matching_random_agreement(seed=31):
    rng = random.Random(seed)
    for _ in range(20):
        g = random_cubic(rng.choice([6, 8, 10, 12]), rng)
        assert has_perfect_matching(g) == bool(enumerate_perfect_matchings(g))


def test_weight_csv_round_trip(seed=5):
    g = named("cube")
    w = random_weights(g, random.Random(seed))
    text = format_weight_csv(w)
    assert parse_weight_csv(text, g.m) == w


def test_weight_csv_parse_errors():
    with pytest.raises(errors.ParseError):
        parse_weight_csv("0,1\n0,2\n", 1)  # duplicate
    with pytest.raises(errors.ParseError):
        parse_weight_csv("0,1\n", 2)  # missing id 1
    with pytest.raises(errors.ParseError):
        parse_weight_csv("5,1\n", 2)  # id out of range
    with pytest.raises(errors.ParseError):
        parse_weight_csv("0;1\n", 1)
    with pytest.raises(errors.ParseError):
        parse_weight_csv("0,1/0\n", 1)
    assert parse_weight_csv("# note\n\n0,3/4\n", 1) == (Fraction(3, 4),)
    assert parse_weight_csv("0,-1\n1, +2 \n2,-6/4\n", 3) == (-1, 2, Fraction(-3, 2))


@pytest.mark.parametrize(
    "value", ["1e10000000", "1e1000000", "0.5", "1_000", "3/-4", "1/2e5"]
)
def test_weight_csv_refuses_undocumented_literals_at_once(value):
    start = time.perf_counter()
    with pytest.raises(errors.ParseError, match="not an integer or num/den"):
        parse_weight_csv(f"0,{value}\n", 1)
    assert time.perf_counter() - start < 0.1


def test_random_weights_in_range(seed=16):
    g = named("k4")
    rng = random.Random(seed)
    drawn = []
    for _ in range(50):
        w = random_weights(g, rng)
        assert any(x > 0 for x in w)
        drawn += w
    # numerators 0..12 over denominators 1..6, both ends reached
    assert min(drawn) == 0 and max(drawn) == 12
    assert max(x.denominator for x in drawn) == 6


def test_best_integer_matchings_is_best_matchings_in_ints(seed=1215):
    rng = random.Random(seed)
    for g in catalog(12):
        w = random_weights(g, rng)
        ints, scale = matching.integer_weights(validate_weights(g, w))
        assert [Fraction(x, scale) for x in ints] == list(w)
        got = matching.best_integer_matchings(g, ints, scale)
        assert got == best_matchings(g, w)
        # a common positive factor changes no choice
        assert matching.best_integer_matchings(g, [7 * x for x in ints], 7 * scale) == got
    g = named("petersen")
    for ints, scale in (([1] * 14, 1), ([-1] + [1] * 14, 1), ([0] * 15, 1), ([1] * 15, 0)):
        with pytest.raises(errors.BadWeights):
            matching.best_integer_matchings(g, ints, scale)


def _lex_tiebreak_reference(weights):
    """The tie-break in Fractions that _lex_tiebreak's ints replace: edge
    e gains 2**(m-1-e) / (2**m L), with L the LCM of the denominators."""
    m = len(weights)
    unit = math.lcm(*(w.denominator for w in weights)) << m
    return tuple(w + Fraction(1 << (m - 1 - e), unit) for e, w in enumerate(weights))


# tie-heavy small ints, and mixed denominators: when every numerator
# 2**(m-1-e) + 2**m L w_e of the reference shares a factor of 3 with L,
# the reference's LCM is a proper divisor of the int route's scale
TIEBREAK_POOLS = ((0, 1, 2), (Fraction(1, 3), Fraction(1, 6), Fraction(2, 9)))


def test_int_tiebreak_agrees_with_the_fraction_reference(seed=1216):
    rng = random.Random(seed)
    common_factor = without = 0
    for _ in range(600):
        n = rng.randint(2, 16)
        p = rng.uniform(0.1, 0.6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs or [(0, 1)])
        pool = rng.choice(TIEBREAK_POOLS)
        w = [rng.choice(pool) for _ in range(g.m)]
        w = validate_weights(g, w if any(w) else w[:-1] + [1])
        ref_ints, ref_scale = matching.integer_weights(_lex_tiebreak_reference(w))
        ints, scale = matching._lex_tiebreak(w)
        # one common factor apart, so by Scaling the engine picks the same
        factor = scale // ref_scale
        assert ints == [factor * x for x in ref_ints] and scale == factor * ref_scale
        common_factor += factor > 1
        reference = matching._edge_ids(g, matching._engine(g, ref_ints)[0])
        assert max_weight_matching(g, w) == reference
        best, pm = matching.best_integer_matchings(g, ref_ints, ref_scale)
        assert matching.best_integer_matchings(g, ints, scale) == (best, pm)
        try:
            assert max_weight_perfect_matching(g, w) == pm
        except errors.NoPerfectMatching:
            assert pm is None
            without += 1
    # at least 100 graphs with a perfect matching and 100 without
    assert common_factor >= 20 and 100 <= without <= 500
