"""Maximum-weight matching via the primal-dual blossom method.

This follows Galil's formulation of Edmonds' algorithm in the shape
popularised by van Rantwijk's implementation: O(n^3), with explicit
S/T labels, nested blossoms and four delta cases.  All arithmetic is
on Python ints: callers scale rational weights to integers first.
Vertex duals are kept doubled, so a tight edge joins duals of equal
parity; every S-vertex is tied by tight edges to an exposed vertex, all
of which share one dual, so the slack of an S-S edge is even and
halving it with // is exact (and checked).  Every call returns its
final duals, which dual_objective (also used by eta.verify) must show
to be optimal, or InternalError is raised.

Vertices are 0..n-1.  Weights arrive as a mapping from ordered pairs
(u, v), u < v, to nonnegative ints.
"""

from __future__ import annotations

from .errors import InternalError


class _Blossom:
    """A nontrivial blossom: odd cycle of sub-blossoms.

    childs lists the sub-blossoms, edges the connecting edge per child
    (edges[0] joins childs[-1] to childs[0] through the original
    tight edge that closed the cycle).
    """

    __slots__ = ("childs", "edges", "mybestedges")

    def __init__(self):
        self.childs: list = []
        self.edges: list = []
        self.mybestedges: list | None = None

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


class _NoNode:
    """Sentinel distinct from every vertex and blossom."""


def dual_objective(weights, potentials, odd_sets):
    """sum(y) + sum(z * (|B| // 2)) for potentials y (one per vertex) and
    odd_sets of (B, z), or None unless every B is an odd set of distinct
    vertices, every z >= 0, and every edge uv has y_u + y_v plus the z of
    the sets holding both ends >= w_uv.  A value bounds every perfect
    matching's weight, and every matching's if all y >= 0."""
    n = len(potentials)
    member: list[set[int]] = [set() for _ in range(n)]  # set indices by vertex
    total = sum(potentials)
    for i, (vertices, z) in enumerate(odd_sets):
        distinct = set(vertices)
        if len(distinct) % 2 == 0 or len(distinct) != len(vertices) or z < 0:
            return None
        if min(distinct) < 0 or max(distinct) >= n:
            return None
        for v in distinct:
            member[v].add(i)
        total += z * (len(distinct) // 2)
    for (u, v), w in weights.items():
        cover = potentials[u] + potentials[v]
        cover += sum(odd_sets[i][1] for i in member[u] & member[v])
        if cover < w:
            return None
    return total


def max_weight_matching_pairs(
    n: int,
    weights: dict[tuple[int, int], int],
    adjacency: list[list[int]],
) -> tuple[set[tuple[int, int]], list[int], list[tuple[tuple[int, ...], int]]]:
    """Return a maximum-weight matching as a set of (u, v), u < v, with
    its duals against the weights 2 * w: one potential per vertex, and
    (sorted leaves, value) of each blossom whose dual is positive.

    adjacency[v] lists v's neighbours in a fixed order; ties in the
    dual updates resolve by that order, so results are deterministic.
    """
    if n == 0 or not weights:
        return set(), [0] * n, []

    gnodes = list(range(n))

    def wt(i: int, j: int) -> int:
        return weights[(i, j) if i < j else (j, i)]

    maxweight = max(0, max(weights.values()))

    # mate[v]: vertex matched to v.
    mate: dict[int, int] = {}
    # label on top-level blossoms: 1 = S, 2 = T (5 marks scan breadcrumbs).
    label: dict = {}
    # labeledge[b]: edge through which b obtained its label.
    labeledge: dict = {}
    # inblossom[v]: top-level blossom containing vertex v.
    inblossom: dict = {v: v for v in gnodes}
    blossomparent: dict = {v: None for v in gnodes}
    blossombase: dict = {v: v for v in gnodes}
    bestedge: dict = {}
    dualvar: dict = {v: maxweight for v in gnodes}
    blossomdual: dict = {}
    # edges that became tight and may be traversed.
    allowedge: dict = {}
    queue: list[int] = []

    def slack(v: int, w: int) -> int:
        return dualvar[v] + dualvar[w] - 2 * wt(v, w)

    def assign_label(w, t, v) -> None:
        # a T label passes an S label on to the mate of its base
        while True:
            b = inblossom[w]
            assert label.get(w) is None and label.get(b) is None
            label[w] = label[b] = t
            if v is not None:
                labeledge[w] = labeledge[b] = (v, w)
            else:
                labeledge[w] = labeledge[b] = None
            bestedge[w] = bestedge[b] = None
            if t == 1:
                if isinstance(b, _Blossom):
                    queue.extend(b.leaves())
                else:
                    queue.append(b)
                return
            v = blossombase[b]
            w, t = mate[v], 1

    def scan_blossom(v, w):
        """Walk both alternating paths to find a common ancestor S-blossom."""
        path = []
        base = _NoNode
        while v is not _NoNode:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                assert blossombase[b] not in mate
                v = _NoNode
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            if w is not _NoNode:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w) -> None:
        """Fold the cycle through (v, w) and their paths to base into one blossom."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for leaf in b.leaves():
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        # recompute best edges out of the new blossom
        bestedgeto: dict = {}
        for bv in path:
            if isinstance(bv, _Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [
                        (leaf, nb)
                        for leaf in bv.leaves()
                        for nb in adjacency[leaf]
                    ]
            else:
                nblist = [(bv, nb) for nb in adjacency[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and (bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        bestedge[b] = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(bloss, endstage: bool) -> None:
        """Dissolve a blossom, relabelling its pieces if mid-stage."""

        def _recurse(b, endstage):
            for s in b.childs:
                blossomparent[s] = None
                if isinstance(s, _Blossom):
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for leaf in s.leaves():
                            inblossom[leaf] = s
                else:
                    inblossom[s] = s
            if (not endstage) and label.get(b) == 2:
                # relabel along the even-length side of the cycle from
                # the entry child to the base
                entrychild = inblossom[labeledge[b][1]]
                j = b.childs.index(entrychild)
                if j & 1:
                    j -= len(b.childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = b.edges[j]
                    else:
                        q, p = b.edges[j - 1]
                    label[w] = None
                    label[q] = None
                    assign_label(w, 2, v)
                    allowedge[(p, q)] = allowedge[(q, p)] = True
                    j += jstep
                    if jstep == 1:
                        v, w = b.edges[j]
                    else:
                        w, v = b.edges[j - 1]
                    allowedge[(v, w)] = allowedge[(w, v)] = True
                    j += jstep
                bw = b.childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while b.childs[j] != entrychild:
                    bv = b.childs[j]
                    if label.get(bv) == 1:
                        j += jstep
                        continue
                    if isinstance(bv, _Blossom):
                        for leaf in bv.leaves():
                            if label.get(leaf):
                                break
                    else:
                        leaf = bv
                    if label.get(leaf):
                        assert label[leaf] == 2
                        assert inblossom[leaf] == bv
                        label[leaf] = None
                        label[mate[blossombase[bv]]] = None
                        assign_label(leaf, 2, labeledge[leaf][0])
                    j += jstep
            label.pop(b, None)
            labeledge.pop(b, None)
            bestedge.pop(b, None)
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]

        stack = [_recurse(bloss, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(bloss, v: int) -> None:
        """Swap matched/unmatched edges inside bloss so v becomes its base."""

        def _recurse(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if isinstance(t, _Blossom):
                yield (t, v)
            i = j = b.childs.index(t)
            if i & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]
            assert blossombase[b] == v

        stack = [_recurse(bloss, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int) -> None:
        """Flip matching parity along the augmenting path through (v, w)."""
        for (s, j) in ((v, w), (w, v)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                assert blossombase[bt] == t
                if isinstance(bt, _Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    # Each stage tries to find one augmenting path.
    while 1:
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue[:] = []

        for v in gnodes:
            if (v not in mate) and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)

        augmented = 0
        while 1:
            while queue and (not augmented):
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for w in adjacency[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
                        if kslack <= 0:
                            allowedge[(v, w)] = allowedge[(w, v)] = True
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            base = scan_blossom(v, w)
                            if base is not _NoNode:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif label.get(w) is None:
                            assert label.get(bw) == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w)
            if augmented:
                break

            # no augmenting path under the current duals: pick the
            # smallest dual step that changes the structure
            deltatype = 1
            delta = max(0, min(dualvar.values()))
            deltaedge = deltablossom = None
            for v in gnodes:
                if label.get(inblossom[v]) is None and bestedge.get(v) is not None:
                    d = slack(*bestedge[v])
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 1
                    and bestedge.get(b) is not None
                ):
                    kslack = slack(*bestedge[b])
                    if kslack % 2:
                        raise InternalError("blossom: odd slack on an S-S edge")
                    d = kslack // 2
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 2
                    and blossomdual[b] < delta
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b
            for v in gnodes:
                lbl = label.get(inblossom[v])
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                (v, w) = deltaedge
                assert label[inblossom[v]] == 1
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            elif deltatype == 3:
                (v, w) = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                assert label[inblossom[v]] == 1
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        for v in mate:
            assert mate[mate[v]] == v
        if not augmented:
            break

        # discard blossoms that no longer pay their way
        for b in list(blossomdual.keys()):
            if b not in blossomdual:
                continue
            if blossomparent[b] is None and label.get(b) == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    pairs = {(v, mate[v]) for v in mate if v < mate[v]}
    covered = {v for p in pairs for v in p}
    potentials = [dualvar[v] for v in gnodes]
    odd_sets = [(tuple(sorted(b.leaves())), 2 * z) for b, z in blossomdual.items() if z]
    value = dual_objective({e: 2 * w for e, w in weights.items()}, potentials, odd_sets)
    weight = sum(weights[p] for p in pairs)
    if len(covered) != 2 * len(pairs) or min(potentials) < 0 or value != 2 * weight:
        raise InternalError("blossom: the final duals do not prove optimality")
    return pairs, potentials, odd_sets
