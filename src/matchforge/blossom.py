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
to be optimal, or InternalError is raised, as it is when any label,
base or mate invariant of the search breaks.

Vertices are 0..n-1.  Weights arrive as a mapping from ordered pairs
(u, v), u < v, to nonnegative ints.

Layout.  All state lives in flat lists indexed by id.  Vertices are
0..n-1; a nontrivial blossom takes an id in n..2n-1 from a free list
when it forms and returns it when it expands, so "b >= n" tells a
blossom from a vertex.  A missing entry is 0 (labels), -1 (mate,
parent, base) or None.  nbrs[v] holds (u, 2 * w_vu) in adjacency[v]
order, and best edges are stored as (v, u, 2 * w_vu), so every slack
dualvar[v] + dualvar[u] - 2 * w_vu is computed inline.

Tie order.  Each dual step keeps the first candidate that is strictly
smaller, so the scan order decides ties: vertices 0..n-1 first, then
live blossoms in creation order.  The blossomdual dict supplies that
order (a key is inserted when its blossom forms and deleted when it
expands, so a reused id still sorts by its new creation), and every
pass over blossoms, as well as the odd_sets output, iterates it.

Resume.  A best perfect matching is a maximum-weight matching under
w + S for a large enough shift S, and one run can find both optima.
The run on w + S starts with every dualvar S above the run on w.  With
S added to every dualvar and 2S to every stored doubled weight, every
slack, every blossom dual and the parity of every S-S slack stay as
they were; of the four dual step candidates only the first,
min(dualvar), changes, and it grows by S.  A step of another type is
taken only when it is strictly below min(dualvar) (ties keep the first
candidate), so it is below min(dualvar) + S too.  Hence the run on
w + S makes the same choices as the run on w, every dualvar S higher,
until the run on w takes a type-1 step, which is its last.  Called with
a shift, the engine reads the result for w off at that step, with the
step applied to copies of the duals; then it adds S to every dualvar
and 2S to every stored doubled weight and chooses the step again.  From
there it is the fresh run on w + S.  When no vertex is exposed at that
step, no label is set and nothing moves, so both results share one
matching and the second's potentials are the first's plus S.

Greedy prefix.  While no blossom has formed and every matched vertex
is unlabelled, a stage labels each exposed vertex S and nothing else;
the exposed vertices share one dual D and the matched ones keep the
dual they had when matched, which is at least D.  If no exposed vertex
has a tight edge to a matched one, no T label can appear, and the stage
is one of two kinds, which _greedy_prefix replays from a sorted edge
list instead of rescanning every vertex.  The queue pops the largest
exposed vertex first and a scan takes its first tight neighbour in nbrs
order, so when some exposed-exposed edge is tight (2w = 2D, the largest
weight left between exposed vertices) the stage matches the largest
exposed vertex with a tight exposed edge to the first such neighbour.
Otherwise every exposed vertex is scanned and the dual step follows.
Type 1 offers D; type 2 offers the least slack D + y_u - 2w of an
exposed-to-matched edge; type 3 offers half the least exposed-exposed
slack, D - w for the heaviest such edge.  Type 3 is taken only when it
is strictly below both.  Its edge is the best edge of the smallest
vertex on a heaviest edge, which is that edge's lower end, and a best
edge is the first strict minimum in nbrs order, so the edge is the
first under the key (-2w, lower end, position of the upper end in
nbrs[lower]).  After the step D = w and the edge is tight, no edge to
a matched vertex is, and no tight edge comes before it in its lower
end's nbrs, so the rescan of that end matches it.  The replay hands over
to the stage loop as soon as an exposed vertex has a tight edge to a
matched one, a type-1 or type-2 step would win or tie, or no two
exposed vertices are adjacent.  Every stage starts by clearing labels,
best edges, tight edges and the queue, and no blossom exists yet, so
the loop goes on exactly as it would have after the same stages.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import InternalError


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


def _greedy_prefix(n, nbrs, maxweight, mate, dualvar) -> None:
    """Replay the engine's leading stages that match one edge between
    two exposed vertices (see Greedy prefix in the module docstring),
    writing only mate and dualvar.  A replayed stage costs a few heap
    steps and a scan of the matched pair's neighbours, not a pass over
    every vertex."""
    # every edge once, in the order a type-3 step prefers it
    edges = sorted(
        (-w2, v, i, u) for v in range(n) for i, (u, w2) in enumerate(nbrs[v]) if u > v
    )
    head = 0
    # (y_u - 2w_xu, x) per edge from an exposed x to a matched u: its
    # slack is d plus the key, and entries whose x got matched are stale
    heap: list[tuple[int, int]] = []
    d = maxweight
    tight = None  # the doubled weight that cands was built for
    cands: list[int] = []  # upper ends of the edges of weight tight
    while True:
        while head < len(edges) and (
            mate[edges[head][1]] != -1 or mate[edges[head][3]] != -1
        ):
            head += 1
        if head == len(edges):
            break
        while heap and mate[heap[0][1]] != -1:
            heappop(heap)
        step2 = d + heap[0][0] if heap else None
        if step2 is not None and step2 <= 0:
            break  # the next stage sets a T label
        w2 = -edges[head][0]
        if w2 > 2 * d:
            raise InternalError("blossom: an exposed edge above the greedy dual")
        if w2 == 2 * d:
            if tight != w2:
                tight, k, cands = w2, head, []
                while k < len(edges) and edges[k][0] == -w2:
                    cands.append(edges[k][3])
                    k += 1
                cands.sort()
            while True:
                v = cands.pop()
                if mate[v] == -1:
                    u = next((u for u, x2 in nbrs[v] if x2 == w2 and mate[u] == -1), -1)
                    if u != -1:
                        break
        else:
            delta = d - w2 // 2
            if delta >= d or (step2 is not None and delta >= step2):
                break  # a type-1 or type-2 step comes first
            d -= delta
            _, v, _, u = edges[head]
        mate[v], mate[u] = u, v
        dualvar[v] = dualvar[u] = d
        for s in (v, u):
            for x, x2 in nbrs[s]:
                if mate[x] == -1:
                    heappush(heap, (d - x2, x))
    for v in range(n):
        if mate[v] == -1:
            dualvar[v] = d


def max_weight_matching_pairs(
    n: int,
    weights: dict[tuple[int, int], int],
    adjacency: list[list[int]],
    shift: int | None = None,
):
    """Return a maximum-weight matching as a set of (u, v), u < v, with
    its duals against the weights 2 * w: one potential per vertex, and
    (sorted leaves, value) of each blossom whose dual is positive.

    adjacency[v] lists v's neighbours in a fixed order; ties in the
    dual updates resolve by that order, so results are deterministic.
    With an int shift S > 0, return two such results: the one for w,
    and the one a fresh call on the weights w + S returns (see Resume
    in the module docstring).
    """
    if n == 0 or not weights:
        if shift is None:
            return set(), [0] * n, []
        return (set(), [0] * n, []), (set(), [0] * n, [])

    maxweight = max(0, max(weights.values()))
    # nbrs[v]: (u, 2 * w_vu) for each neighbour u, in adjacency[v] order
    nbrs = [
        [(u, 2 * weights[(v, u) if v < u else (u, v)]) for u in adjacency[v]]
        for v in range(n)
    ]
    size = 2 * n
    zeros = [0] * size
    nones = [None] * size

    # mate[v]: vertex matched to v, or -1.
    mate = [-1] * n
    # label on top-level blossoms: 1 = S, 2 = T (5 marks scan breadcrumbs).
    label = zeros[:]
    # labeledge[b]: edge (v, w) through which b obtained its label.
    labeledge = nones[:]
    # inblossom[v]: top-level blossom containing vertex v.
    inblossom = list(range(n))
    blossomparent = [-1] * size
    blossombase = list(range(n)) + [-1] * n
    # sub-blossoms of a blossom, and the edge joining each child to the
    # previous one (edges[0] joins childs[-1] to childs[0] through the
    # tight edge that closed the cycle)
    blossomchilds: list = nones[:]
    blossomedges: list = nones[:]
    # least-slack (v, u, 2 * w) edges to other S-blossoms, per blossom
    mybestedges: list = nones[:]
    bestedge: list = nones[:]
    dualvar = [maxweight] * n
    # live blossom -> dual; iteration follows creation order
    blossomdual: dict[int, int] = {}
    freeids = list(range(size - 1, n - 1, -1))
    # edges that became tight and may be traversed.
    allowedge: set[tuple[int, int]] = set()
    queue: list[int] = []

    def leaves(b: int) -> list[int]:
        out = []
        stack = [*blossomchilds[b]]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v) -> None:
        # a T label passes an S label on to the mate of its base
        while True:
            b = inblossom[w]
            if label[w] or label[b]:
                raise InternalError("blossom: labelling a labelled vertex")
            label[w] = label[b] = t
            if v is not None:
                labeledge[w] = labeledge[b] = (v, w)
            else:
                labeledge[w] = labeledge[b] = None
            bestedge[w] = bestedge[b] = None
            if t == 1:
                if b >= n:
                    queue.extend(leaves(b))
                else:
                    queue.append(b)
                return
            v = blossombase[b]
            w, t = mate[v], 1

    def scan_blossom(v: int, w: int) -> int:
        """Walk both alternating paths to find a common ancestor
        S-blossom; return its base, or -1 if the paths reach two
        different exposed vertices."""
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            if label[b] != 1:
                raise InternalError("blossom: scan reached a non-S blossom")
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                if mate[blossombase[b]] != -1:
                    raise InternalError("blossom: a root S-blossom has a matched base")
                v = -1
            else:
                if labeledge[b][0] != mate[blossombase[b]]:
                    raise InternalError("blossom: an S label not via the base's mate")
                v = labeledge[b][0]
                b = inblossom[v]
                if label[b] != 2:
                    raise InternalError("blossom: an S-blossom's parent is not T")
                v = labeledge[b][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        """Fold the cycle through (v, w) and their paths to base into one blossom."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = freeids.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomedges[b] = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            if not (
                label[bv] == 2
                or (label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]])
            ):
                raise InternalError("blossom: a bad label on the cycle's first path")
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            if not (
                label[bw] == 2
                or (label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]])
            ):
                raise InternalError("blossom: a bad label on the cycle's second path")
            w = labeledge[bw][0]
            bw = inblossom[w]
        if label[bb] != 1:
            raise InternalError("blossom: the new blossom's base is not S")
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for leaf in leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        # recompute best edges out of the new blossom
        bestedgeto: dict[int, tuple[int, int, int]] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [
                        (leaf, u, w2) for leaf in leaves(bv) for u, w2 in nbrs[leaf]
                    ]
            else:
                nblist = [(bv, u, w2) for u, w2 in nbrs[bv]]
            for k in nblist:
                i, j, w2 = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1:
                    e = bestedgeto.get(bj)
                    if e is None or dualvar[i] + dualvar[j] - w2 < (
                        dualvar[e[0]] + dualvar[e[1]] - e[2]
                    ):
                        bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = best = list(bestedgeto.values())
        mybestedge = None
        mybestslack = None
        for k in best:
            kslack = dualvar[k[0]] + dualvar[k[1]] - k[2]
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(bloss: int, endstage: bool) -> None:
        """Dissolve a blossom, relabelling its pieces if mid-stage."""

        def _recurse(b, endstage):
            childs = blossomchilds[b]
            for s in childs:
                blossomparent[s] = -1
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for leaf in leaves(s):
                            inblossom[leaf] = s
                else:
                    inblossom[s] = s
            if (not endstage) and label[b] == 2:
                # relabel along the even-length side of the cycle from
                # the entry child to the base
                edges = blossomedges[b]
                entrychild = inblossom[labeledge[b][1]]
                j = childs.index(entrychild)
                if j & 1:
                    j -= len(childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = edges[j]
                    else:
                        q, p = edges[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    allowedge.add((p, q))
                    allowedge.add((q, p))
                    j += jstep
                    if jstep == 1:
                        v, w = edges[j]
                    else:
                        w, v = edges[j - 1]
                    allowedge.add((v, w))
                    allowedge.add((w, v))
                    j += jstep
                bw = childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while childs[j] != entrychild:
                    bv = childs[j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    if bv >= n:
                        for leaf in leaves(bv):
                            if label[leaf]:
                                break
                    else:
                        leaf = bv
                    if label[leaf]:
                        if label[leaf] != 2:
                            raise InternalError("blossom: a reached child is not T")
                        if inblossom[leaf] != bv:
                            raise InternalError("blossom: a T leaf outside its child")
                        label[leaf] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(leaf, 2, labeledge[leaf][0])
                    j += jstep
            label[b] = 0
            labeledge[b] = bestedge[b] = mybestedges[b] = None
            blossomchilds[b] = blossomedges[b] = None
            blossomparent[b] = blossombase[b] = -1
            del blossomdual[b]
            freeids.append(b)

        stack = [_recurse(bloss, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(bloss: int, v: int) -> None:
        """Swap matched/unmatched edges inside bloss so v becomes its base."""

        def _recurse(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            childs = blossomchilds[b]
            edges = blossomedges[b]
            i = j = childs.index(t)
            if i & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = childs[j]
                if jstep == 1:
                    w, x = edges[j]
                else:
                    x, w = edges[j - 1]
                if t >= n:
                    yield (t, w)
                j += jstep
                t = childs[j]
                if t >= n:
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            blossomchilds[b] = childs = childs[i:] + childs[:i]
            blossomedges[b] = edges[i:] + edges[:i]
            blossombase[b] = blossombase[childs[0]]
            if blossombase[b] != v:
                raise InternalError("blossom: augmenting did not rebase the blossom")

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
                if label[bs] != 1:
                    raise InternalError("blossom: an augmenting path leaves S")
                if labeledge[bs] is None:
                    if mate[blossombase[bs]] != -1:
                        raise InternalError("blossom: a root S-blossom has a matched base")
                elif labeledge[bs][0] != mate[blossombase[bs]]:
                    raise InternalError("blossom: an S label not via the base's mate")
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                if label[bt] != 2:
                    raise InternalError("blossom: an S-blossom's parent is not T")
                s, j = labeledge[bt]
                if blossombase[bt] != t:
                    raise InternalError("blossom: a T-blossom entered off its base")
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    def stepped(delta: int, lbls: list[int]) -> tuple[list[int], dict[int, int]]:
        """The vertex and blossom duals after a dual step of delta."""
        ys = [
            y - delta if lbl == 1 else y + delta if lbl == 2 else y
            for y, lbl in zip(dualvar, lbls)
        ]
        zs = {}
        for b, z in blossomdual.items():
            if blossomparent[b] == -1:
                if label[b] == 1:
                    z += delta
                elif label[b] == 2:
                    z -= delta
            zs[b] = z
        return ys, zs

    def finish(ys: list[int], zs: dict[int, int], extra: int) -> tuple:
        """The matching with duals ys and zs, which must prove it
        optimal for the weights w + extra."""
        pairs = {(v, mate[v]) for v in range(n) if v < mate[v]}
        covered = {v for p in pairs for v in p}
        odd_sets = [(tuple(sorted(leaves(b))), 2 * z) for b, z in zs.items() if z]
        doubled = {e: 2 * (w + extra) for e, w in weights.items()}
        value = dual_objective(doubled, ys, odd_sets)
        weight = sum(weights[p] + extra for p in pairs)
        if len(covered) != 2 * len(pairs) or min(ys) < 0 or value != 2 * weight:
            raise InternalError("blossom: the final duals do not prove optimality")
        return pairs, ys, odd_sets

    _greedy_prefix(n, nbrs, maxweight, mate, dualvar)

    # the result for w when resuming under a shift, and the shift applied
    first = None
    extra = 0

    # Each stage tries to find one augmenting path.
    while 1:
        label[:] = zeros
        labeledge[:] = nones
        bestedge[:] = nones
        for b in blossomdual:
            mybestedges[b] = None
        allowedge.clear()
        queue.clear()

        for v in [v for v, u in enumerate(mate) if u == -1]:
            if label[inblossom[v]] == 0:
                assign_label(v, 1, None)

        augmented = 0
        while 1:
            while queue and (not augmented):
                v = queue.pop()
                if label[inblossom[v]] != 1:
                    raise InternalError("blossom: a queued vertex is not S")
                bv = inblossom[v]
                for w, w2 in nbrs[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    tight = (v, w) in allowedge
                    if not tight:
                        kslack = dualvar[v] + dualvar[w] - w2
                        if kslack <= 0:
                            allowedge.add((v, w))
                            allowedge.add((w, v))
                            tight = True
                    if tight:
                        lbw = label[bw]
                        if lbw == 0:
                            assign_label(w, 2, v)
                        elif lbw == 1:
                            base = scan_blossom(v, w)
                            if base != -1:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif label[w] == 0:
                            if lbw != 2:
                                raise InternalError("blossom: a tight edge into a non-T blossom")
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        e = bestedge[bv]
                        if e is None or kslack < dualvar[e[0]] + dualvar[e[1]] - e[2]:
                            bestedge[bv] = (v, w, w2)
                    elif label[w] == 0:
                        e = bestedge[w]
                        if e is None or kslack < dualvar[e[0]] + dualvar[e[1]] - e[2]:
                            bestedge[w] = (v, w, w2)
            if augmented:
                break

            # no augmenting path under the current duals: pick the
            # smallest dual step that changes the structure; a tie keeps
            # the first candidate, vertices before blossoms and blossoms
            # in creation order
            lbls = [label[b] for b in inblossom]
            deltatype = 1
            delta = max(0, min(dualvar))
            for v in range(n):
                e = bestedge[v]
                if e is not None and lbls[v] == 0:
                    d = dualvar[e[0]] + dualvar[e[1]] - e[2]
                    if d < delta:
                        delta, deltatype, deltaedge = d, 2, e
            for b in (*range(n), *blossomdual):
                e = bestedge[b]
                if e is not None and blossomparent[b] == -1 and label[b] == 1:
                    kslack = dualvar[e[0]] + dualvar[e[1]] - e[2]
                    if kslack % 2:
                        raise InternalError("blossom: odd slack on an S-S edge")
                    if kslack // 2 < delta:
                        delta, deltatype, deltaedge = kslack // 2, 3, e
            for b, z in blossomdual.items():
                if blossomparent[b] == -1 and label[b] == 2 and z < delta:
                    delta, deltatype, deltablossom = z, 4, b
            if deltatype == 1 and shift:
                # the run on w ends here: keep its result, then go on as
                # the run on w + S
                first = finish(*stepped(delta, lbls), 0)
                dualvar[:] = [y + shift for y in dualvar]
                s2 = 2 * shift
                nbrs[:] = [[(u, w2 + s2) for u, w2 in row] for row in nbrs]
                bestedge[:] = [e and (e[0], e[1], e[2] + s2) for e in bestedge]
                mybestedges[:] = [
                    es and [(i, j, w2 + s2) for i, j, w2 in es] for es in mybestedges
                ]
                extra, shift = shift, None
                continue
            dualvar[:], zs = stepped(delta, lbls)
            blossomdual.update(zs)

            if deltatype == 1:
                break
            elif deltatype == 2 or deltatype == 3:
                v, w, _ = deltaedge
                if label[inblossom[v]] != 1:
                    raise InternalError("blossom: a least-slack edge off S")
                allowedge.add((v, w))
                allowedge.add((w, v))
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        if any(mate[u] != v for v, u in enumerate(mate) if u != -1):
            raise InternalError("blossom: the matching is not symmetric")
        if not augmented:
            break

        # discard blossoms that no longer pay their way
        for b in list(blossomdual):
            if (
                b in blossomdual
                and blossomparent[b] == -1
                and label[b] == 1
                and blossomdual[b] == 0
            ):
                expand_blossom(b, True)

    last = finish(dualvar, blossomdual, extra)
    return last if first is None else (first, last)
