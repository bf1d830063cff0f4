"""Bitmask search kernels shared by the solvers and the verification scans.

Every search kernel is a plain Python function over ``int64`` numpy arrays
that reports its explored nodes (or states) next to its answer.

Graphs are encoded as one ``int64`` neighbour bitmask per vertex (bit ``j`` of
``adj[i]`` set iff ``ij`` is an edge), which caps kernel inputs at
``KERNEL_MAX_N`` = 62 vertices.  Labeled-graph enumeration walks an edge-mask
integer whose bit ``s`` is edge slot ``s``; slots order pairs ``(i, j)`` with
``i < j`` by ``s = j*(j-1)//2 + i``, the same column-major upper-triangle
order graph6 uses, so witness masks and graph6 strings agree bit for bit.

Every scan, exhaustive or sampled, works on blocks of graphs: it hands a
block of 64-bit edge words to ``words_to_adj``, plain numpy with one vector
operation per edge slot, filters the rows by their degrees in numpy, and
decides the rows it keeps with one of three plain-numpy block deciders, or
row by row.  ``hampath_rows`` runs the Hamilton-path subset programme
across the rows, and ``packable_rows`` runs the packing subset programme,
over the uncovered vertex sets reached by always covering the lowest
uncovered vertex with an r-clique; neither aborts.  The scans run the
packing search ``_pack_decide`` row by row instead, stopping at the first
row that hits the node cap, when the cap is below ``pack_node_bound`` (the
most nodes the search can use, so the programme would hide an abort) and
for n above 12, where the programme's state tables grow quickly.  The
third, ``colour_rows``, runs the equitable-colouring search
``_colour_decide`` across the rows, with its node counts and aborts; it
decides the colouring side of both mainthm1 cross-checks: the exhaustive
packing/colouring duality run, and, through ``colour_complements`` with an
expansion of its own, each sample.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np

KERNEL_MAX_N = 62
# always off: the kernels run as plain Python; the benchmark worker reads
# this flag to record which backend ran
NUMBA_ENABLED = False


def _pack_decide(adj, n, r, node_cap, cand, chosen, comm):
    """Exact search for a partition of all vertices into r-cliques.

    Branches on the lowest-index uncovered vertex and enumerates candidate
    cliques in lexicographic bitset order; each committed vertex counts as one
    search node.  ``cand``, ``chosen`` and ``comm`` are int64 work arrays of
    length n.  Returns ``(status, nodes)`` with status 1 = partition found
    (``chosen`` then holds it, block b at ``chosen[b*r:(b+1)*r]``), 0 = none
    exists, -1 = node cap hit.
    """
    if n == 0:
        return 1, 0
    full = (1 << n) - 1
    # root prune: an r-clique needs r-1 neighbours at every vertex
    for w in range(n):
        if int(adj[w]).bit_count() < r - 1:
            return 0, 0
    covered = 0
    nodes = 0
    level = 0
    cand[0] = 1
    while True:
        cm = int(cand[level])
        if cm == 0:
            level -= 1
            if level < 0:
                return 0, nodes
            covered &= ~(1 << int(chosen[level]))
            continue
        vb = cm & -cm
        cand[level] = cm - vb
        v = vb.bit_length() - 1
        nodes += 1
        if nodes > node_cap:
            return -1, nodes
        chosen[level] = v
        covered |= vb
        if level % r == 0:
            comm[level] = int(adj[v])
        else:
            comm[level] = int(comm[level - 1]) & int(adj[v])
        if level == n - 1:
            return 1, nodes
        nxt = level + 1
        unc = full & ~covered
        if nxt % r == 0:
            ok = True
            m = unc
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if (int(adj[w]) & unc).bit_count() < r - 1:
                    ok = False
                    break
            if not ok:
                covered &= ~vb
                continue
            cand[nxt] = unc & -unc
        else:
            cand[nxt] = int(comm[level]) & unc & ~((vb << 1) - 1)
        level = nxt


def _colour_decide(adj, n, k, node_cap, candc, chosen, classmask, classsize):
    """Exact search for an equitable proper k-colouring.

    Vertices are assigned in index order; a vertex may join any compatible
    occupied class or open the first empty one, classes ascending.  With
    ``q, s = divmod(n, k)`` a class may grow to q+1 only while fewer than s
    classes have done so, which forces every completed assignment to be
    equitable.  Work arrays: ``candc``/``chosen`` length n, ``classmask``/
    ``classsize`` length k.  Returns ``(status, nodes)``; on status 1,
    ``chosen[v]`` is the class of vertex v.
    """
    if n == 0:
        return 1, 0
    q = n // k
    s = n - q * k
    for c in range(k):
        classmask[c] = 0
        classsize[c] = 0
    nodes = 0
    nbig = 0
    used = 0
    level = 0
    candc[0] = 1
    while True:
        cm = int(candc[level])
        if cm == 0:
            level -= 1
            if level < 0:
                return 0, nodes
            c = int(chosen[level])
            classmask[c] &= ~(1 << level)
            classsize[c] -= 1
            if classsize[c] == q:
                nbig -= 1
            if classsize[c] == 0:
                used -= 1
            continue
        cb = cm & -cm
        candc[level] = cm - cb
        c = cb.bit_length() - 1
        nodes += 1
        if nodes > node_cap:
            return -1, nodes
        chosen[level] = c
        classmask[c] |= 1 << level
        classsize[c] += 1
        if classsize[c] == q + 1:
            nbig += 1
        if classsize[c] == 1:
            used += 1
        if level == n - 1:
            return 1, nodes
        v = level + 1
        av = int(adj[v])
        lim = used + 1 if used < k else k
        out = 0
        for cc in range(lim):
            nsz = int(classsize[cc]) + 1
            if nsz > q + 1:
                continue
            if nsz == q + 1 and nbig >= s:
                continue
            if av & int(classmask[cc]):
                continue
            out |= 1 << cc
        candc[v] = out
        level = v


def _hampath_decide(adj, n, dp):
    """Subset dynamic programme for Hamilton-path existence.

    ``dp`` is an int64 work array of size at least ``1 << n``; on return
    ``dp[mask]`` is the bitmask of vertices able to end a path spanning
    ``mask``.  Returns ``(found, states)`` where states counts processed
    (mask, endpoint) pairs.  Each vertex w outside a reachable ``mask`` is
    written once, when some endpoint is adjacent to it, rather than once
    per such endpoint.
    """
    full = (1 << n) - 1
    dp[: full + 1] = 0
    for v in range(n):
        dp[1 << v] = 1 << v
    states = 0
    for m in range(1, full + 1):
        ends = int(dp[m])
        if ends == 0:
            continue
        states += ends.bit_count()
        for w in range(n):
            wb = 1 << w
            if m & wb == 0 and ends & int(adj[w]):
                dp[m | wb] |= wb
    return (1 if int(dp[full]) != 0 else 0), states


def _hampath_extract(adj, n, dp, order):
    """Write one Hamilton path (lowest-vertex choices) into ``order``.

    Requires ``dp`` as filled by a successful ``_hampath_decide`` run.
    """
    full = (1 << n) - 1
    m = full
    ends = int(dp[m])
    if ends == 0:
        return 0
    v = (ends & -ends).bit_length() - 1
    i = n - 1
    while True:
        order[i] = v
        if i == 0:
            return 1
        m &= ~(1 << v)
        prevs = int(dp[m]) & int(adj[v])
        v = (prevs & -prevs).bit_length() - 1
        i -= 1


def _has_clique(adj, n, q, node_cap, cands, chosen):
    """Exact test for a clique on q vertices; returns (status, nodes)."""
    if q <= 0:
        return 1, 0
    if q == 1:
        return (1 if n >= 1 else 0), 0
    full = (1 << n) - 1
    cands[0] = full
    d = 0
    nodes = 0
    while True:
        cm = int(cands[d])
        if cm == 0:
            d -= 1
            if d < 0:
                return 0, nodes
            continue
        vb = cm & -cm
        cands[d] = cm - vb
        v = vb.bit_length() - 1
        nodes += 1
        if nodes > node_cap:
            return -1, nodes
        chosen[d] = v
        if d + 1 == q:
            return 1, nodes
        nx = (cm - vb) & int(adj[v])
        if nx.bit_count() < q - d - 1:
            continue
        d += 1
        cands[d] = nx


def words_to_adj(words, n, adjs):
    """Expand packed edge bits into per-vertex masks, one row per graph.

    Edge slot s reads bit ``s & 63`` of ``words[b, s >> 6]``; bits past the
    last slot are ignored.  Plain numpy: one vector operation per slot over
    all rows.
    """
    adjs[:] = 0
    s = 0
    for j in range(1, n):
        for i in range(j):
            bit = (words[:, s >> 6] >> (s & 63)) & 1
            adjs[:, i] |= bit << j
            adjs[:, j] |= bit << i
            s += 1
    return 0


def hampath_rows(adjs, n):
    """Hamilton-path existence for every row of ``adjs``, as a bool array.

    The subset programme of ``_hampath_decide`` run across the rows: subsets
    are taken layer by layer in order of popcount, and for each vertex w a
    path ending next to w on subset m extends to m | w.  Plain numpy, in
    sub-blocks of ``2^15 >> n`` rows so the (2^n, rows) table stays at
    256 KB: 512 KB sub-blocks raised the peak memory of the n = 6 scans by
    about 0.9 MB for no gain in speed there.
    """
    subsets = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(subsets)
    # (w, sources without w) per layer; the targets m | w lie one layer up
    layers = [
        [(w, layer[(layer >> w) & 1 == 0]) for w in range(n)]
        for layer in (subsets[sizes == k] for k in range(1, n))
    ]
    out = np.zeros(len(adjs), bool)
    step = max(1, (1 << 15) >> n)
    for lo in range(0, len(adjs), step):
        adj = adjs[lo : lo + step].T
        dp = np.zeros((1 << n, adj.shape[1]), np.int64)  # one row per subset
        for v in range(n):
            dp[1 << v] = 1 << v
        for layer in layers:
            for w, src in layer:
                dp[src | (1 << w)] |= ((dp[src] & adj[w]) != 0).astype(np.int64) << w
        out[lo : lo + adj.shape[1]] = dp[-1] != 0
    return out


@functools.lru_cache(maxsize=None)
def _pack_programme(n, r):
    """The packing subset programme for (n, r), r | n, as index arrays.

    Its states are the uncovered vertex sets reached from all n vertices by
    always covering the lowest uncovered vertex with an r-block, and a set
    is good when it is empty or some such block b is a clique and the set
    without b is good.  Returns ``(tail, head, block_slots, layers)``: edge
    slot s joins ``tail[s] < head[s]``; ``block_slots[b]`` lists the slots
    inside block b; ``layers``, for sets of r, 2r, ..., n vertices, hold
    each layer's (set, block) pairs grouped by set as ``(block, child,
    starts)``, where ``child`` indexes the layer below (one empty set below
    the first) and ``starts`` is each set's first pair.
    """
    pairs = [(i, j) for j in range(1, n) for i in range(j)]  # in slot order
    tail, head = np.array(pairs, np.int64).reshape(-1, 2).T
    blocks = {}  # vertex bits of a block -> its index
    block_slots = []
    layers = []
    states = [(1 << n) - 1]
    for _ in range(n // r):
        block, child, starts = [], [], []
        below = {}  # the layer below: set -> its index
        for unc in states:
            starts.append(len(block))
            v = (unc & -unc).bit_length() - 1
            rest = [w for w in range(v + 1, n) if unc >> w & 1]
            for mates in itertools.combinations(rest, r - 1):
                members = (v,) + mates
                bits = sum(1 << w for w in members)
                if bits not in blocks:
                    blocks[bits] = len(block_slots)
                    block_slots.append(
                        [j * (j - 1) // 2 + i for i, j in itertools.combinations(members, 2)]
                    )
                block.append(blocks[bits])
                child.append(below.setdefault(unc & ~bits, len(below)))
        layers.append(tuple(np.array(a, np.int64) for a in (block, child, starts)))
        states = list(below)
    block_slots = np.array(block_slots, np.int64).reshape(len(block_slots), r * (r - 1) // 2)
    for table in (tail, head, block_slots, *(a for layer in layers for a in layer)):
        table.flags.writeable = False  # cached and shared by every caller
    return tail, head, block_slots, tuple(layers[::-1])


def packable_rows(adjs, n, r):
    """Perfect r-clique packing existence for every row of ``adjs`` (r | n),
    as a bool array.

    The subset programme of ``_pack_programme`` run across the rows, layer
    by layer from the smallest sets: gathers of the block-clique and
    good-set columns, then ``np.logical_or.reduceat`` over each set's
    pairs.  Plain numpy, in sub-blocks of rows sized so that no temporary
    (the int64 edge-bit test included) exceeds 256 KB.
    """
    tail, head, block_slots, layers = _pack_programme(n, r)
    row_bytes = max([8 * len(tail), len(block_slots)] + [len(lay[0]) for lay in layers])
    step = max(1, (1 << 18) // row_bytes)
    out = np.zeros(len(adjs), bool)
    for lo in range(0, len(adjs), step):
        adj = adjs[lo : lo + step]
        edge = ((adj[:, tail] >> head) & 1).astype(bool)
        clique = np.ones((len(adj), len(block_slots)), bool)
        for slots in block_slots.T:
            clique &= edge[:, slots]
        good = np.ones((len(adj), 1), bool)  # the empty set
        for block, child, starts in layers:
            good = np.logical_or.reduceat(clique[:, block] & good[:, child], starts, axis=1)
        out[lo : lo + len(adj)] = good[:, 0]
    return out


def colour_rows(adjs, n, k, node_cap):
    """``_colour_decide`` on every row of ``adjs``: returns its statuses and
    node counts as two int64 arrays, so a row stops at the same node.

    The rows run the search in lockstep, one step of its loop per pass: a
    row with a class left for the vertex at its level puts the vertex in the
    lowest one and lists the classes open to the next vertex; a row with none
    left takes the vertex one level up out of its class.  Rows that finish
    drop out.  Plain numpy, in sub-blocks of ``2^15 // n`` rows so each
    (rows, n) table stays at 256 KB.
    """
    status = np.ones(len(adjs), np.int64)  # n = 0 is coloured at once
    nodes = np.zeros(len(adjs), np.int64)
    q, s = divmod(n, k)
    classes = np.arange(k, dtype=np.int64)
    step = max(1, (1 << 15) // max(n, 1))
    for lo in range(0, len(adjs) if n else 0, step):
        rows = np.arange(lo, min(lo + step, len(adjs)))  # where each live row reports
        candc = np.zeros((len(rows), n), np.int64)
        candc[:, 0] = 1
        chosen = np.zeros_like(candc)
        classmask = np.zeros((len(rows), k), np.int64)
        classsize = np.zeros_like(classmask)
        level, count = np.zeros((2, len(rows)), np.int64)
        at = np.arange(len(rows))
        while len(rows):
            cm = candc[at, level]
            fwd = cm != 0
            cb = cm & -cm
            candc[at, level] = cm - cb
            sign = fwd * 2 - 1
            u = level - ~fwd  # the vertex that joins (forward) or leaves (back) a class
            c = np.where(fwd, np.bitwise_count(cb - 1), chosen[at, u])
            chosen[at, u] = c
            classmask[at, c] ^= 1 << u  # a shift by -1 (leaving level 0) is 0
            classsize[at, c] += sign
            count += fwd
            level += sign
            # the classes open to vertex v: a used class or the first empty
            # one, below q + 1 vertices (q once s classes have q + 1), and
            # holding no neighbour of v.  For a row that stepped back, v is
            # the level it left, which it lists again before it returns.
            v = np.minimum(u + 1, n - 1)
            open_ = (
                (classes <= (classsize > 0).sum(axis=1, keepdims=True))
                & (classsize < q + ((classsize > q).sum(axis=1, keepdims=True) < s))
                & (adjs[rows, v, None] & classmask == 0)
            )
            candc[at, v] = (open_ << classes).sum(axis=1)
            over = count > node_cap
            done = over | (level == n) | (level < 0)
            if done.any():
                status[rows[done]] = np.where(over, -1, level == n)[done]
                nodes[rows[done]] = count[done]
                keep = ~done  # one table at a time, so each old one is freed at once
                rows, level, count = rows[keep], level[keep], count[keep]
                candc = candc[keep]
                chosen = chosen[keep]
                classmask = classmask[keep]
                classsize = classsize[keep]
                at = np.arange(len(rows))
    return status, nodes


def complement_adjs(masks, n):
    """Neighbour masks of the complement of each edge mask's graph (Python
    ints), one row each, by an expansion that shares no code with
    ``words_to_adj``: the mask bytes are unpacked into a (rows, n, n)
    boolean adjacency matrix, complemented with the diagonal cleared and
    packed back into bits."""
    j, i = np.tril_indices(n, -1)  # edge slot s joins i < j, in slot order
    width = (len(i) + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    edge = np.unpackbits(
        raw.reshape(len(masks), width), axis=1, count=len(i), bitorder="little"
    ).view(bool)
    mat = np.ones((len(masks), n, n), bool)
    mat[:, i, j] = mat[:, j, i] = ~edge
    mat[:, range(n), range(n)] = False
    words = np.zeros((len(masks), n, 8), np.uint8)
    words[..., : (n + 7) // 8] = np.packbits(mat, axis=2, bitorder="little")
    return words.view("<i8")[..., 0]


def colour_complements(masks, n, k, node_cap):
    """``colour_rows`` statuses for the complement of each edge mask's graph
    (Python ints), in order, up to and including the first that hits the
    node cap, as a list.  The complements come from ``complement_adjs``, in
    sub-blocks sized so its matrix and masks stay at 256 KB."""
    step = max(1, (1 << 18) // (n * max(n, 8)))
    out = []
    for lo in range(0, len(masks), step):
        out += colour_rows(complement_adjs(masks[lo : lo + step], n), n, k, node_cap)[0].tolist()
        if -1 in out:
            return out[: out.index(-1) + 1]
    return out


def pack_node_bound(n, r):
    """The most search nodes ``_pack_decide`` can use on any n-vertex graph
    (r | n): the size of its unpruned search tree, where a block's first
    vertex is forced and its other r - 1 are increasing choices among the
    u - 1 uncovered vertices after it.  A node cap of at least this never
    aborts the search."""
    f = 0  # f(0)
    for u in range(r, n + 1, r):
        f = 1 + sum(comb(u - 1, j) for j in range(1, r)) + comb(u - 1, r - 1) * f
    return f


def pack_work_arrays(n: int):
    """Allocate the three int64 work arrays the packing search needs."""
    return tuple(np.zeros(max(n, 1), np.int64) for _ in range(3))
