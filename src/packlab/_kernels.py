"""Bitmask search kernels shared by the solvers and the verification scans.

The per-graph searches are plain Python functions over a sequence of
Python-int neighbour masks; each keeps its state in local lists and returns
its explored nodes (or states) next to its answer.  The block deciders are
plain numpy over rows of ``int64`` neighbour masks.

Graphs are encoded as one neighbour bitmask per vertex (bit ``j`` of
``adj[i]`` set iff ``ij`` is an edge); the ``int64`` rows cap kernel inputs
at ``KERNEL_MAX_N`` = 62 vertices, and the solvers keep that cap.
Labeled-graph enumeration walks an edge-mask integer whose bit ``s`` is
edge slot ``s``; ``slot_ends`` orders pairs ``(i, j)`` with ``i < j`` by
``s = j*(j-1)//2 + i``, the same column-major upper-triangle order graph6
uses, so witness masks and graph6 strings agree bit for bit.

Every scan, exhaustive or sampled, works on blocks of graphs: it hands a
block of 64-bit edge words to ``words_to_adj``, plain numpy with one table
lookup per edge byte (one vector operation per edge slot past n = 16),
filters the rows by their degrees in numpy, and decides the rows it keeps
with one of three plain-numpy block deciders, or row by row.
``hampath_rows`` runs the Hamilton-path subset programme across the rows,
and ``packable_rows`` runs the packing subset programme, over the uncovered
vertex sets reached by always covering the lowest uncovered vertex with an
r-clique; neither aborts.  The scans run the packing search
``_pack_decide`` row by row instead, stopping at the first row that hits
the node cap, when the cap is below ``pack_node_bound`` (the most nodes the
search can use, so the programme would hide an abort) and for n above 12,
where the programme's state tables grow quickly.  The third,
``colour_rows``, runs the equitable-colouring search ``_colour_decide``
across the rows, one search node per pass, with its node counts and aborts;
the mainthm1 check runs it on the complements of the rows it packs, in the
same block, as a second decider that must agree row by row.

The two subset programmes are bit-sliced: a sub-block of rows is unpacked
to edge bits (``_mask_bits``) and packed 64 graphs per ``uint64`` word
(``_to_bits``), graph i of the sub-block as bit ``i % 64`` of word
``i // 64``, so each table cell is one row of words and one numpy AND or
OR decides 64 graphs.  The last word's padding bits never reach a result:
``_from_bits`` unpacks only the sub-block's rows.  Sub-blocks are whole
words, sized (``_sub_block_rows``) so that the unpacked mask bits and the
widest programme table each stay at 256 KB.
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


def _pack_decide(adj, n, r, node_cap):
    """Exact search for a partition of all vertices into r-cliques.

    Branches on the lowest-index uncovered vertex and enumerates candidate
    cliques in lexicographic bitset order; each committed vertex counts as one
    search node.  Returns ``(status, nodes, chosen)`` with status 1 =
    partition found (block b at ``chosen[b*r:(b+1)*r]``), 0 = none exists,
    -1 = node cap hit.
    """
    cand, chosen, comm = [0] * n, [0] * n, [0] * n
    if n == 0:
        return 1, 0, chosen
    # root prune: an r-clique needs r-1 neighbours at every vertex
    if any(a.bit_count() < r - 1 for a in adj):
        return 0, 0, chosen
    full = (1 << n) - 1
    covered = 0
    nodes = 0
    level = 0
    cand[0] = 1
    while True:
        cm = cand[level]
        if cm == 0:
            level -= 1
            if level < 0:
                return 0, nodes, chosen
            covered &= ~(1 << chosen[level])
            continue
        vb = cm & -cm
        cand[level] = cm - vb
        v = vb.bit_length() - 1
        nodes += 1
        if nodes > node_cap:
            return -1, nodes, chosen
        chosen[level] = v
        covered |= vb
        comm[level] = adj[v] if level % r == 0 else comm[level - 1] & adj[v]
        if level == n - 1:
            return 1, nodes, chosen
        nxt = level + 1
        unc = full & ~covered
        if nxt % r == 0:
            ok = True
            m = unc
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if (adj[w] & unc).bit_count() < r - 1:
                    ok = False
                    break
            if not ok:
                covered &= ~vb
                continue
            cand[nxt] = unc & -unc
        else:
            cand[nxt] = comm[level] & unc & ~((vb << 1) - 1)
        level = nxt


def _colour_decide(adj, n, k, node_cap):
    """Exact search for an equitable proper k-colouring.

    Vertices are assigned in index order; a vertex may join any compatible
    occupied class or open the first empty one, classes ascending.  With
    ``q, s = divmod(n, k)`` a class may grow to q+1 only while fewer than s
    classes have done so, which forces every completed assignment to be
    equitable.  Returns ``(status, nodes, chosen)``; on status 1,
    ``chosen[v]`` is the class of vertex v.
    """
    candc, chosen = [0] * n, [0] * n
    if n == 0:
        return 1, 0, chosen
    q, s = divmod(n, k)
    classmask, classsize = [0] * k, [0] * k
    nodes = 0
    nbig = 0
    used = 0
    level = 0
    candc[0] = 1
    while True:
        cm = candc[level]
        if cm == 0:
            level -= 1
            if level < 0:
                return 0, nodes, chosen
            c = chosen[level]
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
            return -1, nodes, chosen
        chosen[level] = c
        classmask[c] |= 1 << level
        classsize[c] += 1
        if classsize[c] == q + 1:
            nbig += 1
        if classsize[c] == 1:
            used += 1
        if level == n - 1:
            return 1, nodes, chosen
        v = level + 1
        av = adj[v]
        out = 0
        for cc in range(min(used + 1, k)):
            nsz = classsize[cc] + 1
            if nsz > q + 1 or (nsz == q + 1 and nbig >= s) or av & classmask[cc]:
                continue
            out |= 1 << cc
        candc[v] = out
        level = v


def _hampath_decide(adj, n):
    """Subset dynamic programme for Hamilton-path existence.

    Returns ``(found, states, dp)``: ``dp[mask]`` is the bitmask of vertices
    able to end a path spanning ``mask``, and states counts processed
    (mask, endpoint) pairs.  Each vertex w outside a reachable ``mask`` is
    written once, when some endpoint is adjacent to it, rather than once
    per such endpoint.
    """
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for v in range(n):
        dp[1 << v] = 1 << v
    states = 0
    for m in range(1, full + 1):
        ends = dp[m]
        if ends == 0:
            continue
        states += ends.bit_count()
        for w in range(n):
            wb = 1 << w
            if m & wb == 0 and ends & adj[w]:
                dp[m | wb] |= wb
    return (1 if dp[full] else 0), states, dp


def _hampath_extract(adj, n, dp):
    """One Hamilton path (lowest-vertex choices) as a vertex list, from the
    ``dp`` of a successful ``_hampath_decide`` run."""
    m = (1 << n) - 1
    order = [0] * n
    ends = dp[m]
    for i in range(n - 1, -1, -1):
        v = (ends & -ends).bit_length() - 1
        order[i] = v
        m &= ~(1 << v)
        ends = dp[m] & adj[v]
    return order


def _has_clique(adj, n, q, node_cap):
    """Exact test for a clique on q vertices; returns (status, nodes)."""
    if q <= 0:
        return 1, 0
    if q == 1:
        return (1 if n >= 1 else 0), 0
    cands = [0] * q
    cands[0] = (1 << n) - 1
    d = 0
    nodes = 0
    while True:
        cm = cands[d]
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
        if d + 1 == q:
            return 1, nodes
        nx = (cm - vb) & adj[v]
        if nx.bit_count() < q - d - 1:
            continue
        d += 1
        cands[d] = nx


@functools.lru_cache(maxsize=None)
def slot_ends(n):
    """The ends ``(i, j)``, ``i < j``, of each edge slot, in slot order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _slot_adj(words, n):
    """``words_to_adj`` by one vector operation per edge slot, on rows of
    ``int64`` edge words."""
    adjs = np.zeros((len(words), n), np.int64)
    for s, (i, j) in enumerate(slot_ends(n)):
        bit = (words[:, s >> 6] >> (s & 63)) & 1
        adjs[:, i] |= bit << j
        adjs[:, j] |= bit << i
    return adjs


@functools.lru_cache(maxsize=None)
def _byte_tables(n):
    """The neighbour masks that each value of each edge byte sets, as a
    (bytes, 256, n) ``uint16`` array (n <= 16): ``[b, x, v]`` holds v's
    neighbours among the edge slots ``8b .. 8b + 7`` whose bits are set in
    x.  Row x of table b is the slot loop's expansion of a row whose only
    byte b is x."""
    nbytes = (comb(n, 2) + 7) // 8
    b, x = np.divmod(np.arange(nbytes * 256, dtype=np.int64), 256)
    words = np.zeros((len(b), (comb(n, 2) + 63) // 64), np.int64)
    words[np.arange(len(b)), b >> 3] = x << (b & 7) * 8  # wraps into the sign bit
    tables = _slot_adj(words, n).astype(np.uint16).reshape(nbytes, 256, n)
    tables.flags.writeable = False  # cached and shared by every caller
    return tables


def words_to_adj(words, n):
    """Neighbour masks, one int64 row per graph, from rows of unsigned
    64-bit edge words.

    Edge slot s reads bit ``s & 63`` of word ``s >> 6`` of its row; bits
    past the last slot are ignored.  Plain numpy: each row's edge bytes
    index the cached ``_byte_tables``, one table lookup and OR per byte over
    all rows, in 16 bits.  Past n = 16 the masks need 32 bits and the tables
    would pass 256 KB (289 KB at n = 17), and ``_slot_adj`` takes one vector
    operation per edge slot instead.
    """
    words = np.asarray(words, np.uint64).reshape(len(words), (comb(n, 2) + 63) // 64)
    if n > 16:
        return _slot_adj(words.view(np.int64), n)
    tables = _byte_tables(n)
    octets = words.astype("<u8", copy=False).view(np.uint8)  # byte b: slots 8b .. 8b + 7
    adjs = np.zeros((len(words), n), np.uint16)
    for b in range(len(tables)):
        adjs |= tables[b].take(octets[:, b], axis=0)
    return adjs.astype(np.int64)


def _to_bits(mat):
    """A (rows, ...) bool array as (..., words) ``uint64`` words: row i
    becomes bit ``i % 64`` of word ``i // 64``, and the padding bits of the
    last word are 0."""
    padded = np.zeros(mat.shape[1:] + (-(-len(mat) // 64) * 64,), bool)
    padded[..., : len(mat)] = np.moveaxis(mat, 0, -1)  # packing a contiguous axis is 4x faster
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def _from_bits(words, rows):
    """The first ``rows`` bits of one contiguous row of words, as a bool
    array."""
    return np.unpackbits(words.view(np.uint8), count=rows, bitorder="little").view(bool)


def _mask_width(n):
    """Bits per neighbour mask when unpacked: 8, 16, 32 or 64."""
    return 8 << max(0, (n - 1).bit_length() - 3)


def _mask_bits(adj, n):
    """Rows of neighbour masks unpacked as a (rows, n, ``_mask_width(n)``)
    bool array: ``[i, v, w]`` is set iff vw is an edge of graph i."""
    width = _mask_width(n)
    masks = np.ascontiguousarray(adj, f"<u{width // 8}").view(np.uint8)
    return np.unpackbits(masks, axis=1, bitorder="little").view(bool).reshape(len(adj), n, width)


def _sub_block_rows(n, row_bytes):
    """Rows per sub-block: whole words, sized so that the unpacked mask bits
    and a table of ``row_bytes`` bytes per row both stay at 256 KB, or one
    word when a single word is larger."""
    return max(64, (1 << 18) // max(n * _mask_width(n), row_bytes) // 64 * 64)


def hampath_rows(adjs, n):
    """Hamilton-path existence for every row of ``adjs``, as a bool array.

    The subset programme of ``_hampath_decide`` run across the rows,
    bit-sliced: graph i of a sub-block is bit ``i % 64`` of word ``i // 64``
    of every table cell.  ``edge[v, w]`` holds the rows' vw edge bits, and
    ``dp[m, v]`` has a row's bit set when some path over subset m ends at v.
    Subsets are taken layer by layer in order of popcount; for each vertex
    w, ``dp[m | w, w]`` is the OR over v of ``dp[m, v] & edge[v, w]``.
    Plain numpy, in sub-blocks of whole words (``_sub_block_rows``) that
    keep the (2^n, n, words) table and the unpacked mask bits at 256 KB;
    from n = 12 one word's table is already larger.
    """
    subsets = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(subsets)
    # (w, sources without w) per layer; the targets m | w lie one layer up
    layers = [
        [(w, layer[(layer >> w) & 1 == 0]) for w in range(n)]
        for layer in (subsets[sizes == k] for k in range(1, n))
    ]
    out = np.zeros(len(adjs), bool)
    step = _sub_block_rows(n, n << n >> 3)
    for lo in range(0, len(adjs), step):
        rows = adjs[lo : lo + step]
        edge = _to_bits(_mask_bits(rows, n)[:, :, :n])  # (n, n, words)
        dp = np.zeros((1 << n, n, edge.shape[2]), np.uint64)
        for v in range(n):
            dp[1 << v, v] = ~np.uint64(0)
        for layer in layers:
            for w, src in layer:
                dp[src | (1 << w), w] = np.bitwise_or.reduce(dp[src] & edge[:, w], axis=1)
        out[lo : lo + len(rows)] = _from_bits(np.bitwise_or.reduce(dp[-1], axis=0), len(rows))
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
    tail, head = np.array(slot_ends(n), np.int64).reshape(-1, 2).T
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

    The subset programme of ``_pack_programme`` run across the rows,
    bit-sliced: graph i of a sub-block is bit ``i % 64`` of word ``i // 64``
    of every table cell.  Each edge slot becomes one row of words,
    ``clique[b]`` is the AND of block b's slot rows, and each layer, from
    the smallest sets, ORs ``clique[block] & good[child]`` over each set's
    pairs with ``np.bitwise_or.reduceat``.  Plain numpy, in sub-blocks of
    whole words (``_sub_block_rows``) that keep the unpacked mask bits and
    the widest (set, block) table at 256 KB.
    """
    tail, head, block_slots, layers = _pack_programme(n, r)
    step = _sub_block_rows(n, max([len(block_slots)] + [len(lay[0]) for lay in layers]) >> 3)
    out = np.zeros(len(adjs), bool)
    for lo in range(0, len(adjs), step):
        rows = adjs[lo : lo + step]
        edge = _to_bits(_mask_bits(rows, n)[:, tail, head])  # (slots, words)
        clique = np.full((len(block_slots), edge.shape[1]), ~np.uint64(0))
        for slots in block_slots.T:
            clique &= edge[slots]
        good = np.full((1, edge.shape[1]), ~np.uint64(0))  # the empty set
        for block, child, starts in layers:
            good = np.bitwise_or.reduceat(clique[block] & good[child], starts, axis=0)
        out[lo : lo + len(rows)] = _from_bits(good[0], len(rows))
    return out


def colour_rows(adjs, n, k, node_cap):
    """``_colour_decide`` on every row of ``adjs``: returns its statuses and
    node counts as two int64 arrays, so a row stops at the same node.

    The rows run the search in lockstep, one search node per pass, so every
    live row has made as many nodes as there were passes.  Levels are kept
    by depth p = n - 1 - level: ``left`` has bit p set while level n - 1 - p
    still has a class left, and a row's levels above its own have none, so
    its lowest bit is the deepest level it can go on from.  A pass takes
    each row there, clears the vertices it steps back over from
    ``classmask`` with one AND (back steps count no nodes), puts that
    level's vertex in its lowest class left, and lists the classes open to
    the next vertex from the class sizes, the popcounts of ``classmask``.  A
    row finishes when it colours the last vertex or has no level left.
    Plain numpy over (levels or classes, rows) tables, in sub-blocks of
    ``2^15 // (n + 1)`` rows so each stays at 256 KB.
    """
    status = np.ones(len(adjs), np.int64)  # n = 0 is coloured at once
    nodes = np.zeros(len(adjs), np.int64)
    q, s = divmod(n, k)
    classes = np.arange(k, dtype=np.int64)[:, None]
    vbits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)  # the vertex at each depth
    flat = adjs.reshape(-1)
    step = (1 << 15) // (n + 1)
    for lo in range(0, len(adjs) if n else 0, step):
        rows = np.arange(lo, min(lo + step, len(adjs)))  # where each live row reports
        after = rows * n + n  # in ``flat``, one past each row's last vertex
        candc = np.zeros((n + 1, len(rows)), np.int64)  # classes left at depth p in p + 1
        candc[n] = 1
        classmask = np.zeros((k, len(rows)), np.int64)
        left = np.full(len(rows), 1 << (n - 1), np.int64)
        at = np.arange(len(rows))
        count = 0
        while len(rows):
            if count >= node_cap:
                status[rows], nodes[rows] = -1, count + 1
                break
            count += 1
            low = left & -left
            p = np.bitwise_count(low - 1)
            vb = vbits.take(p)
            classmask &= vb - 1
            cm = candc[p + 1, at]
            cb = cm & -cm
            candc[p + 1, at] = cm ^ cb
            left ^= low * (cm == cb)
            classmask[np.bitwise_count(cb - 1), at] |= vb
            # the classes open to the next vertex: a used class or the first
            # empty one, below q + 1 vertices (q once s classes have q + 1),
            # and holding no neighbour of it.  A row that coloured the last
            # vertex (p = 0) lists garbage in row 0 of ``candc`` and stops.
            sizes = np.bitwise_count(classmask)
            most = q + ((sizes > q).sum(axis=0) < s) if s else q
            open_ = (
                (classes <= (sizes > 0).sum(axis=0))
                & (sizes < most)
                & (flat.take(after - p, mode="clip") & classmask == 0)
            )
            cv = (open_ << classes).sum(axis=0)
            candc[p, at] = cv
            left |= (low >> 1) * (cv != 0)
            done = np.minimum(p, left) == 0  # coloured, or no level left
            if done.any():
                status[rows[done]] = p[done] == 0
                nodes[rows[done]] = count
                keep = ~done  # one table at a time, so each old one is freed at once
                rows, after, left = rows[keep], after[keep], left[keep]
                candc = candc[:, keep]
                classmask = classmask[:, keep]
                at = np.arange(len(rows))
    return status, nodes


@functools.lru_cache(maxsize=None)
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

