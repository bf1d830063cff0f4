"""Bitmask search kernels shared by the solvers and the verification scans.

Every search kernel is written once as a plain Python function over ``int64``
numpy arrays and wrapped with ``numba.njit`` when compilation is available.
Setting ``PACKLAB_NO_NUMBA=1`` (or failing to import numba) selects the
uncompiled pure-Python path; both paths run the identical code, so node
counts, witness masks and reports are bit-for-bit the same.  ``pure(fn)``
returns the uncompiled version of a kernel, which the benchmark uses to time
both paths.

Graphs are encoded as one ``int64`` neighbour bitmask per vertex (bit ``j`` of
``adj[i]`` set iff ``ij`` is an edge), which caps kernel inputs at
``KERNEL_MAX_N`` = 62 vertices.  Labeled-graph enumeration walks an edge-mask
integer whose bit ``s`` is edge slot ``s``; slots order pairs ``(i, j)`` with
``i < j`` by ``s = j*(j-1)//2 + i``, the same column-major upper-triangle
order graph6 uses, so witness masks and graph6 strings agree bit for bit.

Two expanders turn edge slots into neighbour masks.  The exhaustive scans
expand one mask at a time inside the kernel with ``_adj_from_mask``, so a
chunk of masks never exists as an array.  Both samplers hand a batch of
64-bit edge words to ``words_to_adj``, plain numpy with one vector operation
per edge slot, and decide the rows with ``batch_packable``.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

KERNEL_MAX_N = 62

_DISABLE = os.environ.get("PACKLAB_NO_NUMBA", "").strip().lower() in {
    "1",
    "true",
    "yes",
    "on",
}

if _DISABLE:
    NUMBA_ENABLED = False
else:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - exercised only without numba
        warnings.warn(
            "numba is not importable; using pure-Python kernels",
            RuntimeWarning,
            stacklevel=2,
        )
        NUMBA_ENABLED = False


def _jit(fn):
    if NUMBA_ENABLED:
        return njit(cache=True, nogil=True)(fn)
    return fn


def pure(fn):
    """Return the uncompiled twin of a kernel (identity when numba is off)."""
    return getattr(fn, "py_func", fn)


@_jit
def _bit_count(m):
    c = 0
    while m:
        m &= m - 1
        c += 1
    return c


@_jit
def _low_bit_index(m):
    # pre: m != 0
    i = 0
    while (m >> i) & 1 == 0:
        i += 1
    return i


@_jit
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
        if _bit_count(int(adj[w])) < r - 1:
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
        v = _low_bit_index(vb)
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
                w = _low_bit_index(m & -m)
                m &= m - 1
                if _bit_count(int(adj[w]) & unc) < r - 1:
                    ok = False
                    break
            if not ok:
                covered &= ~vb
                continue
            cand[nxt] = unc & -unc
        else:
            cand[nxt] = int(comm[level]) & unc & ~((vb << 1) - 1)
        level = nxt


@_jit
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
        c = _low_bit_index(cb)
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


@_jit
def _hampath_decide(adj, n, dp):
    """Subset dynamic programme for Hamilton-path existence.

    ``dp`` is an int64 work array of size at least ``1 << n``; on return
    ``dp[mask]`` is the bitmask of vertices able to end a path spanning
    ``mask``.  Returns ``(found, states)`` where states counts processed
    (mask, endpoint) pairs.
    """
    full = (1 << n) - 1
    for m in range(full + 1):
        dp[m] = 0
    for v in range(n):
        dp[1 << v] = 1 << v
    states = 0
    for m in range(1, full + 1):
        ends = int(dp[m])
        if ends == 0:
            continue
        e = ends
        while e:
            v = _low_bit_index(e & -e)
            e &= e - 1
            states += 1
            ext = int(adj[v]) & (full & ~m)
            while ext:
                wb = ext & -ext
                ext -= wb
                dp[m | wb] |= wb
    return (1 if int(dp[full]) != 0 else 0), states


@_jit
def _hampath_extract(adj, n, dp, order):
    """Write one Hamilton path (lowest-vertex choices) into ``order``.

    Requires ``dp`` as filled by a successful ``_hampath_decide`` run.
    """
    full = (1 << n) - 1
    m = full
    ends = int(dp[m])
    if ends == 0:
        return 0
    v = _low_bit_index(ends & -ends)
    i = n - 1
    while True:
        order[i] = v
        if i == 0:
            return 1
        m &= ~(1 << v)
        prevs = int(dp[m]) & int(adj[v])
        v = _low_bit_index(prevs & -prevs)
        i -= 1


@_jit
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
        v = _low_bit_index(vb)
        nodes += 1
        if nodes > node_cap:
            return -1, nodes
        chosen[d] = v
        if d + 1 == q:
            return 1, nodes
        nx = (cm - vb) & int(adj[v])
        if _bit_count(nx) < q - d - 1:
            continue
        d += 1
        cands[d] = nx


@_jit
def _adj_from_mask(mask, n, adj):
    for i in range(n):
        adj[i] = 0
    s = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> s) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            s += 1
    return 0


@_jit
def _sorted_degrees(adj, n, degs):
    """Degrees of ``adj`` into ``degs``, ascending (insertion sort)."""
    for i in range(n):
        degs[i] = _bit_count(int(adj[i]))
    for i in range(1, n):
        key = int(degs[i])
        j = i - 1
        while j >= 0 and int(degs[j]) > key:
            degs[j + 1] = degs[j]
            j -= 1
        degs[j + 1] = key
    return 0


@_jit
def scan_pack_threshold(n, r, d_lo, d_hi, g_val, flip, lo, hi, node_cap,
                        adj, cand, chosen, comm,
                        found_any, max_e, arg_mask, viol):
    """Exhaustive packing-threshold scan over edge masks in [lo, hi).

    Each mask is expanded as ``mask ^ flip``: ``flip = 0`` decides the graph
    itself, ``flip`` = all C(n,2) slot bits decides its complement (the
    colouring side, by complement packing).  Families are "min degree >= D"
    for D in d_lo..d_hi of the decided graph; per D the kernel tracks the
    maximum edge count among its non-packable members (first mask wins ties)
    in ``found_any``/``max_e``/``arg_mask`` and flags members exceeding
    ``g_val[D]`` edges as violations.  Recorded masks are the enumerated
    ones, before the flip.  Returns (examined, nviol, aborted).
    """
    examined = 0
    nviol = 0
    for mask in range(lo, hi):
        _adj_from_mask(mask ^ flip, n, adj)
        mindeg = n
        e = 0
        for i in range(n):
            dg = _bit_count(int(adj[i]))
            e += dg
            if dg < mindeg:
                mindeg = dg
        e //= 2
        examined += 1
        if mindeg < d_lo:
            continue
        st, _ = _pack_decide(adj, n, r, node_cap, cand, chosen, comm)
        if st == -1:
            return examined, nviol, 1
        if st == 1:
            continue
        dtop = mindeg if mindeg < d_hi else d_hi
        bad = False
        for dd in range(d_lo, dtop + 1):
            if int(found_any[dd]) == 0 or e > int(max_e[dd]):
                found_any[dd] = 1
                max_e[dd] = e
                arg_mask[dd] = mask
            if e > int(g_val[dd]):
                bad = True
        if bad:
            if nviol < viol.shape[0]:
                viol[nviol] = mask
            nviol += 1
    return examined, nviol, 0


@_jit
def scan_chvatal(n, lo, hi, adj, dp, degs, viol):
    """Scan edge masks in [lo, hi) for the Hamilton-path degree condition.

    Condition (ascending degrees, 1-based): for every 1 <= i <= n/2,
    d_i >= i or d_{n-i+1} >= n-i.  Every condition-true graph gets an exact
    Hamilton-path decision; graphs with no path are violations.
    Returns (examined, cond_true, nviol).
    """
    examined = 0
    cond_true = 0
    nviol = 0
    for mask in range(lo, hi):
        _adj_from_mask(mask, n, adj)
        _sorted_degrees(adj, n, degs)
        examined += 1
        ok = True
        for i in range(1, n // 2 + 1):
            if int(degs[i - 1]) < i and int(degs[n - i]) < n - i:
                ok = False
                break
        if not ok:
            continue
        cond_true += 1
        found, _ = _hampath_decide(adj, n, dp)
        if found == 0:
            if nviol < viol.shape[0]:
                viol[nviol] = mask
            nviol += 1
    return examined, cond_true, nviol


@_jit
def scan_degree_condition(n, r, variant, lo, hi, node_cap,
                          adj, cand, chosen, comm, degs, viol):
    """Scan edge masks for a packing degree condition and test packability.

    variant 0 (banded): d_i >= (r-2)n/r + i for all 1 <= i < n/r, and
    d_{n/r+1} >= (r-1)n/r.  variant 1 (disjunctive): for all 1 <= i <= n/r,
    d_i >= (r-2)n/r + i or d_{n-i(r-1)+1} >= n - i.  Condition-true graphs
    with no perfect r-clique packing are violations.
    Returns (examined, cond_true, nviol, aborted).
    """
    q = n // r
    examined = 0
    cond_true = 0
    nviol = 0
    for mask in range(lo, hi):
        _adj_from_mask(mask, n, adj)
        _sorted_degrees(adj, n, degs)
        examined += 1
        ok = True
        if variant == 0:
            for i in range(1, q):
                if int(degs[i - 1]) < (r - 2) * q + i:
                    ok = False
                    break
            if ok and int(degs[q]) < (r - 1) * q:
                ok = False
        else:
            for i in range(1, q + 1):
                if int(degs[i - 1]) < (r - 2) * q + i and int(degs[n - i * (r - 1)]) < n - i:
                    ok = False
                    break
        if not ok:
            continue
        cond_true += 1
        st, _ = _pack_decide(adj, n, r, node_cap, cand, chosen, comm)
        if st == -1:
            return examined, cond_true, nviol, 1
        if st == 0:
            if nviol < viol.shape[0]:
                viol[nviol] = mask
            nviol += 1
    return examined, cond_true, nviol, 0


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


@_jit
def batch_packable(adjs, n, r, node_cap, cand, chosen, comm, out):
    """Exact packing decision per row of ``adjs``; out[b] in {1, 0, -1}.

    Returns 1 if any row aborted on the node cap, else 0.
    """
    nb = adjs.shape[0]
    for b in range(nb):
        st, _ = _pack_decide(adjs[b], n, r, node_cap, cand, chosen, comm)
        out[b] = st
        if st == -1:
            return 1
    return 0


def pack_work_arrays(n: int):
    """Allocate the three int64 work arrays the packing search needs."""
    return tuple(np.zeros(max(n, 1), np.int64) for _ in range(3))
