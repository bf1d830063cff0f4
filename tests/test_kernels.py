"""JIT kernels against their pure-Python originals and against brute force.

Every compiled kernel must agree with its uncompiled ``py_func`` bit for bit,
including explored-node counts, so the accelerated and fallback paths are
interchangeable.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from packlab import Graph, _kernels as K
from oracles import (
    has_clique_brute,
    has_equitable_colouring_brute,
    has_hamilton_path_brute,
    has_perfect_packing_brute,
)

RNG = np.random.default_rng(2024)


def _random_masks(n, count):
    e = n * (n - 1) // 2
    return [int(x) for x in RNG.integers(0, 1 << e, size=count)]


def _adj_for(n, mask):
    adj = np.zeros(n, np.int64)
    K._adj_from_mask(mask, n, adj)
    return adj


def test_adj_from_mask_matches_graph():
    for n in (0, 1, 5, 7):
        for mask in _random_masks(n, 10) if n > 1 else [0]:
            adj = _adj_for(n, mask)
            g = Graph.from_edge_mask(n, mask)
            assert [int(a) for a in adj] == [g.neighbour_mask(v) for v in range(n)]


@pytest.mark.parametrize("r", [2, 3])
def test_pack_decide_brute_and_pure_parity(r):
    n = 6
    cand, chosen, comm = K.pack_work_arrays(n)
    pure_fn = K.pure(K._pack_decide)
    for mask in _random_masks(n, 60):
        adj = _adj_for(n, mask)
        st, nodes = K._pack_decide(adj, n, r, 10**7, cand, chosen, comm)
        st_p, nodes_p = pure_fn(adj, n, r, 10**7, cand, chosen, comm)
        assert (st, nodes) == (st_p, nodes_p)
        g = Graph.from_edge_mask(n, mask)
        assert (st == 1) == has_perfect_packing_brute(g, r)
        if st == 1:
            blocks = [
                tuple(int(v) for v in chosen[b * r : (b + 1) * r])
                for b in range(n // r)
            ]
            assert sorted(v for blk in blocks for v in blk) == list(range(n))
            for blk in blocks:
                assert all(g.has_edge(u, v) for u in blk for v in blk if u < v)


def test_colour_decide_brute_parity():
    n, k = 6, 3
    candc = np.zeros(n, np.int64)
    chosen = np.zeros(n, np.int64)
    classmask = np.zeros(k, np.int64)
    classsize = np.zeros(k, np.int64)
    pure_fn = K.pure(K._colour_decide)
    for mask in _random_masks(n, 60):
        adj = _adj_for(n, mask)
        st, nodes = K._colour_decide(adj, n, k, 10**7, candc, chosen, classmask, classsize)
        st_p, nodes_p = pure_fn(adj, n, k, 10**7, candc, chosen, classmask, classsize)
        assert (st, nodes) == (st_p, nodes_p)
        g = Graph.from_edge_mask(n, mask)
        assert (st == 1) == has_equitable_colouring_brute(g, k)


def test_hampath_brute_parity():
    n = 6
    dp = np.zeros(1 << n, np.int64)
    order = np.zeros(n, np.int64)
    pure_fn = K.pure(K._hampath_decide)
    for mask in _random_masks(n, 60):
        adj = _adj_for(n, mask)
        found, states = K._hampath_decide(adj, n, dp)
        found_p, states_p = pure_fn(adj, n, dp.copy())
        assert (found, states) == (found_p, states_p)
        g = Graph.from_edge_mask(n, mask)
        assert bool(found) == has_hamilton_path_brute(g)
        if found:
            K._hampath_extract(adj, n, dp, order)
            path = [int(v) for v in order]
            assert sorted(path) == list(range(n))
            assert all(g.has_edge(path[i], path[i + 1]) for i in range(n - 1))


def test_has_clique_brute_parity():
    n = 7
    cands = np.zeros(n + 1, np.int64)
    chosen = np.zeros(n + 1, np.int64)
    for q in (3, 4):
        for mask in _random_masks(n, 40):
            adj = _adj_for(n, mask)
            st, _ = K._has_clique(adj, n, q, 10**7, cands, chosen)
            assert (st == 1) == has_clique_brute(Graph.from_edge_mask(n, mask), q)


def _scan_args(n, d_hi):
    """Fresh work and result buffers for one ``scan_pack_threshold`` run."""
    return (
        np.zeros(n, np.int64),
        *K.pack_work_arrays(n),
        np.zeros(d_hi + 1, np.int64),
        np.zeros(d_hi + 1, np.int64),
        np.zeros(d_hi + 1, np.int64),
        np.zeros(64, np.int64),
    )


def test_scan_pack_threshold_jit_pure_parity():
    # the matching scan: r = 2, families min degree >= 1
    n, r, d_lo, d_max = 4, 2, 1, 1
    f2v = np.array([0, 3], np.int64)
    outs = []
    for fn in (K.scan_pack_threshold, K.pure(K.scan_pack_threshold)):
        adj, cand, chosen, comm, found, max_e, arg, viol = _scan_args(n, d_max)
        res = fn(n, r, d_lo, d_max, f2v, 0, 0, 1 << 6, 10**7,
                 adj, cand, chosen, comm, found, max_e, arg, viol)
        outs.append((res, found.tolist(), max_e.tolist(), arg.tolist(), viol.tolist()))
    assert outs[0] == outs[1]
    (examined, nviol, aborted), _, max_e, _, _ = outs[0]
    assert (examined, nviol, aborted) == (64, 0, 0)
    assert max_e[1] == 3  # max edges, min degree >= 1, no perfect matching


def test_scan_pack_threshold_complement_matches_brute():
    """With ``flip`` set, each mask is decided through its complement, and
    extrema, tie masks and violations are keyed by the enumerated mask."""
    n, r, d_lo, d_hi = 6, 3, 2, 3
    slots = n * (n - 1) // 2
    flip = (1 << slots) - 1
    bound = np.array([0, 0, 11, 11], np.int64)
    lo, hi = 3000, 7096
    adj, cand, chosen, comm, found, max_e, arg, viol = _scan_args(n, d_hi)
    examined, nviol, aborted = K.scan_pack_threshold(
        n, r, d_lo, d_hi, bound, flip, lo, hi, 10**7,
        adj, cand, chosen, comm, found, max_e, arg, viol,
    )
    want = {dd: None for dd in range(d_lo, d_hi + 1)}
    want_viol = []
    for mask in range(lo, hi):
        h = Graph.from_edge_mask(n, mask ^ flip)
        if has_perfect_packing_brute(h, r):
            continue
        mindeg = min(h.degrees())
        for dd in range(d_lo, min(mindeg, d_hi) + 1):
            if want[dd] is None or h.edge_count > want[dd][0]:
                want[dd] = (h.edge_count, mask)
        if mindeg >= d_lo and h.edge_count > bound[d_lo]:
            want_viol.append(mask)
    assert (examined, aborted) == (hi - lo, 0)
    assert nviol == len(want_viol) > 0
    assert viol[: min(nviol, len(viol))].tolist() == want_viol[: len(viol)]
    for dd, best in want.items():
        assert best is not None and found[dd] == 1
        assert (int(max_e[dd]), int(arg[dd])) == best


def test_words_to_adj_matches_graph():
    for n in (9, 12):  # one and two 64-bit words per row
        e = n * (n - 1) // 2
        nwords = (e + 63) // 64
        batch = 16
        # full 64-bit words: the sign bit of the int64 view is an edge slot too
        raw = RNG.integers(0, (1 << 64) - 1, size=(batch, nwords), dtype=np.uint64,
                           endpoint=True)
        words = raw.view(np.int64)
        adjs = np.zeros((batch, n), np.int64)
        K.words_to_adj(words, n, adjs)
        for b in range(batch):
            mask = 0
            for w in range(nwords):
                mask |= int(raw[b, w]) << (64 * w)
            g = Graph.from_edge_mask(n, mask & ((1 << e) - 1))
            assert adjs[b].tolist() == [g.neighbour_mask(v) for v in range(n)]


def test_batch_kernels_match_scalar():
    n, r = 6, 3
    masks = _random_masks(n, 32)
    adjs = np.zeros((len(masks), n), np.int64)
    for b, mask in enumerate(masks):
        K._adj_from_mask(mask, n, adjs[b])
    cand, chosen, comm = K.pack_work_arrays(n)
    out = np.zeros(len(masks), np.int64)
    assert K.batch_packable(adjs, n, r, 10**7, cand, chosen, comm, out) == 0
    for b, mask in enumerate(masks):
        st, _ = K._pack_decide(adjs[b], n, r, 10**7, cand, chosen, comm)
        assert out[b] == st

    # equitable (n/r)-colourability is packing on the complemented rows
    full = (1 << n) - 1
    comp = full & ~adjs & ~(1 << np.arange(n, dtype=np.int64))
    outc = np.zeros(len(masks), np.int64)
    assert K.batch_packable(comp, n, r, 10**7, cand, chosen, comm, outc) == 0
    for b, mask in enumerate(masks):
        g = Graph.from_edge_mask(n, mask)
        assert (outc[b] == 1) == has_equitable_colouring_brute(g, n // r)


def test_node_cap_aborts():
    n = 8
    adj = np.zeros(n, np.int64)
    K._adj_from_mask((1 << (n * (n - 1) // 2)) - 1, n, adj)  # complete graph
    cand, chosen, comm = K.pack_work_arrays(n)
    st, nodes = K._pack_decide(adj, n, 2, 3, cand, chosen, comm)
    assert st == -1 and nodes >= 3


def test_pure_fallback_env_flag():
    """PACKLAB_NO_NUMBA=1 must produce identical results in a fresh process."""
    code = (
        "import numpy as np\n"
        "from packlab import _kernels as K\n"
        "adj = np.zeros(6, np.int64)\n"
        "K._adj_from_mask(0b101011001010111, 6, adj)\n"
        "cand, chosen, comm = K.pack_work_arrays(6)\n"
        "print(K.NUMBA_ENABLED, K._pack_decide(adj, 6, 3, 10**6, cand, chosen, comm))\n"
    )
    env_on = dict(os.environ)
    env_on.pop("PACKLAB_NO_NUMBA", None)
    env_off = dict(os.environ, PACKLAB_NO_NUMBA="1")
    out_on = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env_on
    )
    out_off = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env_off
    )
    assert out_on.returncode == 0, out_on.stderr
    assert out_off.returncode == 0, out_off.stderr
    res_on = out_on.stdout.split(None, 1)
    res_off = out_off.stdout.split(None, 1)
    assert res_off[0] == "False"
    assert res_on[1] == res_off[1]
