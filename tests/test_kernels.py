"""JIT kernels against their pure-Python originals and against brute force.

Every compiled kernel must agree with its uncompiled ``py_func`` bit for bit,
including explored-node counts, so the accelerated and fallback paths are
interchangeable.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from packlab import (
    Graph,
    _kernels as K,
    banded_condition_profile,
    chvatal_hampath_condition,
    disjunctive_condition_failures,
)
from packlab import verify as V
from packlab.solvers import DEFAULT_NODE_CAP
from packlab.verify import _degree_clauses
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
    return Graph.from_edge_mask(n, mask).adjacency_array()


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


def test_hampath_decide_pinned():
    """Decisions, state counts and subset tables over every labelled 5-vertex
    graph, as computed before the programme wrote each extension once."""
    n = 5
    dp = np.zeros(1 << n, np.int64)
    found = states = 0
    tables = hashlib.sha256()
    for mask in range(1 << 10):
        f, s = K._hampath_decide(_adj_for(n, mask), n, dp)
        found += f
        states += s
        tables.update(dp.tobytes())
    assert (found, states) == (633, 37190)
    assert tables.hexdigest() == "4b72506d8daa356a300ed60f5f186baad1188779a75690d4404a523ccad96530"


def test_has_clique_brute_parity():
    n = 7
    cands = np.zeros(n + 1, np.int64)
    chosen = np.zeros(n + 1, np.int64)
    for q in (3, 4):
        for mask in _random_masks(n, 40):
            adj = _adj_for(n, mask)
            st, _ = K._has_clique(adj, n, q, 10**7, cands, chosen)
            assert (st == 1) == has_clique_brute(Graph.from_edge_mask(n, mask), q)


def test_batch_decide_jit_pure_parity():
    """Every labelled 4-vertex graph decided by matching, compiled and pure;
    the pure path must agree with brute force."""
    n = 4
    adjs = np.array([_adj_for(n, mask) for mask in range(1 << 6)])
    outs = []
    for fn in (K.batch_decide, K.pure(K.batch_decide)):
        out = np.zeros(len(adjs), np.int64)
        outs.append((fn(adjs, n, 2, 10**7, *K.pack_work_arrays(n), out), out.tolist()))
    assert outs[0] == outs[1]
    graphs = [Graph.from_edge_mask(n, mask) for mask in range(1 << 6)]
    assert outs[0] == (64, [int(has_perfect_packing_brute(g, 2)) for g in graphs])


def _all_graphs(n):
    masks = range(1 << (n * (n - 1) // 2))
    return [Graph.from_edge_mask(n, m) for m in masks], V._expand_words(n, np.array(masks))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hampath_rows_matches_brute(n):
    graphs, adjs = _all_graphs(n)
    assert K.hampath_rows(adjs, n).tolist() == [has_hamilton_path_brute(g) for g in graphs]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_packable_rows_matches_brute(n):
    """Every labelled graph with n <= 6 and its complement, at every r | n."""
    graphs, adjs = _all_graphs(n)
    comps = [g.complement() for g in graphs]
    for r in (r for r in range(2, n + 1) if n % r == 0):
        for gs, rows in ((graphs, adjs), (comps, V._complement_rows(n, adjs))):
            want = [has_perfect_packing_brute(g, r) for g in gs]
            assert K.packable_rows(rows, n, r).tolist() == want, r


def _drawn_graph(draw, most=10):
    """A graph with 7 <= n <= ``most`` whose edge mask ORs one to three drawn
    masks, so denser graphs are drawn as well as half-full ones."""
    n = draw(strategies.integers(7, most))
    full = (1 << (n * (n - 1) // 2)) - 1
    mask = 0
    for _ in range(draw(strategies.integers(1, 3))):
        mask |= draw(strategies.integers(0, full))
    return Graph.from_edge_mask(n, mask)


_DRAWN = settings(max_examples=60, deadline=None, derandomize=True)


@_DRAWN
@given(strategies.data())
def test_hampath_rows_matches_brute_drawn(data):
    g = _drawn_graph(data.draw)
    assert K.hampath_rows(g.adjacency_array()[None], g.n).tolist() == [
        has_hamilton_path_brute(g)
    ]


@_DRAWN
@given(strategies.data())
def test_packable_rows_matches_brute_drawn(data):
    """Against the brute-force oracle up to n = 10, and against the
    packing search at n = 11 and 12."""
    g = _drawn_graph(data.draw, most=12)
    n = g.n
    r = data.draw(strategies.sampled_from([r for r in range(2, n + 1) if n % r == 0]))
    for h in (g, g.complement()):
        adjs = h.adjacency_array()[None]
        if n <= 10:
            want = [has_perfect_packing_brute(h, r)]
        else:
            out = np.zeros(1, np.int64)
            assert K.batch_decide(adjs, n, r, 10**7, *K.pack_work_arrays(n), out) == 1
            want = [out[0] == 1]
        assert K.packable_rows(adjs, n, r).tolist() == want


def _colour_scalar(adjs, n, k, cap):
    """[statuses, node counts] of ``_colour_decide`` row by row."""
    work = [np.zeros(size, np.int64) for size in (n, n, k, k)]
    return [list(x) for x in zip(*(K._colour_decide(adj, n, k, cap, *work) for adj in adjs))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_colour_rows_matches_scalar(n):
    """Status and node count of every labelled graph with n <= 6, at every
    k, with node caps that stop the search at once, midway and never.  A
    search capped at c runs the uncapped search's first c nodes, so the
    capped results follow from the uncapped ones; below n = 6 the capped
    search itself is run too."""
    _, adjs = _all_graphs(n)
    for k in range(1, n + 1):
        status, nodes = _colour_scalar(adjs, n, k, DEFAULT_NODE_CAP)
        for cap in (1, 7, DEFAULT_NODE_CAP):
            want = [[-1 if m > cap else st for st, m in zip(status, nodes)],
                    [min(m, cap + 1) for m in nodes]]
            if n < 6:
                assert want == _colour_scalar(adjs, n, k, cap), (k, cap)
            got = [a.tolist() for a in K.colour_rows(adjs, n, k, cap)]
            assert got == want, (k, cap)


@_DRAWN
@given(strategies.data())
def test_colour_rows_matches_scalar_drawn(data):
    """A block of up to six graphs on 7 <= n <= 12 vertices and their
    complements, so rows finish at different passes."""
    graphs = [_drawn_graph(data.draw, most=12)]
    n = graphs[0].n
    full = (1 << (n * (n - 1) // 2)) - 1
    graphs += [Graph.from_edge_mask(n, m) for m in data.draw(
        strategies.lists(strategies.integers(0, full), max_size=5))]
    adjs = np.array([h.adjacency_array() for g in graphs for h in (g, g.complement())])
    k = data.draw(strategies.integers(1, n))
    cap = data.draw(strategies.sampled_from([1, 7, 60, DEFAULT_NODE_CAP]))
    got = [a.tolist() for a in K.colour_rows(adjs, n, k, cap)]
    assert got == _colour_scalar(adjs, n, k, cap)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_colour_rows_matches_brute(n):
    graphs, adjs = _all_graphs(n)
    for k in range(1, n + 1) if n < 6 else (2, 3):
        want = [has_equitable_colouring_brute(g, k) for g in graphs]
        assert (K.colour_rows(adjs, n, k, DEFAULT_NODE_CAP)[0] == 1).tolist() == want, k


def test_colour_rows_edge_cases():
    """No vertices, one vertex, and no rows."""
    assert [a.tolist() for a in K.colour_rows(np.zeros((2, 0), np.int64), 0, 1, 5)] == [
        [1, 1], [0, 0]]
    assert [a.tolist() for a in K.colour_rows(np.zeros((1, 1), np.int64), 1, 1, 5)] == [
        [1], [1]]
    assert [a.tolist() for a in K.colour_rows(np.zeros((0, 4), np.int64), 4, 2, 5)] == [[], []]


@pytest.mark.parametrize("n", [1, 2, 6, 9, 12, 62])
def test_complement_adjs_matches_graph(n):
    """The cross-check's own expansion, at up to 30 edge words per graph."""
    e = n * (n - 1) // 2
    masks = [0, (1 << e) - 1] + [
        sum(int(w) << (32 * i) for i, w in enumerate(RNG.integers(0, 1 << 32, size=e // 32 + 1)))
        & ((1 << e) - 1) for _ in range(20)]
    want = [Graph.from_edge_mask(n, m).complement().adjacency_array().tolist() for m in masks]
    assert K.complement_adjs(masks, n).tolist() == want


def test_colour_complements_matches_scalar():
    """The sampled cross-check: statuses of the complements in order, cut
    after the first row that hits the cap, at one and two edge words."""
    for n, k in ((6, 2), (9, 3), (12, 4)):
        masks = _random_masks(n, 200) if n < 12 else [
            int(x) | int(y) << 33 for x, y in zip(*RNG.integers(0, 1 << 33, size=(2, 200)))]
        adjs = np.array([_adj_for(n, m) for m in masks])
        comps = V._complement_rows(n, adjs)
        for cap in (DEFAULT_NODE_CAP, 12):
            want = _colour_scalar(comps, n, k, cap)[0]
            if -1 in want:
                want = want[: want.index(-1) + 1]
            assert K.colour_complements(masks, n, k, cap) == want, (n, cap)


@pytest.mark.parametrize("n, r, bound", [(4, 2, 10), (6, 2, 56), (6, 3, 56)])
def test_pack_node_bound_covers_search(n, r, bound):
    """No graph makes the packing search use more nodes than the bound."""
    assert K.pack_node_bound(n, r) == bound
    cand, chosen, comm = K.pack_work_arrays(n)
    _, adjs = _all_graphs(n)
    most = max(K._pack_decide(adj, n, r, 10**7, cand, chosen, comm)[1] for adj in adjs)
    assert 0 < most <= bound


def test_small_cap_takes_backtracking_path(monkeypatch):
    """The packing subset programme decides only when the cap is one the
    search cannot reach; below it, the search decides and can abort."""
    calls = []
    programme = K.packable_rows
    monkeypatch.setattr(K, "packable_rows", lambda *a: calls.append(a) or programme(*a))
    for n, r, bound in ((6, 2, 56), (12, 3, 88342)):
        calls.clear()
        adjs = np.array([Graph.complete(n).adjacency_array()])
        assert K.pack_node_bound(n, r) == bound
        assert V._batch_decide(adjs, n, r, bound)[0].tolist() == [True]
        assert len(calls) == 1
        out = np.zeros(1, np.int64)
        assert K.batch_decide(adjs, n, r, bound, *K.pack_work_arrays(n), out) == 1
        assert out.tolist() == [1]
        assert V._batch_decide(adjs, n, r, bound - 1)[0].tolist() == [True]
        decisions, aborted = V._batch_decide(adjs, n, r, 3)
        assert len(calls) == 1 and (decisions.tolist(), aborted) == ([], True)


def test_scan_pack_threshold_complement_matches_brute():
    """``_scan_threshold`` on the colouring side, over every labelled
    6-vertex graph: each mask is decided through its complement, and
    extrema, tie masks and violations are keyed by the enumerated mask."""
    n, r = 6, 3
    # one edge above the true threshold (3), so the 3-edge blockers violate
    spec = V.ThresholdSpec("t1", n, r, True, {2: 4, 3: 4})
    problems = []
    examined, viol, aborted, per_d = V._scan_threshold(spec, 1, 10**7, 7, problems)
    want = {dd: None for dd in (2, 3)}
    want_viol = []
    for mask in range(1 << 15):
        g = Graph.from_edge_mask(n, mask)
        if has_equitable_colouring_brute(g, n // r):
            continue
        maxdeg = max(g.degrees())
        for dd in want:
            if maxdeg <= dd and (want[dd] is None or g.edge_count < want[dd][0]):
                want[dd] = (g.edge_count, mask)
        if maxdeg <= 3 and g.edge_count < 4:
            want_viol.append(mask)
    assert (examined, aborted, problems) == (1 << 15, False, [])
    assert viol == want_viol and viol
    for dd, best in want.items():
        assert (per_d[dd]["edges"], per_d[dd]["mask"]) == best


# The independent predicate behind each clause table; "none" is the empty
# table, which every graph meets, so every graph the decision rejects is a
# violation and the recorded masks are checked in bulk.
CONDITION_REFERENCES = {
    "hampath": lambda g, r: chvatal_hampath_condition(g),
    "conj1": lambda g, r: banded_condition_profile(g, r) == ((), True),
    "ques1": lambda g, r: not disjunctive_condition_failures(g, r),
    "none": lambda g, r: True,
}
CONDITION_CASES = (
    [("hampath", n, 0) for n in range(2, 7)]
    + [(p, n, r) for p in ("conj1", "ques1") for n, r in ((2, 2), (4, 2), (3, 3), (6, 3))]
    + [("none", 5, 0), ("none", 4, 2), ("none", 6, 3)]
)


@pytest.mark.parametrize("predicate, n, r", CONDITION_CASES)
def test_scan_degree_condition_matches_references(predicate, n, r, monkeypatch):
    """Every labelled n-vertex graph: the clause-table scan
    (``_scan_condition``) counts the graphs the reference predicate accepts
    and flags exactly those among them that the brute-force oracle rejects,
    in mask order."""
    clauses = () if predicate == "none" else _degree_clauses(predicate, n, r)
    total = 1 << (n * (n - 1) // 2)
    monkeypatch.setattr(V, "VIOLATION_BUFFER", total)
    problems = []
    examined, cond_true, viol, aborted = V._scan_condition(n, r, clauses, 1, 10**7, 11, problems)
    holds = CONDITION_REFERENCES[predicate]
    graphs = [(m, Graph.from_edge_mask(n, m)) for m in range(total)]
    meet = [(m, g) for m, g in graphs if holds(g, r)]
    if r == 0:
        want = [m for m, g in meet if not has_hamilton_path_brute(g)]
    else:
        want = [m for m, g in meet if not has_perfect_packing_brute(g, r)]
    assert (examined, cond_true, aborted, problems) == (total, len(meet), False, [])
    assert viol == want


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
    adjs = np.array([_adj_for(n, mask) for mask in masks])
    cand, chosen, comm = K.pack_work_arrays(n)
    out = np.zeros(len(masks), np.int64)
    assert K.batch_decide(adjs, n, r, 10**7, cand, chosen, comm, out) == len(masks)
    for b, mask in enumerate(masks):
        st, _ = K._pack_decide(adjs[b], n, r, 10**7, cand, chosen, comm)
        assert out[b] == st

    # equitable (n/r)-colourability is packing on the complemented rows
    full = (1 << n) - 1
    comp = full & ~adjs & ~(1 << np.arange(n, dtype=np.int64))
    outc = np.zeros(len(masks), np.int64)
    assert K.batch_decide(comp, n, r, 10**7, cand, chosen, comm, outc) == len(masks)
    for b, mask in enumerate(masks):
        g = Graph.from_edge_mask(n, mask)
        assert (outc[b] == 1) == has_equitable_colouring_brute(g, n // r)


def test_hampath_rows_matches_scalar():
    n = 6
    adjs = np.array([_adj_for(n, mask) for mask in _random_masks(n, 32)])
    dp = np.zeros(1 << n, np.int64)
    want = [K._hampath_decide(adj, n, dp)[0] == 1 for adj in adjs]
    assert K.hampath_rows(adjs, n).tolist() == want


def test_node_cap_aborts():
    n = 8
    adj = Graph.complete(n).adjacency_array()
    cand, chosen, comm = K.pack_work_arrays(n)
    st, nodes = K._pack_decide(adj, n, 2, 3, cand, chosen, comm)
    assert st == -1 and nodes >= 3
    # a batch stops at its first row that hits the cap, after one decided row
    adjs = np.array([Graph(n).adjacency_array(), adj, adj])
    out = np.full(3, 7, np.int64)
    assert K.batch_decide(adjs, n, 2, 3, cand, chosen, comm, out) == 1
    assert out.tolist() == [0, -1, 7]


def test_import_without_numba_is_silent():
    """Without numba (an optional extra) importing packlab warns nothing."""
    env = dict(os.environ)
    env.pop("PACKLAB_NO_NUMBA", None)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import packlab"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_pure_fallback_env_flag():
    """PACKLAB_NO_NUMBA=1 must produce identical results in a fresh process."""
    code = (
        "from packlab import Graph, _kernels as K\n"
        "adj = Graph.from_edge_mask(6, 0b101011001010111).adjacency_array()\n"
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
