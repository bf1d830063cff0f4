"""The search kernels against brute force, the block deciders against the
searches they run across rows, and pins on the searches' node counts."""

import functools
import hashlib
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from packlab.thresholds import colouring_threshold, packing_threshold
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
    return Graph.from_edge_mask(n, mask).adjacency_array().tolist()


@pytest.mark.parametrize("r", [2, 3])
def test_pack_decide_brute_and_pure_parity(r):
    n = 6
    for mask in _random_masks(n, 60):
        st, _, chosen = K._pack_decide(_adj_for(n, mask), n, r, 10**7)
        g = Graph.from_edge_mask(n, mask)
        assert (st == 1) == has_perfect_packing_brute(g, r)
        if st == 1:
            blocks = [tuple(chosen[b * r : (b + 1) * r]) for b in range(n // r)]
            assert sorted(v for blk in blocks for v in blk) == list(range(n))
            for blk in blocks:
                assert all(g.has_edge(u, v) for u in blk for v in blk if u < v)


def test_colour_decide_brute_parity():
    n, k = 6, 3
    for mask in _random_masks(n, 60):
        st, _, _ = K._colour_decide(_adj_for(n, mask), n, k, 10**7)
        g = Graph.from_edge_mask(n, mask)
        assert (st == 1) == has_equitable_colouring_brute(g, k)


def test_hampath_brute_parity():
    n = 6
    for mask in _random_masks(n, 60):
        adj = _adj_for(n, mask)
        found, _, dp = K._hampath_decide(adj, n)
        g = Graph.from_edge_mask(n, mask)
        assert bool(found) == has_hamilton_path_brute(g)
        if found:
            path = K._hampath_extract(adj, n, dp)
            assert sorted(path) == list(range(n))
            assert all(g.has_edge(path[i], path[i + 1]) for i in range(n - 1))


def test_hampath_decide_pinned():
    """Decisions, state counts and subset tables over every labelled 5-vertex
    graph, as computed before the programme wrote each extension once."""
    n = 5
    found = states = 0
    tables = hashlib.sha256()
    for mask in range(1 << 10):
        f, s, dp = K._hampath_decide(_adj_for(n, mask), n)
        found += f
        states += s
        tables.update(np.array(dp, np.int64).tobytes())
    assert (found, states) == (633, 37190)
    assert tables.hexdigest() == "4b72506d8daa356a300ed60f5f186baad1188779a75690d4404a523ccad96530"


def test_pack_and_clique_searches_pinned():
    """What ``_pack_decide`` returns at r = 2 and 3, status, node count and
    chosen vertices, and ``_has_clique`` at q = 3 and 4, status and node
    count, over every labelled 6-vertex graph in mask order, as computed
    while the searches counted and found bits with loop helpers.  ``solve
    --stats`` prints these node counts."""
    n = 6
    adjs = K.words_to_adj(np.arange(1 << 15), n).tolist()
    digests = []
    for r in (2, 3):
        runs = hashlib.sha256()
        for adj in adjs:
            runs.update(repr(K._pack_decide(adj, n, r, 10**7)).encode())
        digests.append(runs.hexdigest())
    for q in (3, 4):
        runs = hashlib.sha256()
        for adj in adjs:
            runs.update(repr(K._has_clique(adj, n, q, 10**7)).encode())
        digests.append(runs.hexdigest())
    assert digests == [
        "47a6bbeabda0f2eaf32928f6384f61e632ffba0a0b88adcde7aeeb631741e626",
        "2a44733fa53d84e315161135d9b9bcd548db054c2a2e084e53ab23c56c9e325c",
        "07f2fba9d3d6d6d32e187562ec18aa53700bd65ed1b947cd7f208eff332aa88e",
        "862f1c0ecf050d83c15a292ee01862b8e062e9cb0b9866208122624165873ff6",
    ]


def test_has_clique_brute_parity():
    n = 7
    for q in (3, 4):
        for mask in _random_masks(n, 40):
            st, _ = K._has_clique(_adj_for(n, mask), n, q, 10**7)
            assert (st == 1) == has_clique_brute(Graph.from_edge_mask(n, mask), q)


def _all_graphs(n):
    masks = range(1 << (n * (n - 1) // 2))
    return [Graph.from_edge_mask(n, m) for m in masks], K.words_to_adj(np.array(masks), n)


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
            st, _, _ = K._pack_decide(adjs[0].tolist(), n, r, 10**7)
            assert st != -1
            want = [st == 1]
        assert K.packable_rows(adjs, n, r).tolist() == want


def _colour_scalar(adjs, n, k, cap):
    """[statuses, node counts] of ``_colour_decide`` row by row."""
    runs = [K._colour_decide(adj, n, k, cap)[:2] for adj in adjs.tolist()]
    return [list(x) for x in zip(*runs)]


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


@pytest.mark.parametrize("n, r, bound", [(4, 2, 10), (6, 2, 56), (6, 3, 56)])
def test_pack_node_bound_covers_search(n, r, bound):
    """No graph makes the packing search use more nodes than the bound."""
    assert K.pack_node_bound(n, r) == bound
    _, adjs = _all_graphs(n)
    most = max(K._pack_decide(adj, n, r, 10**7)[1] for adj in adjs.tolist())
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
        assert V._decide_rows(adjs, n, r, bound)[0].tolist() == [True]
        assert len(calls) == 1
        assert K._pack_decide(adjs[0].tolist(), n, r, bound)[0] == 1
        assert V._decide_rows(adjs, n, r, bound - 1)[0].tolist() == [True]
        decisions, aborted = V._decide_rows(adjs, n, r, 3)
        assert len(calls) == 1 and (decisions.tolist(), aborted) == ([], True)


def test_scan_pack_threshold_complement_matches_brute():
    """``_search`` on the colouring side, over every labelled 6-vertex
    graph: each mask is decided through its complement, and extrema, tie
    masks and violations are keyed by the enumerated mask."""
    n, r = 6, 3
    # one edge above the true threshold (3), so the 3-edge blockers violate
    bounds = V.ThresholdSpec("t1", n, r, True, {2: 4, 3: 4}).packing_bounds()
    problems = []
    examined, _, viol, aborted, extremum = V._search(
        n, r, 1 << 15, V._mask_rows, lambda degs: degs.min(axis=1) >= min(bounds), 10**7,
        problems, True, None, bounds,
    )
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
        edges, mask = extremum[n - 1 - dd]  # the complement's edge count
        assert (15 - edges, mask) == best


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
    """Every labelled n-vertex graph: the clause-table search (``_search``
    without bounds) counts the graphs the reference predicate accepts and
    flags exactly those among them that the brute-force oracle rejects, in
    mask order."""
    clauses = () if predicate == "none" else _degree_clauses(predicate, n, r)
    total = 1 << (n * (n - 1) // 2)
    monkeypatch.setattr(V, "VIOLATION_BUFFER", total)
    problems = []
    examined, cond_true, viol, aborted, _ = V._search(
        n, r, total, V._mask_rows, lambda degs: V._condition_rows(degs, clauses), 10**7, problems
    )
    holds = CONDITION_REFERENCES[predicate]
    graphs = [(m, Graph.from_edge_mask(n, m)) for m in range(total)]
    meet = [(m, g) for m, g in graphs if holds(g, r)]
    if r == 0:
        want = [m for m, g in meet if not has_hamilton_path_brute(g)]
    else:
        want = [m for m, g in meet if not has_perfect_packing_brute(g, r)]
    assert (examined, cond_true, aborted, problems) == (total, len(meet), False, [])
    assert viol == want


def _junk_rows(start, stop, junk):
    """Six-vertex edge masks start..stop-1 as the samplers' ``uint64`` rows,
    with ``junk`` setting stream bits above the 15 edge slots."""
    return (np.arange(start, stop, dtype=np.uint64) | junk[start:stop])[:, None]


ROW_SOURCE_CASES = {
    "t1(6,3)": dict(
        r=3, complement=True,
        bounds=V.ThresholdSpec(
            "t1", 6, 3, True, {dd: colouring_threshold(6, 3, dd).value for dd in (2, 3)}
        ).packing_bounds(),
    ),
    "mainthm1(6,3)": dict(
        r=3, mismatches=True,
        bounds={dd: packing_threshold(6, 3, dd).value for dd in (2, 3)},
    ),
    "empty table": dict(r=3),
}


@pytest.mark.parametrize("case", list(ROW_SOURCE_CASES))
def test_row_sources_give_same_search(case, monkeypatch):
    """Every 6-vertex mask through ``_search`` as exhaustive rows and as
    sampler-shaped rows with junk past the last slot: the junk is dropped
    on expansion and on read-back, so counts, violations and extrema agree."""
    kw = ROW_SOURCE_CASES[case]
    bounds = kw.get("bounds")
    if bounds is None:  # the empty clause table: every non-packable graph violates
        keep = lambda degs: V._condition_rows(degs, ())  # noqa: E731
        monkeypatch.setattr(V, "VIOLATION_BUFFER", 1 << 15)
    else:
        keep = lambda degs: degs.min(axis=1) >= min(bounds)  # noqa: E731
    junk = RNG.integers(0, 1 << 49, size=1 << 15, dtype=np.uint64) << np.uint64(15)
    runs = []
    for rows in (V._mask_rows, lambda s, e: _junk_rows(s, e, junk)):
        problems, mismatches = [], [] if kw.get("mismatches") else None
        out = V._search(6, kw["r"], 1 << 15, rows, keep, 10**7, problems,
                        kw.get("complement", False), mismatches, bounds)
        runs.append((out, problems, mismatches))
    assert runs[0] == runs[1]
    (examined, kept, viol, aborted, extremum), problems, mismatches = runs[0]
    assert (examined, aborted, problems, mismatches or []) == (1 << 15, False, [], [])
    assert any(extremum)
    assert bool(viol) == (bounds is None)


def test_words_to_adj_matches_graph():
    for n in (9, 12):  # one and two 64-bit words per row
        e = n * (n - 1) // 2
        nwords = (e + 63) // 64
        batch = 16
        # full 64-bit words: the sign bit of the int64 view is an edge slot too
        raw = RNG.integers(0, (1 << 64) - 1, size=(batch, nwords), dtype=np.uint64,
                           endpoint=True)
        adjs = K.words_to_adj(raw, n)
        for b in range(batch):
            mask = 0
            for w in range(nwords):
                mask |= int(raw[b, w]) << (64 * w)
            g = Graph.from_edge_mask(n, mask & ((1 << e) - 1))
            assert adjs[b].tolist() == [g.neighbour_mask(v) for v in range(n)]


def test_slot_ends_follow_graph6_order():
    """Slot s joins the ends graph6 gives bit s, and ``s = j*(j-1)//2 + i``."""
    for n in range(1, 9):
        ends = K.slot_ends(n)
        assert len(ends) == n * (n - 1) // 2
        for s, (i, j) in enumerate(ends):
            assert i < j and s == j * (j - 1) // 2 + i
            assert list(Graph.from_edge_mask(n, 1 << s).edges()) == [(i, j)]


@pytest.mark.parametrize("n", range(2, 17))
def test_words_to_adj_byte_tables_match_slot_loop(n):
    """The byte-table expansion against the slot loop on ragged blocks of
    full 64-bit words, so the sign bit of each word and the bits past the
    last slot are set too; up to n = 16 the tables stay at 256 KB."""
    assert K._byte_tables(n).nbytes <= 1 << 18
    nwords = (n * (n - 1) // 2 + 63) // 64
    words = np.random.default_rng(n).integers(0, 1 << 64, size=(4096, nwords), dtype=np.uint64)
    for size in (0, 1, 7, 4096):
        got = K.words_to_adj(words[:size], n)
        assert got.dtype == np.int64 and got.shape == (size, n)
        assert (got == K._slot_adj(words[:size].view(np.int64), n)).all(), size


@settings(max_examples=40, deadline=None, derandomize=True)
@given(strategies.data())
def test_words_to_adj_past_n12(data):
    """Drawn rows of full 64-bit words, against ``Graph.from_edge_mask``,
    on both sides of n = 16, where the slot loop takes over."""
    n = data.draw(strategies.integers(13, K.KERNEL_MAX_N))
    nwords = (n * (n - 1) // 2 + 63) // 64
    rows = data.draw(strategies.lists(
        strategies.lists(strategies.integers(0, (1 << 64) - 1), min_size=nwords, max_size=nwords),
        min_size=1, max_size=5))
    adjs = K.words_to_adj(np.array(rows, np.uint64), n)
    for row, adj in zip(rows, adjs.tolist()):
        g = Graph.from_edge_mask(n, V._row_mask(n, row))
        assert adj == [g.neighbour_mask(v) for v in range(n)]


def test_batch_kernels_match_scalar(monkeypatch):
    """The row-by-row packing search of ``V._decide_rows``, which the scans
    run past n = 12 (forced here below it), against ``_pack_decide`` on each
    row, and against brute force on the complements and on every labelled
    4-vertex graph by matching."""
    monkeypatch.setattr(V, "_PACK_ROWS_MAX_N", 0)
    n, r = 6, 3
    masks = _random_masks(n, 32)
    adjs = np.array([_adj_for(n, mask) for mask in masks])
    want = [K._pack_decide(adj, n, r, 10**7)[0] == 1 for adj in adjs.tolist()]
    decisions, aborted = V._decide_rows(adjs, n, r, 10**7)
    assert (decisions.tolist(), aborted) == (want, False)

    # equitable (n/r)-colourability is packing on the complemented rows
    decisions, aborted = V._decide_rows(V._complement_rows(n, adjs), n, r, 10**7)
    want = [has_equitable_colouring_brute(Graph.from_edge_mask(n, m), n // r) for m in masks]
    assert (decisions.tolist(), aborted) == (want, False)

    graphs, adjs = _all_graphs(4)
    want = [has_perfect_packing_brute(g, 2) for g in graphs]
    decisions, aborted = V._decide_rows(adjs, 4, 2, 10**7)
    assert (decisions.tolist(), aborted) == (want, False)


def test_hampath_rows_matches_scalar():
    n = 6
    adjs = np.array([_adj_for(n, mask) for mask in _random_masks(n, 32)])
    want = [K._hampath_decide(adj, n)[0] == 1 for adj in adjs.tolist()]
    assert K.hampath_rows(adjs, n).tolist() == want


# Bit-slicing packs 64 graphs per word, so the last word of a block is
# padded: blocks one short of, at and one past a word boundary, and empty.
RAGGED_SIZES = (0, 1, 7, 63, 64, 65)


def _drawn_block(draw, n, size):
    """``size`` drawn n-vertex graphs as rows of neighbour masks; each edge
    mask ORs one to three drawn masks, as in ``_drawn_graph``."""
    dense = draw(strategies.integers(1, 3))
    full = (1 << (n * (n - 1) // 2)) - 1
    masks = draw(strategies.lists(
        strategies.integers(0, full), min_size=size * dense, max_size=size * dense))
    graphs = [Graph.from_edge_mask(n, functools.reduce(operator.or_, masks[i::size]))
              for i in range(size)]
    return np.array([g.adjacency_array() for g in graphs], np.int64).reshape(size, n)


def _pack_want(adjs, n, r):
    return [K._pack_decide(adj, n, r, 10**9)[0] == 1 for adj in adjs.tolist()]


def _hampath_want(adjs, n):
    return [K._hampath_decide(adj, n)[0] == 1 for adj in adjs.tolist()]


_RAGGED = settings(max_examples=12, deadline=None, derandomize=True)


@pytest.mark.parametrize("size", RAGGED_SIZES)
@_RAGGED
@given(data=strategies.data())
def test_packable_rows_ragged_blocks(size, data):
    """Drawn blocks on 7 <= n <= 12 vertices and their complements, at
    every r | n, against the uncapped packing search row by row."""
    n = data.draw(strategies.integers(7, 12))
    adjs = _drawn_block(data.draw, n, size)
    for r in (r for r in range(2, n + 1) if n % r == 0):
        for rows in (adjs, V._complement_rows(n, adjs)):
            assert K.packable_rows(rows, n, r).tolist() == _pack_want(rows, n, r), r


@pytest.mark.parametrize("size", RAGGED_SIZES)
@_RAGGED
@given(data=strategies.data())
def test_hampath_rows_ragged_blocks(size, data):
    """Drawn blocks on 2 <= n <= 11 vertices against the Hamilton-path
    programme row by row."""
    n = data.draw(strategies.integers(2, 11))
    adjs = _drawn_block(data.draw, n, size)
    assert K.hampath_rows(adjs, n).tolist() == _hampath_want(adjs, n)


def _mixed_block(n, size):
    """``size`` random n-vertex graphs whose edge masks OR one to four
    random masks in turn, so sparse and dense graphs alternate."""
    words = (n * (n - 1) // 2 + 63) // 64
    draws = np.random.default_rng(n).integers(0, 1 << 64, size=(4, size, words), dtype=np.uint64)
    depth = np.arange(size) % 4
    picked = np.where((np.arange(4)[:, None] <= depth)[:, :, None], draws, np.uint64(0))
    return K.words_to_adj(np.bitwise_or.reduce(picked, axis=0), n)


def test_block_deciders_span_sub_blocks():
    """Blocks of more than two sub-blocks, the last one ragged, with both
    answers present: packing at (12, 4) and Hamilton paths at n = 10."""
    adjs = _mixed_block(12, 700)
    assert K._sub_block_rows(12, 5775 >> 3) == 320  # the widest (12, 4) layer
    for rows in (adjs, V._complement_rows(12, adjs)):
        want = _pack_want(rows, 12, 4)
        assert K.packable_rows(rows, 12, 4).tolist() == want
        assert any(want) and not all(want)
    adjs = _mixed_block(10, 450)
    assert K._sub_block_rows(10, (10 << 10) >> 3) == 192
    want = _hampath_want(adjs, 10)
    assert K.hampath_rows(adjs, 10).tolist() == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("decide, n, r", [
    (K.packable_rows, 12, 2), (K.packable_rows, 12, 3), (K.packable_rows, 12, 4),
    (K.hampath_rows, 6, None), (K.hampath_rows, 7, None), (K.hampath_rows, 11, None),
    (K.colour_rows, 6, 2), (K.colour_rows, 12, 4),
])
def test_block_decider_memory(decide, n, r):
    """A 4,096-row block stays under 1 MB of numpy and Python allocations:
    every sub-block table is capped at 256 KB.  For ``colour_rows`` r is
    the number of classes."""
    adjs = _mixed_block(n, 4096)
    args = (adjs, n) if r is None else (adjs, n, r)
    if decide is K.colour_rows:
        args += (DEFAULT_NODE_CAP,)
    decide(*args)  # warm-up: the cached programme tables
    tracemalloc.start()
    try:
        decide(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_node_cap_aborts():
    n = 8
    adj = Graph.complete(n).adjacency_array()
    st, nodes, _ = K._pack_decide(adj.tolist(), n, 2, 3)
    assert st == -1 and nodes >= 3
    # a block stops at its first row that hits the cap, after one decided row
    adjs = np.array([Graph(n).adjacency_array(), adj, adj])
    decisions, aborted = V._decide_rows(adjs, n, 2, 3)
    assert (decisions.tolist(), aborted) == ([False], True)


def test_import_is_silent():
    """Importing packlab (the copy under test) warns nothing."""
    src = str(Path(V.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import packlab"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
