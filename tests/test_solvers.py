"""Exact solvers against brute-force oracles, the packing/colouring duality at
the solver level, and the structured routines (greedy packing of clique-free
graphs, Turán partition recovery, Hamilton-path conditions)."""

import random

import numpy as np
import pytest

from packlab import (
    CapExceededError,
    Graph,
    HypothesisError,
    ParameterRangeError,
    build_matching_blocker,
    chvatal_hampath_condition,
    complete_multipartite,
    disjoint_union,
    equitable_colouring,
    hajnal_szemeredi_guarantee,
    hamilton_path_exact,
    krfree_greedy_packing,
    perfect_kr_packing,
    perfect_matching,
    square_hamilton_obstructions,
    t_star,
    turan_graph,
    turan_partition,
    validate_colouring,
    validate_packing,
)
from oracles import (
    chvatal_condition_brute,
    has_equitable_colouring_brute,
    has_hamilton_path_brute,
    has_perfect_matching_brute,
    has_perfect_packing_brute,
    square_obstructions_brute,
)

RNG = np.random.default_rng(77)


def _random_graph(n, bias=2):
    e = n * (n - 1) // 2
    mask = 0
    for s in range(e):
        if RNG.integers(0, bias + 1):
            mask |= 1 << s
    return Graph.from_edge_mask(n, mask)


@pytest.mark.parametrize("n,r", [(6, 2), (6, 3), (8, 2), (8, 4)])
def test_packing_against_brute(n, r):
    for _ in range(40):
        g = _random_graph(n)
        out = perfect_kr_packing(g, r)
        assert out.decision == has_perfect_packing_brute(g, r)
        if out.decision:
            assert validate_packing(g, out.certificate, r)


def test_matching_is_k2_packing():
    for _ in range(40):
        g = _random_graph(6)
        assert perfect_matching(g).decision == has_perfect_matching_brute(g)


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 4), (7, 3)])
def test_colouring_against_brute(n, k):
    for _ in range(40):
        g = _random_graph(n, bias=1)
        out = equitable_colouring(g, k)
        assert out.decision == has_equitable_colouring_brute(g, k)
        if out.decision:
            assert validate_colouring(g, out.certificate, k)


def test_colouring_methods_agree():
    """Direct class-building search and complement-packing search are
    independent routes; they must decide identically whenever both apply."""
    for _ in range(60):
        g = _random_graph(6, bias=1)
        direct = equitable_colouring(g, 3, method="direct").decision
        via_pack = equitable_colouring(g, 3, method="complement-packing").decision
        assert direct == via_pack
    with pytest.raises(ParameterRangeError):
        equitable_colouring(_random_graph(7), 3, method="complement-packing")


@pytest.mark.parametrize("k", [2, 3])
def test_direct_colouring_certificates_all_graphs(k):
    """Every labelled 6-vertex graph: each certificate of the direct search
    is an equitable k-colouring, and each decision equals the
    complement-packing route's."""
    for mask in range(1 << 15):
        g = Graph.from_edge_mask(6, mask)
        out = equitable_colouring(g, k, method="direct")
        assert not out.decision or validate_colouring(g, out.certificate, k), mask
        via_pack = equitable_colouring(g, k, method="complement-packing").decision
        assert out.decision == via_pack, mask


def test_solvers_stop_above_kernel_limit():
    """The searches take at most 62 vertices (``KERNEL_MAX_N``); on 63 the
    solvers raise ``CapExceededError`` instead of deciding."""
    g = turan_graph(63, 3)
    for solve in (
        lambda: perfect_kr_packing(g, 3),
        lambda: equitable_colouring(g, 3, method="direct"),
        lambda: turan_partition(g, 3),
    ):
        with pytest.raises(CapExceededError):
            solve()


def test_packing_colouring_duality():
    for _ in range(60):
        g = _random_graph(6)
        packs = perfect_kr_packing(g, 3).decision
        colours = equitable_colouring(g.complement(), 2, method="direct").decision
        assert packs == colours


def test_trivial_cases():
    assert perfect_kr_packing(Graph(0), 3).decision
    assert not perfect_kr_packing(Graph(5), 3).decision  # 3 does not divide 5
    out = equitable_colouring(Graph(3), 5)
    assert out.decision and len(out.certificate.classes) == 5


def test_node_cap_abort():
    g = Graph.complete(12)
    with pytest.raises(CapExceededError):
        perfect_kr_packing(g, 3, node_cap=2)


def test_hajnal_szemeredi_guarantee():
    assert hajnal_szemeredi_guarantee(turan_graph(12, 3), 3)
    assert hajnal_szemeredi_guarantee(Graph.complete(12), 4)
    sparse = disjoint_union(Graph.complete(6), Graph.complete(6))
    assert not hajnal_szemeredi_guarantee(sparse, 3)
    # guarantee implies an actual packing
    for n, r in ((6, 3), (8, 4), (9, 3)):
        g = turan_graph(n, r)
        assert hajnal_szemeredi_guarantee(g, r)
        assert perfect_kr_packing(g, r).decision


def test_krfree_on_turan_graphs():
    for n, r in ((6, 3), (8, 2), (9, 3), (12, 3), (12, 4), (15, 5), (15, 3)):
        g = turan_graph(n, r)
        out = krfree_greedy_packing(g, r)
        assert validate_packing(g, out.certificate, r)


def test_krfree_frozen_trace():
    """Thinned Turán graph: drop within-reach edges so the greedy path is
    forced; the resulting blocks are frozen."""
    g = turan_graph(12, 3)
    removed = [(0, 4), (0, 8)]
    mask = g.edge_mask()
    slot = {tuple(sorted(e)): None for e in removed}
    s = 0
    for j in range(1, 12):
        for i in range(j):
            if (i, j) in slot:
                slot[(i, j)] = s
            s += 1
    for e, sl in slot.items():
        mask &= ~(1 << sl)
    thinned = Graph.from_edge_mask(12, mask)
    out = krfree_greedy_packing(thinned, 3)
    assert validate_packing(thinned, out.certificate, 3)
    assert out.certificate.blocks == ((0, 5, 9), (1, 4, 8), (2, 6, 10), (3, 7, 11))
    assert out.nodes_explored == 12


def test_krfree_rejects_clique_neighbourhood():
    # vertex 0 has minimum degree 3 and lies in the 4-clique {0,1,2,3};
    # degree bands still hold, so the promise check itself must fire
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 1), (4, 2), (4, 5), (5, 1), (5, 2), (5, 3)]
    with pytest.raises(HypothesisError, match="clique on 4 vertices"):
        krfree_greedy_packing(Graph(6, edges), 3)
    with pytest.raises(ParameterRangeError):
        krfree_greedy_packing(Graph.complete(4), 3)
    # r=4 analogue: lowering two degrees at vertex 0 keeps the bands but
    # leaves 0 inside a 5-clique; the complete graph itself has min degree
    # above the greedy threshold and is simply packed
    g8 = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                   if (u, v) not in {(0, 6), (0, 7)}])
    with pytest.raises(HypothesisError, match="clique on 5 vertices"):
        krfree_greedy_packing(g8, 4)
    out = krfree_greedy_packing(Graph.complete(8), 4)
    assert out.decision and validate_packing(Graph.complete(8), out.certificate, 4)


def test_krfree_banded_condition_messages():
    # n = 6, r = 3: the bands ask d_1 >= 3 and d_3 >= 4
    low = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                    if (u, v) not in {(0, 3), (0, 4), (0, 5)}])
    with pytest.raises(HypothesisError) as caught:
        krfree_greedy_packing(low, 3)
    assert str(caught.value) == "degree condition fails at index 1: d_1 = 2 < 3"
    k33 = complete_multipartite([3, 3])
    with pytest.raises(HypothesisError) as caught:
        krfree_greedy_packing(k33, 3)
    assert str(caught.value) == "degree condition fails at index 3: d_3 = 3 < 4"


@pytest.mark.parametrize("r", [1, 2, 3])
def test_empty_graph_packs_and_colours(r):
    from packlab import ColouringCertificate, PackingCertificate

    packed = perfect_kr_packing(Graph(0), r)
    assert (packed.decision, packed.certificate, packed.nodes_explored) == (
        True, PackingCertificate(()), 0)
    coloured = equitable_colouring(Graph(0), r)
    assert (coloured.decision, coloured.certificate, coloured.nodes_explored) == (
        True, ColouringCertificate(((),) * r), 0)


def test_krfree_relabeled():
    rng = random.Random(3)
    for _ in range(10):
        perm = list(range(12))
        rng.shuffle(perm)
        base = turan_graph(12, 3)
        g = Graph(12, [(perm[u], perm[v]) for u, v in base.edges()])
        out = krfree_greedy_packing(g, 3)
        assert validate_packing(g, out.certificate, 3)


def _check_partition(g, r, classes):
    n = g.n
    assert len(classes) == r
    seen = sorted(v for cls in classes for v in cls)
    assert seen == list(range(n))
    for cls in classes:
        assert len(cls) == n // r
        assert all(not g.has_edge(u, v) for i, u in enumerate(cls) for v in cls[i + 1:])


def test_turan_partition_recovers_parts():
    for n, r in ((6, 3), (9, 3), (12, 4), (16, 4), (24, 3), (24, 6)):
        g = turan_graph(n, r)
        _check_partition(g, r, turan_partition(g, r))
    rng = random.Random(9)
    for _ in range(10):
        perm = list(range(12))
        rng.shuffle(perm)
        base = turan_graph(12, 3)
        g = Graph(12, [(perm[u], perm[v]) for u, v in base.edges()])
        _check_partition(g, 3, turan_partition(g, 3))


def test_turan_partition_rejects_bad_inputs():
    with pytest.raises(HypothesisError):
        turan_partition(Graph.complete(6), 3)  # contains K_4
    sparse = disjoint_union(Graph.complete(3), Graph.complete(3))
    with pytest.raises(HypothesisError):
        turan_partition(sparse, 3)  # degree floor fails
    with pytest.raises(ParameterRangeError):
        turan_partition(turan_graph(8, 4), 3)  # 3 does not divide 8


def test_turan_partition_edge_deleted():
    rng = random.Random(4)
    base = turan_graph(12, 3)
    edges = list(base.edges())
    for _ in range(25):
        # drop edges inside a small vertex set so at most n/r - 1 vertices
        # fall below the degree floor
        w = rng.sample(range(12), 3)
        dropped = {
            (u, v) for u, v in edges if u in w and v in w
        }
        g = Graph(12, [e for e in edges if e not in dropped])
        # only the |w| = n/r - 1 vertices of w can fall below the floor
        assert sorted(g.degrees())[3] >= 8
        _check_partition(g, 3, turan_partition(g, 3))


def test_chvatal_condition_matches_oracle():
    for _ in range(80):
        g = _random_graph(7, bias=1)
        assert chvatal_hampath_condition(g) == chvatal_condition_brute(g)
    assert chvatal_hampath_condition(Graph.complete(5))
    cycle6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert not chvatal_hampath_condition(cycle6)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not chvatal_hampath_condition(star)
    with pytest.raises(ParameterRangeError):
        chvatal_hampath_condition(Graph(1))


def test_hamilton_path_exact_against_brute():
    for n in (2, 5, 6):
        for _ in range(30):
            g = _random_graph(n, bias=1)
            out = hamilton_path_exact(g)
            assert out.decision == has_hamilton_path_brute(g)
            if out.decision:
                path = out.certificate
                assert sorted(path) == list(range(n))
                assert all(g.has_edge(path[i], path[i + 1]) for i in range(n - 1))


def test_hamilton_path_blocker_regression():
    g = build_matching_blocker(6, 1)
    assert not hamilton_path_exact(g).decision
    with pytest.raises(CapExceededError):
        hamilton_path_exact(Graph(20), n_cap=14)


def test_square_obstructions_cases():
    assert square_hamilton_obstructions(Graph.complete(5)) == ()
    cycle6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert square_hamilton_obstructions(cycle6) == (0, 1, 2, 3, 4, 5)
    for _ in range(60):
        g = _random_graph(7, bias=1)
        assert square_hamilton_obstructions(g) == square_obstructions_brute(g)


def test_kr_free_greedy_respects_band_recheck():
    # once a block is removed the band must be re-established on the smaller
    # graph; Turán graphs stay exactly on the boundary at every round
    g = turan_graph(15, 3)
    out = krfree_greedy_packing(g, 3)
    assert validate_packing(g, out.certificate, 3)
    assert len(out.certificate.blocks) == 5
