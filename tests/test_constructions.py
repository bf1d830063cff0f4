"""Extremal constructions: frozen degree sequences, closed-form edge counts
and degree bands, complement relationships, and the blocking properties on
small instances."""

import hashlib

import pytest

from packlab import (
    FAMILIES,
    Graph,
    ParameterRangeError,
    banded_condition_profile,
    build_clique_plus_isolates,
    build_extremal1,
    build_extremal2,
    build_matching_blocker,
    build_packing_exception,
    build_square_blocker,
    build_star_plus_cliques,
    degree_sequence,
    disjunctive_condition_failures,
    encode_graph6,
    equitable_colouring,
    expected_degree_bands,
    expected_edges,
    hamilton_path_exact,
    matching_blocker_edges,
    perfect_kr_packing,
    perfect_matching,
    square_hamilton_obstructions,
    t_star,
)
from packlab.verify import _audit_grid
from oracles import has_perfect_matching_brute


def test_matching_blocker_frozen():
    g = build_matching_blocker(6, 2)
    assert degree_sequence(g) == [2, 2, 2, 2, 5, 5]
    assert g.edge_count == matching_blocker_edges(6, 2) == 9
    assert not has_perfect_matching_brute(g)

    g = build_matching_blocker(4, 1)
    assert degree_sequence(g) == [1, 1, 1, 3]
    assert g.edge_count == 3
    assert not has_perfect_matching_brute(g)

    g = build_matching_blocker(6, 0)
    assert degree_sequence(g) == [0, 4, 4, 4, 4, 4]

    g = build_matching_blocker(6, 1)
    assert degree_sequence(g) == [1, 1, 3, 3, 3, 5]
    assert not hamilton_path_exact(g).decision

    with pytest.raises(ParameterRangeError):
        build_matching_blocker(6, 3)
    with pytest.raises(ParameterRangeError):
        build_matching_blocker(5, 1)


def test_matching_blocker_min_degree():
    for n in range(4, 21, 2):
        for d in range(0, n // 2):
            g = build_matching_blocker(n, d)
            assert min(g.degrees()) == d
            assert g.edge_count == matching_blocker_edges(n, d)


def test_clique_plus_isolates():
    g = build_clique_plus_isolates(6, 3)
    assert degree_sequence(g) == [0, 0, 0, 2, 2, 2]
    assert g.edge_count == expected_edges("G1", n=6, r=3) == 3
    assert not equitable_colouring(g, 2).decision
    with pytest.raises(ParameterRangeError):
        build_clique_plus_isolates(6, 2)


def test_star_plus_cliques_frozen():
    g = build_star_plus_cliques(24, 3, 21)
    assert g.edge_count == 22
    assert max(g.degrees()) == 21
    # star K_{1,21} plus a disjoint K_2
    assert degree_sequence(g) == [1] * 23 + [21]

    assert build_star_plus_cliques(12, 3, 8).edge_count == 11
    assert max(build_star_plus_cliques(12, 3, 6).degrees()) == 6
    with pytest.raises(ParameterRangeError):
        build_star_plus_cliques(12, 3, 5)  # D(r-1) < n
    with pytest.raises(ParameterRangeError):
        build_star_plus_cliques(12, 3, 10)  # D > n - r


def test_packing_exception_variants():
    gi = build_packing_exception(6, 3, "i")
    assert gi.complement() == build_clique_plus_isolates(6, 3)
    assert not perfect_kr_packing(gi, 3).decision

    gii = build_packing_exception(8, 4, "ii", j=1)
    assert gii.complement().edge_count == 5
    assert not perfect_kr_packing(gii, 4).decision

    with pytest.raises(ParameterRangeError):
        build_packing_exception(8, 4, "ii", j=3)  # j > r - 2
    with pytest.raises(ParameterRangeError):
        build_packing_exception(8, 4, "iii")


def test_g1_is_af_i_complement_sweep():
    for r in range(3, 7):
        for n in range(r, 61, r):
            af = FAMILIES["af_i"].build(n=n, r=r)
            g1 = FAMILIES["G1"].build(n=n, r=r)
            assert af.complement() == g1


def test_extremal1_frozen():
    g = build_extremal1(6, 3, 1)
    assert degree_sequence(g) == [2, 4, 4, 4, 4, 4]
    fails, beta_ok = banded_condition_profile(g, 3)
    assert fails == (1,) and beta_ok
    assert not perfect_kr_packing(g, 3).decision

    g = build_extremal1(8, 2, 3)
    fails, beta_ok = banded_condition_profile(g, 2)
    assert fails == (3,) and beta_ok
    assert not perfect_matching(g).decision

    with pytest.raises(ParameterRangeError):
        build_extremal1(6, 3, 2)  # k must stay below n/r


def test_extremal2_frozen():
    g = build_extremal2(6, 3, 1)
    assert degree_sequence(g) == [1, 4, 4, 4, 4, 5]
    assert disjunctive_condition_failures(g, 3) == (1,)
    assert not perfect_kr_packing(g, 3).decision

    g = build_extremal2(8, 2, 1)
    # degenerates to K_7 plus an isolated vertex when the B part is empty
    assert degree_sequence(g) == [0] + [6] * 7
    assert disjunctive_condition_failures(g, 2) == (1,)
    assert not perfect_matching(g).decision


def test_extremal2_boundary_degree_sweep():
    for r in (2, 3, 4):
        for n in range(2 * r, 41, r):
            for k in range(1, n // r + 1):
                g = build_extremal2(n, r, k)
                assert degree_sequence(g)[n - k * (r - 1)] == n - k - 1
                assert disjunctive_condition_failures(g, r) == (k,)


def test_extremal1_band_sweep():
    for r in (2, 3, 4):
        for n in range(2 * r, 41, r):
            for k in range(1, n // r):
                fails, beta_ok = banded_condition_profile(build_extremal1(n, r, k), r)
                assert fails == (k,) and beta_ok


def test_t_star_blocks_packing():
    g = t_star(6, 3)
    assert g.edge_count == 11
    assert not perfect_kr_packing(g, 3).decision
    g = t_star(12, 3)
    assert not perfect_kr_packing(g, 3).decision


def test_square_blocker_valid_and_invalid():
    g = build_square_blocker(69, 1, 5)
    n, c = 69, 1
    assert g.degree(0) == n // 3 + c + 1 == 25
    d = degree_sequence(g)
    assert all(d[i - 1] >= n // 3 + c + i for i in range(1, n // 3 + 1))
    assert 0 in square_hamilton_obstructions(g)

    with pytest.raises(ParameterRangeError):
        build_square_blocker(24, 1, 4)  # needs at least 3C + 2 stars
    with pytest.raises(ParameterRangeError):
        build_square_blocker(9, 1, 5)  # stars would be too small
    with pytest.raises(ParameterRangeError):
        build_square_blocker(70, 1, 5)  # 3 must divide n


def test_expected_edges_and_bands_agree_with_builders():
    cases = [
        ("H", dict(n=10, d=3)),
        ("G1", dict(n=12, r=4)),
        ("G2", dict(n=12, r=3, D=6)),
        ("af_i", dict(n=12, r=4)),
        ("af_ii", dict(n=12, r=4, j=2)),
        ("t_star", dict(n=12, r=3)),
        ("extremal1", dict(n=12, r=3, k=2)),
        ("extremal2", dict(n=12, r=3, k=4)),
    ]
    for token, params in cases:
        g = FAMILIES[token].build(**params)
        e = expected_edges(token, **params)
        bands = expected_degree_bands(token, **params)
        assert bands is not None
        flat = sorted(deg for cnt, deg in bands for _ in range(cnt))
        assert degree_sequence(g) == flat
        assert sum(flat) == 2 * g.edge_count
        if e is not None:
            assert g.edge_count == e
    assert expected_degree_bands("square_cx", n=69, C=1, K=5) is None


def test_degree_bands_ascend_over_audit_grid():
    """Every instance of the audit grid up to n = 30 whose bands are closed
    form lists them in ascending degree order, and the bands flattened in
    that order are the built graph's degree sequence."""
    checked = 0
    for token, params in _audit_grid(30):
        bands = expected_degree_bands(token, **params)
        if bands is None:
            continue
        degrees = [deg for _, deg in bands]
        assert degrees == sorted(degrees), (token, params, bands)
        flat = [deg for cnt, deg in bands for _ in range(cnt)]
        assert flat == degree_sequence(FAMILIES[token].build(**params)), (token, params)
        checked += 1
    assert checked > 1000
    assert expected_degree_bands("G2", n=12, r=3, D=6) == [(6, 1), (5, 4), (1, 6)]


def test_family_registry_complete():
    assert set(FAMILIES) == {
        "H", "G1", "G2", "af_i", "af_ii",
        "extremal1", "extremal2", "t_star", "square_cx",
    }
    for token, fam in FAMILIES.items():
        assert fam.token == token
        assert fam.params[0] == "n"
        assert fam.summary


def test_builders_output_pinned():
    """sha256 of every audit-grid instance's graph6 line, n <= 60, in grid
    order, as the per-bit codec wrote it.  The full n <= 120 grid reads
    6458b15cbfff2642a6f6eb1e85e3340f59f7a5be8f9c93a3190b0fe44eaac466 but
    takes several seconds to build and encode."""
    h = hashlib.sha256()
    for token, params in _audit_grid(60):
        h.update((encode_graph6(FAMILIES[token].build(**params)) + "\n").encode())
    assert h.hexdigest() == "d69bf55881bdb05d0ac90a194a2ef6d864a61f6213580d637754679afdc11d16"


def test_builders_masks_pinned_full_grid():
    """sha256 of every audit-grid instance's neighbour masks, n <= 120, in
    grid order: each mask as 16 little-endian bytes, vertex by vertex.  This
    reaches the G2 instances above n = 60 that the graph6 pin leaves out."""
    h = hashlib.sha256()
    for token, params in _audit_grid(120):
        g = FAMILIES[token].build(**params)
        h.update(b"".join(g.neighbour_mask(v).to_bytes(16, "little") for v in range(g.n)))
    assert h.hexdigest() == "835abf8d4067dec27a7a0c553b903fe89f26d2a1e58d5a69ae129d97c8cbf2f5"


_BAD_PARAMS = [
    ("H", dict(n=10, d=5), "need 0 <= d <= n/2 - 1"),
    ("G2", dict(n=13, r=3, D=7), "need r >= 3 and r | n with n >= 2r"),
    ("G2", dict(n=12, r=3, D=10), "need n/(r-1) <= big_d <= n - r"),
    ("af_i", dict(n=10, r=3), "need r >= 2 and r | n with n >= r"),
    ("af_ii", dict(n=10, r=3, j=1), "need r >= 2 and r | n with n >= r"),
    ("af_ii", dict(n=12, r=4, j=0), "need 1 <= j <= r - 2"),
    ("af_ii", dict(n=12, r=4, j=3), "need 1 <= j <= r - 2"),
    ("af_ii", dict(n=4, r=4, j=1), "need n >= r + j"),
    ("extremal1", dict(n=12, r=3, k=0), "need 1 <= k <= n/r - 1"),
    ("extremal1", dict(n=12, r=3, k=4), "need 1 <= k <= n/r - 1"),
    ("extremal2", dict(n=12, r=3, k=0), "need 1 <= k <= n/r"),
    ("extremal2", dict(n=12, r=3, k=5), "need 1 <= k <= n/r"),
]


@pytest.mark.parametrize(
    "token, params, message",
    _BAD_PARAMS,
    ids=[f"{t}-" + "-".join(map(str, p.values())) for t, p, _ in _BAD_PARAMS],
)
def test_builder_parameter_messages(token, params, message):
    with pytest.raises(ParameterRangeError) as caught:
        FAMILIES[token].build(**params)
    assert str(caught.value) == message
