"""Graph container, certificates, named graphs, and the two wire formats."""

import random
import time

import pytest

from packlab import (
    ColouringCertificate,
    Graph,
    Graph6Error,
    PackingCertificate,
    ParameterRangeError,
    complement,
    complete_multipartite,
    decode_graph6,
    degree_sequence,
    disjoint_union,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph,
    t_star,
    turan_complement,
    turan_edges,
    turan_graph,
    turan_sizes,
    validate_colouring,
    validate_packing,
)
from oracles import (
    decode_graph6_reference,
    edge_mask_reference,
    encode_graph6_reference,
    from_edge_mask_reference,
)


def complete(n):
    return Graph.complete(n)


def test_edge_mask_roundtrip():
    rng = random.Random(11)
    for n in range(0, 9):
        e = n * (n - 1) // 2
        for _ in range(20):
            mask = rng.getrandbits(e) if e else 0
            g = Graph.from_edge_mask(n, mask)
            assert g.edge_mask() == mask
            assert g.n == n
            assert g.edge_count == bin(mask).count("1")


def test_edges_and_degrees_agree():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert g.degrees() == [3, 2, 3, 2, 2]
    assert degree_sequence(g) == [2, 2, 2, 3, 3]
    assert g.degree(0) == 3
    assert g.has_edge(0, 2) and not g.has_edge(1, 3)


def test_complement_involution():
    rng = random.Random(5)
    for n in (1, 4, 7):
        e = n * (n - 1) // 2
        g = Graph.from_edge_mask(n, rng.getrandbits(e) if e else 0)
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == e


def test_disjoint_union():
    g = disjoint_union(complete(3), complete(2))
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_complete_multipartite_and_turan():
    g = complete_multipartite([2, 2, 2])
    assert g.edge_count == 12
    assert degree_sequence(g) == [4] * 6
    assert turan_sizes(7, 3) == [3, 2, 2]
    assert turan_graph(7, 3).edge_count == turan_edges(7, 3) == 16
    assert turan_graph(6, 3).edge_count == turan_edges(6, 3) == 12
    # fewer vertices than parts degenerates to a complete graph
    assert turan_graph(2, 3) == complete(2)
    tc = turan_complement(7, 3)
    assert tc.edge_count == 7 * 6 // 2 - 16
    assert sorted(len(c) for c in _components(tc)) == [2, 2, 3]


def _components(g):
    seen = set()
    out = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in range(g.n):
                if w not in comp and g.has_edge(u, w):
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(comp)
    return out


def test_t_star_shape():
    g = t_star(6, 3)
    # parts 2, 1, 3: complete multipartite
    assert g.edge_count == 11
    assert degree_sequence(g) == [3, 3, 3, 4, 4, 5]
    with pytest.raises(ParameterRangeError):
        t_star(7, 3)


def test_certificate_validation():
    g = disjoint_union(complete(3), complete(3))
    good = PackingCertificate(((0, 1, 2), (3, 4, 5)))
    assert validate_packing(g, good, 3)
    bad = PackingCertificate(((0, 1, 3), (2, 4, 5)))
    assert not validate_packing(g, bad, 3)
    short = PackingCertificate(((0, 1, 2),))
    assert not validate_packing(g, short, 3)

    h = complete_multipartite([2, 2, 2])
    cols = ColouringCertificate(((0, 1), (2, 3), (4, 5)))
    assert validate_colouring(h, cols, 3)
    assert not validate_colouring(complete(6), cols, 3)
    uneven = ColouringCertificate(((0,), (1, 2, 3), (4, 5)))
    assert not validate_colouring(h, uneven, 3)


def test_graph6_known_values():
    assert encode_graph6(complete(3)) == "Bw"
    assert encode_graph6(complete(4)) == "C~"
    assert encode_graph6(Graph.from_edge_mask(1, 0)) == "@"
    assert decode_graph6("Bw") == complete(3)
    assert decode_graph6("C~") == complete(4)
    assert decode_graph6("@").n == 1


def test_graph6_roundtrip_random():
    rng = random.Random(23)
    for n in list(range(0, 10)) + [40, 63, 100]:
        e = n * (n - 1) // 2
        mask = rng.getrandbits(e) if e else 0
        g = Graph.from_edge_mask(n, mask)
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(Graph6Error):
        decode_graph6("")
    with pytest.raises(Graph6Error):
        decode_graph6("B")  # truncated edge bits
    with pytest.raises(Graph6Error):
        decode_graph6("B" + chr(30))  # byte below printable range
    with pytest.raises(Graph6Error):
        decode_graph6("Bw~")  # trailing garbage


def test_codecs_match_per_bit_reference():
    rng = random.Random(29)
    for n in list(range(0, 71)) + [120]:
        e = n * (n - 1) // 2
        for _ in range(3):
            mask = rng.getrandbits(e) if e else 0
            g = Graph.from_edge_mask(n, mask)
            assert g == from_edge_mask_reference(n, mask), n
            assert g.edge_mask() == edge_mask_reference(g) == mask, n
            text = encode_graph6(g)
            assert text == encode_graph6_reference(g), n
            assert decode_graph6(text) == decode_graph6_reference(text) == g, n
    for n in (0, 1, 5):
        with pytest.raises(ParameterRangeError):
            Graph.from_edge_mask(n, 1 << (n * (n - 1) // 2))
        with pytest.raises(ParameterRangeError):
            Graph.from_edge_mask(n, -1)


def _long_header(n):
    return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))


@pytest.mark.parametrize("text", [
    "",
    ">>graph6<<",
    "B",  # truncated body
    "Bw~",  # trailing garbage
    "B" + chr(30),  # byte below the alphabet
    "B\x7f",  # byte above the alphabet
    "B\u00e9",  # not ASCII
    "~~????",  # sizes beyond 258047
    "~?",  # truncated long header
    _long_header(63) + "?" * 11,  # long header for n = 63 with a short body
    "~???",  # long header for n = 0
    "A@",  # n = 2: five padding bits, the last one set
    "B@",  # n = 3: three padding bits, the last one set
    "BC",  # n = 3: the first padding bit set
    "BA",  # n = 3: the middle padding bit set
    _long_header(63) + "?" * 325 + "@",  # n = 63: three padding bits, the last one set
    _long_header(63) + "~" * 326,  # n = 63: every padding bit set
])
def test_graph6_errors_match_reference(text):
    with pytest.raises(Graph6Error) as got:
        decode_graph6(text)
    with pytest.raises(Graph6Error) as want:
        decode_graph6_reference(text)
    assert str(got.value) == str(want.value)


def test_graph6_roundtrip_is_linear_time_at_n_1000():
    rng = random.Random(31)
    n = 1000
    mask = rng.getrandbits(n * (n - 1) // 2)
    t0 = time.perf_counter()
    g = Graph.from_edge_mask(n, mask)
    text = encode_graph6(g)
    back = decode_graph6(text)
    dt = time.perf_counter() - t0
    assert back == g and back.edge_mask() == mask
    assert text.startswith(_long_header(n)) and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    # the per-bit codecs (tests/oracles.py) take about 14 s for this round trip
    assert dt < 5.0, f"n = 1000 graph6 round trip took {dt:.2f}s"


def test_edge_list_roundtrip_and_autodetect():
    g = Graph(4, [(0, 1), (2, 3)])
    text = format_edge_list(g)
    assert text.splitlines()[0] == "n=4"
    assert parse_edge_list(text) == g
    assert parse_graph(text) == g
    assert parse_graph(encode_graph6(g)) == g
    assert parse_graph(encode_graph6(g), fmt="graph6") == g
    with pytest.raises(Graph6Error):
        parse_graph(text, fmt="graph6")
    with pytest.raises(ParameterRangeError):
        parse_edge_list("n=3\n0 5")


def test_adjacency_cap():
    from packlab.errors import CapExceededError

    g = Graph.from_edge_mask(63, 0)
    with pytest.raises(CapExceededError):
        g.adjacency_array()


def test_vertex_cap_binds_every_graph_builder(monkeypatch):
    """``PACKLAB_MAX_N`` refuses n above the cap on every path that makes a
    ``Graph``: the constructions, graph6 decoding and the edge-list parser."""
    import packlab.graph
    from packlab.constructions import FAMILIES

    h60 = FAMILIES["H"].build(n=60, d=2)
    graph6, edges = encode_graph6(h60), format_edge_list(h60)
    monkeypatch.setattr(packlab.graph, "MAX_VERTICES", 50)
    for make in (
        lambda: FAMILIES["H"].build(n=60, d=2),
        lambda: FAMILIES["G1"].build(n=60, r=3),
        lambda: Graph.from_edge_mask(60, 0),
        lambda: decode_graph6(graph6),
        lambda: parse_edge_list(edges),
        lambda: disjoint_union(complete(30), complete(30)),
        lambda: complete_multipartite([20, 20, 20]),
        lambda: complete(60),
    ):
        with pytest.raises(ParameterRangeError, match="n=60 exceeds the configured vertex cap 50"):
            make()
    assert FAMILIES["H"].build(n=50, d=2).n == 50
