"""Verification harness: exhaustive scans at enumerable sizes, report schema
and determinism, sampled-mode reproducibility, and the construction audit."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from bisect import bisect_right
from itertools import accumulate, islice
from collections import Counter
from math import comb, erfc, sqrt
from pathlib import Path

import numpy as np
import pytest

from packlab import (
    CapExceededError,
    Graph,
    ParameterRangeError,
    audit_constructions,
    audit_instance,
    banded_condition_profile,
    build_clique_plus_isolates,
    conjecture1_search,
    decode_graph6,
    disjunctive_condition_failures,
    encode_graph6,
    equitable_colouring,
    question1_search,
    sweep_hampath_condition,
    turan_graph,
    verify_mainthm1_threshold,
    verify_matching_threshold,
    verify_t1_threshold,
)
from packlab import _kernels as K
from packlab import verify as V
from packlab.cli import main
from packlab.verify import SplitMix64

SCHEMA_KEYS = {"task", "examined", "violations", "extremal", "status", "elapsed_ms"}


def test_matching_exhaustive_n4():
    rep = verify_matching_threshold(4)
    assert rep.status == "pass"
    assert rep.examined == 1 << 6
    assert rep.per_d[1]["edges"] == 3
    assert rep.extremal[0] == 3


def test_matching_exhaustive_n6():
    rep = verify_matching_threshold(6)
    assert rep.status == "pass"
    assert rep.examined == 1 << 15
    assert rep.per_d[1]["edges"] == 9
    assert rep.per_d[2]["edges"] == 9
    assert not rep.violations
    witness = decode_graph6(rep.extremal[1])
    assert witness.edge_count == 9


def test_t1_exhaustive():
    rep = verify_t1_threshold(6, 3)
    assert rep.status == "pass"
    assert rep.per_d[2]["edges"] == 3 and rep.per_d[3]["edges"] == 3
    # the extremal non-colourable graph matches the small-clique construction
    witness = decode_graph6(rep.extremal[1])
    assert witness.edge_count == build_clique_plus_isolates(6, 3).edge_count == 3
    assert not equitable_colouring(witness, 2).decision


def test_t1_single_parameter():
    rep = verify_t1_threshold(6, 3, big_d=2)
    assert rep.status == "pass"
    assert list(rep.per_d) == [2]


def test_mainthm1_exhaustive_duality():
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "pass"
    assert rep.per_d[2]["edges"] == 12 and rep.per_d[3]["edges"] == 12
    assert rep.extremal[0] == 12


def test_mainthm1_duality_compares_two_deciders(monkeypatch):
    """The packing side is decided by the packing subset programme, and each
    of its packings is validated; the colouring search re-decides only the
    per-D extremals, one for each of D = 2 and 3."""
    counts = {"packable_rows": 0, "validated": 0, "_colour_decide": 0}
    packable, colour, validate = K.packable_rows, K._colour_decide, V.validate_packing_rows

    def counted_pack(adjs, n, r):
        counts["packable_rows"] += len(adjs)
        return packable(adjs, n, r)

    def counted_colour(*args):
        counts["_colour_decide"] += 1
        return colour(*args)

    def counted_validate(adjs, blocks, r):
        counts["validated"] += len(adjs)
        return validate(adjs, blocks, r)

    monkeypatch.setattr(K, "packable_rows", counted_pack)
    monkeypatch.setattr(K, "_colour_decide", counted_colour)
    monkeypatch.setattr(V, "validate_packing_rows", counted_validate)
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "pass"
    assert counts == {"packable_rows": 12068, "validated": 4106, "_colour_decide": 2}


def test_report_schema_and_serialization():
    rep = verify_t1_threshold(6, 3)
    blob = json.loads(rep.to_json())
    assert set(blob) == SCHEMA_KEYS
    assert blob["status"] == "pass"
    assert blob["elapsed_ms"] == 0
    assert blob["extremal"] == {"edges": 3, "graph6": rep.extremal[1]}
    assert blob["task"] == {"predicate": "t1", "n": 6, "mode": "exhaustive", "r": 3}
    assert isinstance(blob["violations"], list)


def test_workers_do_not_change_reports():
    for fn, args in (
        (verify_matching_threshold, (6,)),
        (verify_t1_threshold, (6, 3)),
        (verify_mainthm1_threshold, (6, 3)),
    ):
        blobs = {fn(*args, workers=w).to_json() for w in (1, 2, 4)}
        assert len(blobs) == 1


def test_exhaustive_cap_enforced():
    with pytest.raises(ParameterRangeError):
        verify_matching_threshold(8)  # beyond the default cap
    with pytest.raises(ParameterRangeError):
        verify_matching_threshold(8, n_cap=12)  # beyond the hard cap
    rep = verify_matching_threshold(8, d=1, mode="sampled", seed=5, samples=50)
    assert rep.status == "pass"


def test_sampled_requires_seed_and_samples():
    with pytest.raises(ParameterRangeError):
        verify_matching_threshold(8, d=1, mode="sampled", samples=50)
    with pytest.raises(ParameterRangeError):
        verify_matching_threshold(8, d=1, mode="sampled", seed=5)
    with pytest.raises(ParameterRangeError):
        verify_t1_threshold(12, 3, mode="sampled", seed=5, samples=50)  # needs D


def test_sampled_seed_must_fit_64_bits():
    """Seeds outside [0, 2^64) would alias seeds inside it, since splitmix64
    reads 64 bits; they are refused and both ends of the range run."""
    for seed in (-1, 1 << 64):
        with pytest.raises(ParameterRangeError, match="seed"):
            conjecture1_search(6, 3, mode="sampled", seed=seed, samples=10)
        with pytest.raises(ParameterRangeError, match="seed"):
            verify_t1_threshold(6, 3, big_d=2, mode="sampled", seed=seed, samples=10)
    for seed in (0, (1 << 64) - 1):
        rep = conjecture1_search(6, 3, mode="sampled", seed=seed, samples=10)
        assert json.loads(rep.to_json())["task"]["seed"] == seed


def test_sampled_reproducible_and_seed_sensitive():
    a = verify_t1_threshold(12, 3, big_d=4, mode="sampled", seed=42, samples=200)
    b = verify_t1_threshold(12, 3, big_d=4, mode="sampled", seed=42, samples=200)
    assert a.status == "pass"
    assert a.to_json() == b.to_json()
    c1 = conjecture1_search(12, 3, mode="sampled", seed=7, samples=5000)
    c2 = conjecture1_search(12, 3, mode="sampled", seed=8, samples=5000)
    assert c1.status == c2.status == "pass"
    assert c1.condition_count != c2.condition_count  # different streams


def test_mainthm1_sampled_cross_checks():
    rep = verify_mainthm1_threshold(12, 3, big_d=7, mode="sampled", seed=3, samples=100)
    assert rep.status == "pass"
    assert rep.examined == 100


def test_conj1_ques1_exhaustive():
    c = conjecture1_search(6, 3)
    assert c.status == "pass"
    assert not c.violations
    assert c.condition_count > 0  # K_6 satisfies the bands
    q = question1_search(6, 3)
    assert q.status == "pass"
    assert not q.problems
    # the disjunctive condition is implied by the banded one
    assert q.condition_count >= c.condition_count


def test_condition_profiles_on_named_graphs():
    k6 = Graph.complete(6)
    assert banded_condition_profile(k6, 3) == ((), True)
    assert disjunctive_condition_failures(k6, 3) == ()
    t = turan_graph(6, 3)
    assert disjunctive_condition_failures(t, 3) == ()
    empty = Graph(6)
    fails, beta_ok = banded_condition_profile(empty, 3)
    assert fails == (1,) and not beta_ok
    assert disjunctive_condition_failures(empty, 3) == (1, 2)


# (examined, condition-true count, witnesses) of each sweep, as produced
# before the sweep and the condition searches shared one clause-table kernel.
HAMPATH_SWEEPS = {
    2: (2, 1, ()),
    3: (8, 4, ()),
    4: (64, 34, ()),
    5: (1024, 573, ()),
    6: (32768, 17098, ()),
}


def test_sweep_hampath_condition_small():
    for n in (2, 3, 4, 5, 6):
        examined, cond_true, violations = sweep_hampath_condition(n)
        assert examined == 1 << (n * (n - 1) // 2)
        assert violations == ()
        assert 0 < cond_true <= examined
        assert (examined, cond_true, violations) == HAMPATH_SWEEPS[n]


def test_hampath_sweep_overflow_keeps_first_witnesses(monkeypatch):
    # an empty clause table, and a re-check condition to match, hold for
    # every graph, so each graph without a Hamilton path is a violation;
    # 16-mask blocks make the 64 graphs four
    monkeypatch.setattr(V, "_degree_clauses", lambda *args: ())
    monkeypatch.setattr(V, "chvatal_hampath_condition", lambda g: True)
    monkeypatch.setattr(V, "SAMPLE_BATCH", 16)
    examined, cond_true, full = sweep_hampath_condition(4)
    assert examined == cond_true == 64 and len(full) > 5
    monkeypatch.setattr(V, "VIOLATION_BUFFER", 5)
    kept = f"^{len(full)} violations found; the report keeps the first 5$"
    with pytest.warns(RuntimeWarning, match=kept):
        assert sweep_hampath_condition(4) == (64, 64, full[:5])


def test_hampath_sweep_witness_recheck_failure_warns(monkeypatch):
    # an empty clause table, and a re-check condition to match, make the 30
    # graphs on 4 vertices without a Hamilton path violations that re-check
    monkeypatch.setattr(V, "_degree_clauses", lambda *args: ())
    monkeypatch.setattr(V, "chvatal_hampath_condition", lambda g: True)
    examined, cond_true, witnesses = sweep_hampath_condition(4)
    assert len(witnesses) == 30

    class Yes:
        decision = True

    monkeypatch.setattr(V, "hamilton_path_exact", lambda g: Yes())
    with pytest.warns(RuntimeWarning) as caught:
        assert sweep_hampath_condition(4) == (examined, cond_true, witnesses)
    assert [str(w.message) for w in caught] == [
        f"witness {g6} failed re-validation" for g6 in witnesses
    ]


def test_splitmix64_reference_values():
    # first outputs for seed 1234567, from the published reference sequence
    assert SplitMix64(1234567).words(3).tolist()[:2] == [
        6457827717110365317, 3203168211198807973]
    assert SplitMix64(0).words(3)[0] == 16294208416658607535
    # the reference's bounded draws: a bound of 1 reads no word, one of
    # 2^64 a whole word, one of 2 its top bit; draws stay in range
    stream = _splitmix64_stream(99)
    first, second = _splitmix64_reference(99, 2)
    assert [_next_below(stream, 1), _next_below(stream, 1 << 64), _next_below(stream, 2)] == [
        0, first, second >> 63]
    assert all(0 <= _next_below(stream, 10) < 10 for _ in range(50))


def _splitmix64_stream(seed):
    """The classic state-stepping splitmix64, one word at a time."""
    mask = (1 << 64) - 1
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _splitmix64_reference(seed, count):
    """The first ``count`` words of the classic state-stepping splitmix64."""
    return list(islice(_splitmix64_stream(seed), count))


def _next_below(stream, bound):
    """Uniform integer in [0, bound) by bit-rejection, the sampler's draw
    rule: the top bits of as many whole words of ``stream`` as the bound
    needs, high word first, redrawn until below the bound."""
    bits = (bound - 1).bit_length()
    x = bound
    while x >= bound:
        x = 0
        for _ in range(-(-bits // 64)):  # none for a bound of 1
            x = x << 64 | next(stream)
        x >>= -bits % 64
    return x


@pytest.mark.parametrize("seed", [0, 1, 34, (1 << 63) + 5])
def test_splitmix64_words_match_reference(seed):
    """Successive ``words`` calls read one stream."""
    rng = SplitMix64(seed)
    got = []
    for count in (4000, 200, 0, 1, 9000):
        block = rng.words(count)
        assert block.dtype == np.uint64 and len(block) == count
        got += block.tolist()
    assert got == _splitmix64_reference(seed, len(got))


def test_audit_instance_good_and_structural():
    assert audit_instance("H", {"n": 6, "d": 2}) == []
    assert audit_instance("G2", {"n": 24, "r": 3, "D": 21}) == []
    assert audit_instance("square_cx", {"n": 69, "C": 1, "K": 5}) == []


def test_audit_constructions_small_grid():
    rep = audit_constructions(max_n=24)
    assert rep.status == "pass"
    assert rep.examined > 100
    assert rep.violations == ()
    blob = json.loads(rep.to_json())
    assert set(blob) == SCHEMA_KEYS


# Injected audit faults.  ``verify`` imports ``FAMILIES``, ``expected_edges``
# and ``expected_degree_bands`` by name, so the claims are patched there; the
# ``FAMILIES`` dict is shared, so a patched builder is seen by both.


def test_audit_catches_an_edge_count_off_by_one(monkeypatch):
    claimed = V.expected_edges
    monkeypatch.setattr(V, "expected_edges", lambda token, **p: claimed(token, **p) + 1)
    assert audit_instance("H", {"n": 6, "d": 2}) == ["edge count 9 != 10"]
    assert audit_instance("G2", {"n": 24, "r": 3, "D": 21}) == ["edge count 22 != 23"]


def test_audit_catches_bands_with_the_right_degree_sum(monkeypatch):
    """One vertex moves up one degree and another down one: the edge count
    still matches, so only the degree multiset can tell."""
    claimed = V.expected_degree_bands

    def shifted(token, **p):
        bands = claimed(token, **p)
        (c0, d0), *mid, (c1, d1) = bands
        return [(c0 - 1, d0), (1, d0 + 1), *mid, (1, d1 - 1), (c1 - 1, d1)]

    monkeypatch.setattr(V, "expected_degree_bands", shifted)
    params = {"n": 10, "d": 2}
    bands = shifted("H", **params)
    assert bands == [(2, 2), (1, 3), (5, 6), (1, 8), (1, 9)]
    assert sum(c * d for c, d in bands) == 2 * V.expected_edges("H", **params)
    assert audit_instance("H", params) == ["degree sequence differs from the claimed bands"]



@pytest.mark.parametrize(
    "edit",
    [
        lambda bands: bands[::-1],
        lambda bands: [(bands[0][0] - 1, bands[0][1]), *bands[1:]],
        lambda bands: [bands[0], (bands[1][0] - 1, bands[1][1]), *bands[2:]],
        lambda bands: [(bands[0][0] + 1, bands[0][1]), *bands[1:]],
        lambda bands: [*bands[:-1], (bands[-1][0] + 1, bands[-1][1])],
        lambda bands: [*bands, (1, bands[-1][1])],
    ],
    ids=["reversed", "first-short", "second-short", "first-long", "last-long", "extra-band"],
)
def test_audit_catches_misordered_or_miscounted_bands(monkeypatch, edit):
    claimed = V.expected_degree_bands
    monkeypatch.setattr(V, "expected_degree_bands", lambda token, **p: edit(claimed(token, **p)))
    for params in ({"n": 10, "d": 2}, {"n": 10, "d": 0}):
        assert audit_instance("H", params) == ["degree sequence differs from the claimed bands"]


def test_audit_passes_bands_with_a_zero_count_band(monkeypatch):
    """H at d = 0 claims a zero-count band of degree n - 1; one added
    between two true bands is passed over too."""
    assert V.expected_degree_bands("H", n=10, d=0) == [(1, 0), (9, 8), (0, 9)]
    assert audit_instance("H", {"n": 10, "d": 0}) == []
    claimed = V.expected_degree_bands
    monkeypatch.setattr(
        V, "expected_degree_bands",
        lambda token, **p: [claimed(token, **p)[0], (0, 5), *claimed(token, **p)[1:]],
    )
    assert audit_instance("H", {"n": 10, "d": 2}) == []
    assert audit_instance("H", {"n": 10, "d": 0}) == []

def test_audit_reports_a_builder_that_drops_one_edge(monkeypatch):
    faulty = {"n": 18, "r": 3, "D": 9}
    real = V.FAMILIES["G2"]

    def build(**p):
        g = real.build(**p)
        return Graph(g.n, list(g.edges())[1:]) if p == faulty else g

    monkeypatch.setitem(V.FAMILIES, "G2", dataclasses.replace(real, build=build))
    rep = audit_constructions(max_n=24)
    assert rep.status == "fail"
    assert rep.violations == (encode_graph6(build(**faulty)),)
    assert rep.violations[0] != encode_graph6(real.build(**faulty))
    assert rep.problems == (
        "G2(n=18,r=3,D=9): edge count 36 != 37; degree sequence differs from the claimed bands",
    )


def test_audit_catches_a_wrong_extremal2_boundary_degree(monkeypatch):
    """The last vertex of C joined to A takes the boundary degree from
    n - k - 1 to n - 1.  The claimed bands are patched to the faulty graph's
    own, so the band check passes and the boundary check has to fire."""
    real = V.FAMILIES["extremal2"]

    def build(n, r, k):
        g = real.build(n=n, r=r, k=k)
        return Graph(n, [*g.edges(), *((a, n - 1) for a in range(k))])

    def own_bands(token, **p):
        d = sorted(build(**p).degrees())
        return [(d.count(x), x) for x in sorted(set(d))]

    monkeypatch.setitem(V.FAMILIES, "extremal2", dataclasses.replace(real, build=build))
    monkeypatch.setattr(V, "expected_degree_bands", own_bands)
    found = audit_instance("extremal2", {"n": 12, "r": 3, "k": 2})
    assert "boundary degree differs from the claimed value" in found
    assert "degree sequence differs from the claimed bands" not in found


def _swap_0_8(g):
    swap = {0: 8, 8: 0}
    return Graph(g.n, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges()])


@pytest.mark.parametrize("token, params, edit, problems", [
    # the degree multiset is unchanged, so no other check sees the swap
    ("af_i", {"n": 9, "r": 3}, _swap_0_8,
     ["complement is not the clique-plus-isolates graph"]),
    ("extremal1", {"n": 12, "r": 3, "k": 2}, lambda g: Graph(g.n, [*g.edges(), (0, 6)]),
     ["degree sequence differs from the claimed bands", "banded condition fails at () (beta True)",
      "unexpected perfect packing"]),
    ("square_cx", {"n": 69, "C": 1, "K": 5},
     lambda g: Graph(g.n, [e for e in g.edges() if e != (0, 1)]),
     ["centre degree differs from n/3 + C + 1", "degree band fails at indices [1]"]),
], ids=["af_i", "extremal1", "square_cx"])
def test_audit_family_checks_fire(monkeypatch, token, params, edit, problems):
    """A builder edited by one swap, added edge or dropped edge trips the
    family's own structural checks."""
    real = V.FAMILIES[token]
    monkeypatch.setitem(V.FAMILIES, token,
                        dataclasses.replace(real, build=lambda **p: edit(real.build(**p))))
    assert audit_instance(token, params) == problems


@pytest.mark.parametrize("token, params, graph, problem", [
    ("H", {"n": 6, "d": 2}, Graph.complete(6), "unexpected perfect matching"),
    ("G1", {"n": 6, "r": 3}, Graph(6), "unexpected equitable colouring"),
    ("t_star", {"n": 6, "r": 3}, turan_graph(6, 3), "unexpected perfect packing"),
])
def test_audit_blocking_check_reports_what_the_solvers_find(monkeypatch, token, params, graph,
                                                            problem):
    """A builder that returns a graph with the property its family blocks;
    the structural claims are switched off, so only the solvers can tell."""
    monkeypatch.setitem(V.FAMILIES, token, dataclasses.replace(V.FAMILIES[token],
                                                               build=lambda **p: graph))
    monkeypatch.setattr(V, "expected_edges", lambda token, **p: None)
    monkeypatch.setattr(V, "expected_degree_bands", lambda token, **p: None)
    assert audit_instance(token, params) == [problem]


def test_audit_blocking_check_stops_at_the_solver_cap(monkeypatch):
    """At the default solver cap of 12, or 14 for r = 2 (H counts as r = 2),
    the solvers run; past it they do not run at all."""
    calls = []

    class Yes:
        decision = True

    def found(*args, **kwargs):
        calls.append(args)
        return Yes()

    monkeypatch.setattr(V, "perfect_kr_packing", found)
    monkeypatch.setattr(V, "equitable_colouring", found)
    for token, params, problem in (
        ("H", {"n": 14, "d": 3}, "unexpected perfect matching"),
        ("af_i", {"n": 14, "r": 2}, "unexpected perfect packing"),
        ("t_star", {"n": 12, "r": 3}, "unexpected perfect packing"),
        ("G1", {"n": 12, "r": 3}, "unexpected equitable colouring"),
    ):
        assert audit_instance(token, params) == [problem]
    assert len(calls) == 4
    for token, params in (
        ("H", {"n": 16, "d": 3}),
        ("af_i", {"n": 16, "r": 2}),
        ("t_star", {"n": 15, "r": 3}),
        ("G1", {"n": 15, "r": 3}),
        ("t_star", {"n": 14, "r": 7}),
    ):
        assert audit_instance(token, params) == []
    assert len(calls) == 4


def test_t1_parameter_validation():
    with pytest.raises(ParameterRangeError):
        verify_t1_threshold(7, 3)
    with pytest.raises(ParameterRangeError):
        verify_t1_threshold(6, 2)
    with pytest.raises(ParameterRangeError):
        verify_t1_threshold(6, 3, big_d=4)
    with pytest.raises(ParameterRangeError):
        verify_matching_threshold(6, mode="bogus")


# SHA-256 of each report's JSON, per-parameter table (extremal masks
# included), condition count and problems, as produced before the three
# threshold checks shared one pipeline; the exhaustive condition searches
# (6,3), before they shared one clause-table kernel with the Hamilton sweep.
# Any change to a scan's tie rule, a sampler's draw order or a report field
# shows up here.
GOLDEN_REPORTS = {
    "matching(6)": "2c1c80016310e8f951df52c9f4d91aad6c8390743eefc85685c1ff52211d165a",
    "matching(6,d=1)": "0e3747908c832d74efd5433d6558e7b90b15f37462df2f99f9f39a14d0d75ff5",
    "t1(6,3)": "04e4ab16474b2a0b7b97865d9b399a9bac5ea91efad97e8b2d2771a229e813c3",
    "t1(6,3,D=2)": "9196b18e77f90ea2b5dc83d49dfa26eb1275a2724c1d829c6a31896c1b48d354",
    "t1(6,3,D=3)": "643007dcafe6baf6cbbb9936593567109141fddc39331bbea79a8db18d906ff8",
    "mainthm1(6,3)": "4731e7101835d58eb048400e771ea3b9d4c3f9fdb951e24c05008f7113cfdb41",
    "mainthm1(6,3,D=2)": "3ce770cc5b87355fa0d3322a7cfc203978262842b16c670b2dd4841521a26530",
    "mainthm1(6,3,D=3)": "208a34d8f535e1220a1ab5df26f61c9a7eec39ccc3702bccf88bec9f158ffb16",
    "matching(12,d=3)": "46c479635691a8cae0677064db6029306e409d5eb36935d17ef77239eab6c696",
    "t1(12,3,D=5)": "0af05119696cf2f8b359e6042fe4e942f83b99a202eb041537fa7a5f6255859f",
    "mainthm1(12,3,D=4)": "2171de849ca139ee8797b678cf03523e833bac9e2e284dfd9f5eca894082d3c8",
    "conj1(12,3)": "1bc0827d74d2e99ba6e63e13fdac212c256777440ff6d5425e2f72b84d9e13bb",
    "ques1(12,3)": "a842494b20e2065212a26d57eb144897db11d2057ad862bb43af587bd79670c8",
    "conj1(6,3)": "88f606f57b5f444a74a365ed9ab078d1fab7eadcf158f443d65f1be2794b1d6a",
    "conj1(6,3,workers=2)": "88f606f57b5f444a74a365ed9ab078d1fab7eadcf158f443d65f1be2794b1d6a",
    "ques1(6,3)": "a525691bbcc712d8a4cfcf82207f8d2ced08a57c7d4e0e6c7dab7c4de0c5d98c",
    "ques1(6,3,workers=2)": "a525691bbcc712d8a4cfcf82207f8d2ced08a57c7d4e0e6c7dab7c4de0c5d98c",
}


_SAMPLED = {"mode": "sampled", "samples": 200}
GOLDEN_RUNS = {
    "matching(6)": lambda: verify_matching_threshold(6),
    "matching(6,d=1)": lambda: verify_matching_threshold(6, d=1),
    "t1(6,3)": lambda: verify_t1_threshold(6, 3),
    "t1(6,3,D=2)": lambda: verify_t1_threshold(6, 3, big_d=2),
    "t1(6,3,D=3)": lambda: verify_t1_threshold(6, 3, big_d=3),
    "mainthm1(6,3)": lambda: verify_mainthm1_threshold(6, 3),
    "mainthm1(6,3,D=2)": lambda: verify_mainthm1_threshold(6, 3, big_d=2),
    "mainthm1(6,3,D=3)": lambda: verify_mainthm1_threshold(6, 3, big_d=3),
    "matching(12,d=3)": lambda: verify_matching_threshold(12, d=3, seed=31, **_SAMPLED),
    "t1(12,3,D=5)": lambda: verify_t1_threshold(12, 3, big_d=5, seed=32, **_SAMPLED),
    "mainthm1(12,3,D=4)": lambda: verify_mainthm1_threshold(
        12, 3, big_d=4, seed=33, **_SAMPLED
    ),
    "conj1(12,3)": lambda: conjecture1_search(
        12, 3, mode="sampled", seed=34, samples=5000
    ),
    "ques1(12,3)": lambda: question1_search(
        12, 3, mode="sampled", seed=35, samples=5000
    ),
    "conj1(6,3)": lambda: conjecture1_search(6, 3),
    "conj1(6,3,workers=2)": lambda: conjecture1_search(6, 3, workers=2),
    "ques1(6,3)": lambda: question1_search(6, 3),
    "ques1(6,3,workers=2)": lambda: question1_search(6, 3, workers=2),
}

# The same digests without ``problems``, of exhaustive runs and one sampled
# run that hit a node cap of 8.  They pin the abort accounting: examined
# counts stop at the first graph, in mask or sample order, that hits the
# cap, and extrema and violations cover only the graphs decided before it.
ABORTED_REPORTS = {
    "matching(6)": "89c819543a8d8d6c04091d88409052db1f2ca052c5eb90a677fa6c4fef276ff7",
    "t1(6,3)": "fe28e3ddabe0121d31643eb0730af4ed1a083a4f40573cbc3a10b16ecc8739f5",
    "mainthm1(6,3)": "cd675f08f78cd874cca383b89e454e13a39f7ac75beeab7a73fbc7f5e0831402",
    "conj1(6,3)": "913aa2477d7a3ba721b538ea7c19474c94b9efdf3732558eba453edd683c83ad",
    "ques1(6,3)": "1a4579140020a4399c1fa615b102132dbbbfee4b7165c9292a69b2ef12d8d890",
    "conj1(12,3)": "f6ee3b71bfc5e5ce966c0692883895014062fa94659a6eebdf5d299280b947f2",
}
ABORTED_RUNS = {
    "matching(6)": lambda **kw: verify_matching_threshold(6, **kw),
    "t1(6,3)": lambda **kw: verify_t1_threshold(6, 3, **kw),
    "mainthm1(6,3)": lambda **kw: verify_mainthm1_threshold(6, 3, **kw),
    "conj1(6,3)": lambda **kw: conjecture1_search(6, 3, **kw),
    "ques1(6,3)": lambda **kw: question1_search(6, 3, **kw),
    "conj1(12,3)": lambda **kw: conjecture1_search(
        12, 3, mode="sampled", seed=34, samples=5000, **kw
    ),
}


def _report_digest(rep, problems=True):
    fields = {"json": rep.to_json(), "per_d": rep.per_d, "condition_count": rep.condition_count}
    if problems:
        fields["problems"] = list(rep.problems)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def test_reports_match_golden_digests():
    got = {name: _report_digest(run()) for name, run in GOLDEN_RUNS.items()}
    assert got == GOLDEN_REPORTS


def _aborted_digest(name, workers=1):
    return _report_digest(ABORTED_RUNS[name](node_cap=8, workers=workers), problems=False)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(ABORTED_REPORTS))
def test_aborted_reports_match_pins(name, workers):
    assert _aborted_digest(name, workers) == ABORTED_REPORTS[name]


def test_block_size_does_not_change_exhaustive_reports(monkeypatch):
    """Blocks of 7 masks split the mask space unevenly, so block edges fall
    between a graph and the graph it ties with or aborts after."""
    monkeypatch.setattr(V, "SAMPLE_BATCH", 7)
    for name, run in GOLDEN_RUNS.items():
        if "(12," not in name:
            assert _report_digest(run()) == GOLDEN_REPORTS[name], name
    for name in ABORTED_REPORTS:
        if "(12," not in name:
            assert _aborted_digest(name) == ABORTED_REPORTS[name], name


def _first_capped_mask(n, r, complement=False):
    """The first graph in mask order, or the first complement, with no
    isolated vertex on which the packing search reaches a node cap of 8."""
    for mask in range(1 << (n * (n - 1) // 2)):
        g = Graph.from_edge_mask(n, mask)
        g = g.complement() if complement else g
        if min(g.degrees()) > 0 and K._pack_decide(g.adjacency_array().tolist(), n, r, 8)[0] == -1:
            return mask
    return None


def test_exhaustive_abort_stops_at_first_capped_graph():
    """The abort point, found without the block driver, ends ``examined``."""
    assert _first_capped_mask(6, 2) == 1183
    assert _first_capped_mask(6, 3, complement=True) == 44
    assert ABORTED_RUNS["matching(6)"](node_cap=8).examined == 1184
    assert ABORTED_RUNS["t1(6,3)"](node_cap=8).examined == 45


def test_block_size_does_not_change_sampled_aborted_report(monkeypatch):
    """The samplers draw the same stream in blocks of 7, so their reports
    keep their digests and an abort stops the counts at the same sample."""
    monkeypatch.setattr(V, "SAMPLE_BATCH", 7)
    for name, run in GOLDEN_RUNS.items():
        if "(12," in name:
            assert _report_digest(run()) == GOLDEN_REPORTS[name], name
    assert _aborted_digest("conj1(12,3)") == ABORTED_REPORTS["conj1(12,3)"]
    rep = ABORTED_RUNS["conj1(12,3)"](node_cap=8)
    assert (rep.examined, rep.condition_count) == (956, 1)
    # an empty clause table keeps every sample, so the condition count stops
    # with ``examined`` at the sample that aborts
    for batch in (7, 4096):
        monkeypatch.setattr(V, "SAMPLE_BATCH", batch)
        rng = SplitMix64(34)  # two 64-bit words per 66-slot row
        examined, cond_true, viol, aborted, _ = V._search(
            12, 3, 5000, lambda s, e: rng.words(2 * (e - s)).reshape(-1, 2),
            lambda degs: V._condition_rows(degs, ()), 100, [],
        )
        assert (examined, cond_true, len(viol), aborted) == (16, 16, 6, True)


@pytest.mark.parametrize("name", ["matching(6)", "mainthm1(6,3)", "conj1(6,3)", "conj1(12,3)"])
def test_node_cap_abort_gives_reason(name):
    rep = ABORTED_RUNS[name](node_cap=8)
    assert rep.status == "aborted"
    assert rep.problems == ("node cap of 8 reached",)


def _first_capped_graph(n, r, floor, cap):
    """The first graph in mask order with min degree >= ``floor`` on which
    the packing search reaches ``cap``, or None where none does."""
    for mask in range(1 << comb(n, 2)):
        g = Graph.from_edge_mask(n, mask)
        if min(g.degrees()) >= floor and K._pack_decide(
            g.adjacency_array().tolist(), n, r, cap
        )[0] == -1:
            return mask
    return None


def test_exhaustive_duality_cap_aborts_on_colouring_nodes():
    """Below ``K.pack_node_bound`` (56 at (6, 3)) the packing search decides
    row by row and stops the run at the first graph that reaches the cap:
    at a cap of 8 the graph of mask 3295, at 14 that of mask 18431.  No
    6-vertex graph takes the packing search past 15 nodes, so at 15 the
    scan finishes, but the direct colouring search that re-solves the
    extremals' duality can take 25 and aborts the run; at 25 the run passes
    with the report of the default cap."""
    assert _first_capped_graph(6, 3, 2, 8) == 3295
    assert ABORTED_RUNS["mainthm1(6,3)"](node_cap=8).examined == 3296
    assert _aborted_digest("mainthm1(6,3)") == ABORTED_REPORTS["mainthm1(6,3)"]
    assert _first_capped_graph(6, 3, 2, 14) == 18431
    rep = verify_mainthm1_threshold(6, 3, node_cap=14)
    assert (rep.status, rep.examined) == ("aborted", 18432)
    assert rep.problems == ("node cap of 14 reached",)
    assert _first_capped_graph(6, 3, 2, 15) is None
    rep = verify_mainthm1_threshold(6, 3, node_cap=15)
    assert (rep.status, rep.examined) == ("aborted", 1 << 15)
    assert rep.problems == ("node cap of 15 reached",)
    assert verify_mainthm1_threshold(6, 3, node_cap=25) == verify_mainthm1_threshold(6, 3)


def test_violation_recheck_cap_aborts(monkeypatch):
    """A threshold one too low makes violations of the densest graphs that
    do not pack; re-solving them with the direct colouring search at a cap
    of 15, which the scan itself never reaches, aborts the run."""
    real = V.packing_threshold
    monkeypatch.setattr(V, "packing_threshold",
                        lambda *a: dataclasses.replace(real(*a), value=real(*a).value - 1))
    rep = verify_mainthm1_threshold(6, 3, node_cap=15)
    assert (rep.status, rep.examined, len(rep.violations)) == ("aborted", 1 << 15, 20)
    assert rep.problems == ("node cap of 15 reached",)


def _flip_rows(monkeypatch, targets):
    """Make ``K.packable_rows`` flip its answer on the rows equal to any of
    ``targets`` (neighbour masks), and keep their packings."""
    packable = K.packable_rows

    def flipped(adjs, n, r):
        ok, blocks = packable(adjs, n, r)
        for target in targets:
            ok ^= (adjs == target).all(axis=1)
        return ok, blocks

    monkeypatch.setattr(K, "packable_rows", flipped)


def _certificate_problem(g6):
    return f"packing certificate failed validation on 1 of the decided graphs; the first is {g6}"


def test_mainthm1_names_disagreeing_graph(monkeypatch):
    """A packing decider that calls one non-packable 8-edge graph packable
    (mask 3294; the threshold is 12) moves no total, but it has no packing
    to show, so its certificate fails and names the graph.  The row-by-row
    search is held to the same check.  An extremal whose complement the
    colouring solver colours fails the report too."""
    g6 = V._witness(6, 3294)
    target = Graph.from_edge_mask(6, 3294).adjacency_array()
    with monkeypatch.context() as m:
        _flip_rows(m, [target])
        rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "fail" and not rep.violations
    assert rep.problems == (_certificate_problem(g6),)

    search = K._pack_decide

    def says_yes(adj, n, r, cap):  # every vertex in order, as if it packed
        return (1, 1, list(range(n))) if adj == target.tolist() else search(adj, n, r, cap)

    with monkeypatch.context() as m:
        m.setattr(K, "_pack_decide", says_yes)
        rep = verify_mainthm1_threshold(6, 3, node_cap=20)  # below the bound: row by row
    assert rep.status == "fail" and not rep.violations
    assert rep.problems == (_certificate_problem(g6),)

    class Yes:
        decision = True

    # a colouring solver that colours each extremal's complement
    monkeypatch.setattr(V, "equitable_colouring", lambda *args, **kwargs: Yes())
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "fail"
    assert rep.problems == tuple(
        f"D={dd}: extremal {rep.per_d[dd]['graph6']} failed the duality" for dd in (2, 3)
    )


def test_t1_uncertified_colouring_is_named(monkeypatch):
    """t1 has no second decider: a packing decider that calls the
    complement of mask 15 (a triangle with a pendant edge, 4 edges, above
    the threshold of 3, so no violation) packable moves no printed number,
    and only its certificate shows the fault."""
    g6 = V._witness(6, 15)
    _flip_rows(monkeypatch, [Graph.from_edge_mask(6, 15).complement().adjacency_array()])
    rep = verify_t1_threshold(6, 3)
    assert rep.status == "fail" and not rep.violations
    assert rep.problems == (_certificate_problem(g6),)
    assert json.loads(rep.to_json())["status"] == "fail"


def _corrupt_packing(monkeypatch, mask, spoil):
    """Make ``K.packable_rows`` hand back ``spoil(blocks)`` as the packing of
    the 6-vertex graph of ``mask``, which packs."""
    packable = K.packable_rows
    target = Graph.from_edge_mask(6, mask).adjacency_array()

    def corrupted(adjs, n, r):
        ok, blocks = packable(adjs, n, r)
        at = (adjs == target).all(axis=1)
        assert ok[at].all()
        blocks[at] = spoil(blocks[at])
        return ok, blocks

    monkeypatch.setattr(K, "packable_rows", corrupted)


def test_certificate_missing_a_vertex_fails(monkeypatch):
    """Two disjoint triangles (mask 25095) pack; a packing whose first block
    lost its lowest vertex covers five vertices and fails."""
    def drop_lowest(blocks):
        blocks[:, 0] &= blocks[:, 0] - 1
        return blocks

    _corrupt_packing(monkeypatch, 25095, drop_lowest)
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "fail" and not rep.violations
    assert rep.problems == (_certificate_problem(V._witness(6, 25095)),)


def test_certificate_block_not_a_clique_fails(monkeypatch):
    """The same graph's packing with vertices 2 and 3 swapped, {0, 1, 3}
    and {2, 4, 5}, still partitions the vertices into triples, but neither
    triple is a triangle of the graph."""
    assert Graph.from_edge_mask(6, 25095) == Graph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    _corrupt_packing(monkeypatch, 25095, lambda blocks: [0b001011, 0b110100])
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "fail" and not rep.violations
    assert rep.problems == (_certificate_problem(V._witness(6, 25095)),)
    assert main(["verify", "mainthm1", "--n", "6", "--r", "3"]) == 1


def test_extremal_duality_runs_colouring_search(monkeypatch):
    """The extremal's duality re-solve runs the direct colouring search, not
    a packing of the complement's complement: a colouring search that
    colours everything makes it fail, though the packing deciders are
    honest."""
    def colour_all(adj, n, k, cap):
        return 1, 0, [v % k for v in range(n)]

    monkeypatch.setattr(K, "_colour_decide", colour_all)
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "fail" and not rep.violations
    assert rep.problems == tuple(f"D={dd}: extremal E~z_ failed the duality" for dd in (2, 3))


def test_matching_extremal_is_re_solved(monkeypatch):
    """A packing decider that calls every 9-edge 6-vertex graph unpackable
    moves no total and makes no violation (the threshold at d = 1 is 9), but
    the extremal it yields, the first 9-edge graph, has a perfect matching."""
    packable = K.packable_rows

    def no_nine(adjs, n, r):
        ok, blocks = packable(adjs, n, r)
        return ok & (np.bitwise_count(adjs).sum(axis=1) != 18), blocks

    monkeypatch.setattr(K, "packable_rows", no_nine)
    rep = verify_matching_threshold(6)
    assert (rep.status, rep.violations, rep.extremal) == ("fail", (), (9, "E~q?"))
    assert rep.problems == ("d=1: extremal E~q? failed the duality",)


def test_t1_extremal_is_re_solved(monkeypatch):
    """A packing decider flipped on the complements of the triangle ``Ew??``
    (mask 7) and the star ``Es??`` (mask 11) calls the triangle colourable
    and the star not.  The star then becomes the 3-edge extremal at D = 3,
    and the direct colouring search colours it; the triangle has no
    colouring to show, so its certificate fails."""
    assert [V._witness(6, m) for m in (7, 11)] == ["Ew??", "Es??"]
    _flip_rows(monkeypatch, [
        Graph.from_edge_mask(6, m).complement().adjacency_array() for m in (7, 11)
    ])
    rep = verify_t1_threshold(6, 3)
    assert (rep.status, rep.violations, rep.extremal) == ("fail", (), (3, "Es??"))
    assert rep.problems == (_certificate_problem("Ew??"), "D=3: extremal Es?? failed the duality")


def test_extremal_re_solve_cap_aborts_with_report(monkeypatch, capsys):
    """An extremal re-solve that reaches the node cap aborts the run with a
    report, from the API and from the command line, never a traceback."""
    def capped(*args, **kwargs):
        raise CapExceededError("colouring search exceeded the node cap")

    monkeypatch.setattr(V, "equitable_colouring", capped)
    rep = verify_mainthm1_threshold(6, 3)
    assert rep.status == "aborted" and not rep.violations
    assert rep.problems[-1] == f"node cap of {V.resolve_node_cap(None)} reached"
    assert json.loads(rep.to_json())["status"] == "aborted"
    assert main(["verify", "mainthm1", "--n", "6", "--r", "3"]) == 3
    assert capsys.readouterr().out == rep.to_json() + "\n"


def test_missed_closed_form_is_named():
    """An exhaustive extremum below its threshold leaves no violation; the
    report says which parameter missed and by how much."""
    true = V.matching_threshold(6, 1).value
    spec = V.ThresholdSpec("matching", 6, 2, False, {1: true + 1})
    task = V.EnumerationTask("matching", 6, "exhaustive")
    rep = V._verify_threshold(spec, task, None, V.EXHAUSTIVE_DEFAULT_CAP, False)
    assert (rep.status, rep.violations) == ("fail", ())
    assert rep.problems == (f"d=1: extremal {true} edges, threshold {true + 1}",)


def test_sampled_duality_cap_aborts_with_report():
    """A sample on which the packing search reaches the node cap aborts the
    run with a report.  At a cap of 30 the search first does on sample 133
    (0-based): the driver decides samples 0-132, and 133 is the last sample
    counted.  No sample takes it past 34 nodes, so at 50 the run passes."""
    def run(cap):
        return verify_mainthm1_threshold(
            12, 3, big_d=4, mode="sampled", seed=1, samples=200, node_cap=cap
        )

    rep = run(30)
    assert (rep.status, rep.examined) == ("aborted", 134)
    assert rep.problems == ("node cap of 30 reached",)
    assert json.loads(rep.to_json())["status"] == "aborted"
    rep = run(50)
    assert (rep.status, rep.examined) == ("pass", 200)


def test_capped_sampled_run_stops_drawing(monkeypatch):
    """A sampled run stops drawing at the sample that hits the node cap, as
    a scan stops at the first capped graph, so it reports the cap and not
    whether the draws it never made would have starved."""
    monkeypatch.setattr(V, "PROPOSAL_LIMIT_FACTOR", 0)  # 1000 proposals in all
    rep = verify_mainthm1_threshold(
        12, 3, big_d=4, mode="sampled", seed=1, samples=2000, node_cap=30
    )
    assert (rep.status, rep.examined) == ("aborted", 134)
    assert rep.problems == ("node cap of 30 reached",)


def test_each_proposal_is_expanded_once(monkeypatch):
    """Every proposal of the threshold sampler is expanded to neighbour
    masks once, in the search that filters and decides it."""
    expanded, drawn = [], []
    words_to_adj, window_rows = K.words_to_adj, V._window_rows

    def counting_expand(block, n):
        expanded.append(len(block))
        return words_to_adj(block, n)

    def counting_window(*args):
        rows = window_rows(*args)

        def counted(start, stop):
            drawn.append(stop - start)
            return rows(start, stop)

        return counted

    monkeypatch.setattr(K, "words_to_adj", counting_expand)
    monkeypatch.setattr(V, "_window_rows", counting_window)
    rep = verify_t1_threshold(12, 3, big_d=5, mode="sampled", seed=1, samples=300)
    assert (rep.status, rep.examined) == ("pass", 300)
    assert sum(expanded) == sum(drawn) == 302


def _window_draws(n, seed, samples, m_lo, m_hi, keep):
    """The threshold sampler's draws as ``_search`` takes them: (accepted
    masks, proposals, starved).  At r = 1 every graph packs, so the search
    keeps what ``keep`` accepts and finds no violation."""
    source, accepted = V._window_rows(n, SplitMix64(seed), m_lo, m_hi), []

    def rows(start, stop):
        accepted.append(source(start, stop))
        return accepted[-1]

    def recording_keep(degs):
        ok = keep(degs)
        accepted[-1] = accepted[-1][ok]
        return ok

    size = V.PROPOSAL_LIMIT_FACTOR * samples + 1000
    proposals, kept, violations, aborted, _ = V._search(
        n, 1, size, rows, recording_keep, 10**7, [], want=samples
    )
    assert not violations and not aborted
    masks = [V._row_mask(n, row) for block in accepted for row in block.tolist()]
    return masks, proposals, kept < samples


def test_sampler_draws_pinned(monkeypatch):
    """Accepted masks and proposal counts of the rejection sampler, as drawn
    before it counted degrees from the slots instead of building a Graph,
    with blocks of 4,096 proposals and of 7."""
    for batch in (4096, 7):
        monkeypatch.setattr(V, "SAMPLE_BATCH", batch)
        draws = []
        for seed, (m_lo, m_hi, keep) in enumerate([
            (32, 66, lambda degs: degs.min(axis=0) >= 3),
            (0, 19, lambda degs: degs.max(axis=0) <= 5),
            (23, 66, lambda degs: degs.min(axis=0) >= 4),
        ]):
            draws.append(_window_draws(12, seed, 300, m_lo, m_hi, keep))
        assert [proposals for _, proposals, _ in draws] == [365, 528, 987], batch
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == "2c065a770b0e468bd48ba50c3b9aacb93dca86f6907120d5e0a117ec0d83ee80", batch


def _chi2_sf(x, dof):
    """Upper tail of the chi-square distribution, by the Wilson-Hilferty
    cube-root normal approximation (close at hundreds of degrees of freedom)."""
    z = ((x / dof) ** (1 / 3) - 1 + 2 / (9 * dof)) / sqrt(2 / (9 * dof))
    return erfc(z / sqrt(2)) / 2


def test_sampler_is_uniform_over_window():
    """Chi-square of the threshold sampler's draws against uniform over the
    window's graphs that pass the filter, 200 expected draws per graph at
    n = 5.  At seed 7 the statistic sits near its degrees of freedom; a
    sampler that weighs every edge count alike, or whose Floyd step keeps a
    repeated slot, reads far past the 10^-6 tail."""
    for m_lo, m_hi, floor in [(0, 10, 0), (6, 10, 2), (0, 4, 0)]:
        members = [m for m in range(1 << 10) if m_lo <= m.bit_count() <= m_hi
                   and min(Graph.from_edge_mask(5, m).degrees()) >= floor]
        masks, _, starved = _window_draws(
            5, 7, 200 * len(members), m_lo, m_hi, lambda degs: degs.min(axis=0) >= floor
        )
        counts = Counter(masks)
        assert not starved and set(counts) <= set(members), (m_lo, m_hi)
        chi2 = sum((counts[m] - 200) ** 2 for m in members) / 200
        assert _chi2_sf(chi2, len(members) - 1) > 1e-6, (m_lo, m_hi, chi2)


def test_keep_gets_vertex_major_degrees(monkeypatch):
    """``keep`` gets each block's degrees as a C-contiguous (n, rows) array,
    so its reductions run over axis 0 at full width: in ``_search`` over
    exhaustive rows, raw sampler words and the threshold sampler's draws."""
    monkeypatch.setattr(V, "SAMPLE_BATCH", 100)
    seen = []

    def keep(degs):
        seen.append((degs.shape, degs.flags.c_contiguous))
        return degs.min(axis=0) >= 2

    V._search(5, 0, 1 << 10, V._mask_rows, keep, 10**7, [])
    rng = SplitMix64(3)  # two 64-bit words per 66-slot row
    V._search(12, 3, 150, lambda s, e: rng.words(2 * (e - s)).reshape(-1, 2), keep, 10**7, [])
    V._search(12, 1, 10**6, V._window_rows(12, SplitMix64(3), 40, 66), keep, 10**7, [], want=150)
    shapes = [(5, 100)] * 10 + [(5, 24), (12, 100), (12, 50)]
    assert [shape for shape, _ in seen[: len(shapes)]] == shapes
    assert {shape[0] for shape, _ in seen[len(shapes):]} == {12}
    assert all(contiguous for _, contiguous in seen)


def _reference_window(n, stream, samples, m_lo, m_hi, keep):
    """The threshold sampler drawn with ``_next_below`` on the reference
    ``stream`` for the edge count and for each step of Floyd's algorithm,
    which collects a set of slots."""
    e_total = comb(n, 2)
    cum = list(accumulate(comb(e_total, m) for m in range(m_lo, m_hi + 1)))
    masks, proposals = [], 0
    while len(masks) < samples and proposals < V.PROPOSAL_LIMIT_FACTOR * samples + 1000:
        proposals += 1
        m = m_lo + bisect_right(cum, _next_below(stream, cum[-1]))
        chosen = set()
        for t in range(e_total - m, e_total):
            x = _next_below(stream, t + 1)
            chosen.add(t if x in chosen else x)
        mask = sum(1 << s for s in chosen)
        if keep(Graph.from_edge_mask(n, mask).degrees()):
            masks.append(mask)
    return masks, proposals, len(masks) < samples


@pytest.mark.parametrize("n", [2, 4, 7, 12, 30])
def test_sampler_reads_next_below_words(n, monkeypatch):
    """The sampler reads ahead from the stream and consumes exactly the
    words ``_next_below`` would: with no edges and with every edge (one edge
    count, so the count takes no word), over every edge count (a bound of
    2^C(n,2), above 2^64 from n = 12) and over a middle window.  Blocks
    of 7 change nothing, also where the proposal limit ends one."""
    e = comb(n, 2)

    def keep(degs):  # vertex 0 is no leaf, so at n = 2 every edge starves
        return degs[0] != 1

    for seed, (m_lo, m_hi) in enumerate([(0, 0), (e, e), (0, e), (e // 3, e // 2)]):
        want = _reference_window(n, _splitmix64_stream(seed), 40, m_lo, m_hi, keep)
        for batch in (4096, 7):
            monkeypatch.setattr(V, "SAMPLE_BATCH", batch)
            got = _window_draws(n, seed, 40, m_lo, m_hi, keep)
            assert got == want, (m_lo, m_hi, batch)


def _low_bound_report(n=4):
    """A matching check whose bound (0 edges) every non-matchable graph
    with min degree >= 1 exceeds, so each one is a violation."""
    spec = V.ThresholdSpec("matching", n, 2, False, {1: 0})
    task = V.EnumerationTask("matching", n, "exhaustive")
    return V._verify_threshold(spec, task, None, V.EXHAUSTIVE_DEFAULT_CAP, False)


def test_witness_recheck_failure_is_reported(monkeypatch):
    honest = _low_bound_report()
    assert honest.status == "fail" and len(honest.violations) == 4  # the stars K_{1,3}
    assert honest.problems == ()

    class Yes:
        decision = True

    # the re-check colours the complement of each witness, as does the
    # extremal's re-solve
    monkeypatch.setattr(V, "equitable_colouring", lambda *args, **kwargs: Yes())
    rep = _low_bound_report()
    assert rep.status == "fail"
    assert rep.violations == honest.violations
    assert rep.problems == tuple(
        f"witness {g6} failed re-validation" for g6 in rep.violations
    ) + (f"d=1: extremal {rep.extremal[1]} failed the duality",)


def test_witness_recheck_reports_under_python_O():
    code = (
        "from packlab import verify as V\n"
        "class Yes:\n"
        "    decision = True\n"
        "V.equitable_colouring = lambda *args, **kwargs: Yes()\n"
        "spec = V.ThresholdSpec('matching', 4, 2, False, {1: 0})\n"
        "task = V.EnumerationTask('matching', 4, 'exhaustive')\n"
        "rep = V._verify_threshold(spec, task, None, 7, False)\n"
        "print(rep.status, len(rep.problems))\n"
    )
    src = str(Path(V.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["fail", "5"]  # four witnesses and the extremal


def test_violation_overflow_keeps_first_witnesses(monkeypatch):
    full = _low_bound_report(n=6)  # eight blocks of masks
    assert full.problems == () and len(full.violations) > 5
    monkeypatch.setattr(V, "VIOLATION_BUFFER", 5)
    rep = _low_bound_report(n=6)
    assert rep.status == "fail"
    assert rep.violations == full.violations[:5]
    assert rep.problems == (
        f"{len(full.violations)} violations found; the report keeps the first 5",
    )
    assert json.loads(rep.to_json())["violations"] == list(full.violations[:5])


def test_sampled_violation_overflow_keeps_first_witnesses(monkeypatch):
    """An empty clause table makes every sample without a packing a
    violation; past the buffer the sampler keeps the first ones it drew."""
    monkeypatch.setattr(V, "_degree_clauses", lambda *args: ())
    monkeypatch.setattr(V, "VIOLATION_BUFFER", 5)
    rep = conjecture1_search(12, 3, mode="sampled", seed=34, samples=2000)
    assert (rep.status, rep.examined, len(rep.violations)) == ("fail", 2000, 5)
    assert "1045 violations found; the report keeps the first 5" in rep.problems
    # the first 14 samples of the same stream hold exactly 5 violations
    head = conjecture1_search(12, 3, mode="sampled", seed=34, samples=14)
    assert len(head.violations) == 5 and not any("violations found" in p for p in head.problems)
    assert rep.violations == head.violations


def test_starved_sampler_reports_reason(monkeypatch):
    monkeypatch.setattr(V, "PROPOSAL_LIMIT_FACTOR", 0)  # 1000 proposals in all
    rep = verify_matching_threshold(12, d=3, mode="sampled", seed=5, samples=2000)
    assert rep.status == "aborted"
    assert rep.examined < 2000
    assert rep.problems == (
        f"sampler starved: {rep.examined} of 2000 samples after 1000 proposals",
    )


def test_condition_predicates_are_exported_by_packlab_and_verify():
    import packlab

    for name in ("banded_condition_profile", "disjunctive_condition_failures"):
        assert name in packlab.__all__
        assert getattr(V, name) is getattr(packlab, name)
