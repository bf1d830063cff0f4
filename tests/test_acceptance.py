"""Acceptance suite: nine criteria, one test (and one pass/fail line) each.

Every numeric comparison is exact (tolerance 0) unless stated; time budgets
are asserted with generous margins for slow machines.
"""

import hashlib
import random
import time
from math import comb

from packlab import (
    Graph,
    banded_condition_profile,
    build_extremal1,
    build_extremal2,
    colouring_threshold,
    conjecture1_search,
    disjunctive_condition_failures,
    degree_sequence,
    audit_constructions,
    first_branch_regime,
    krfree_greedy_packing,
    packing_threshold,
    question1_search,
    second_branch_bound_decreasing,
    sweep_hampath_condition,
    turan_graph,
    turan_partition,
    validate_packing,
    verify_matching_threshold,
    verify_t1_threshold,
)


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_matching_threshold_exactness():
    t0 = time.perf_counter()
    rep4 = verify_matching_threshold(4, workers=1)
    t4 = time.perf_counter() - t0
    assert rep4.status == "pass"
    assert rep4.per_d[1]["edges"] == 3
    assert t4 < 1.0, f"n=4 enumeration took {t4:.2f}s (budget 1s)"

    t0 = time.perf_counter()
    rep6 = verify_matching_threshold(6, workers=1)
    t6 = time.perf_counter() - t0
    assert rep6.status == "pass"
    assert rep6.examined == 2**15
    assert rep6.per_d[1]["edges"] == 9  # = f2(6,1), exact
    assert rep6.per_d[2]["edges"] == 9  # = f2(6,2), exact
    assert rep6.violations == ()
    assert t6 < 30.0, f"n=6 enumeration took {t6:.2f}s (budget 30s)"
    _report(1, f"matching threshold exact at n=4 ({t4:.2f}s) and n=6 ({t6:.2f}s), "
               "max non-matchable edges 9 = f2(6,d) for d in {1,2}")


def test_criterion_2_colouring_threshold_exactness():
    t0 = time.perf_counter()
    rep = verify_t1_threshold(6, 3, workers=1)
    dt = time.perf_counter() - t0
    assert rep.status == "pass"
    assert rep.per_d[2]["edges"] == 3 and rep.per_d[2]["threshold"] == 3
    assert rep.per_d[3]["edges"] == 3 and rep.per_d[3]["threshold"] == 3
    assert rep.violations == ()  # every sparser bounded-degree graph coloured
    assert rep.extremal[0] == 3  # non-colourable witness meeting the bound
    assert dt < 60.0, f"(6,3) enumeration took {dt:.2f}s (budget 60s)"
    _report(2, f"equitable-colouring threshold exact at (6,3), D in {{2,3}}, "
               f"extremal edge count 3 ({dt:.2f}s)")


def test_criterion_3_packing_colouring_duality():
    t0 = time.perf_counter()
    triples = 0
    for r in range(3, 9):
        for n in range(2 * r, 121, r):
            for big_d in range(r - 1, (r - 1) * n // r):
                g = packing_threshold(n, r, big_d).value
                f = colouring_threshold(n, r, n - 1 - big_d).value
                assert g + f == comb(n, 2), (n, r, big_d)
                triples += 1
    dt = time.perf_counter() - t0
    assert triples > 1000
    assert dt < 5.0, f"duality sweep took {dt:.2f}s (budget 5s)"
    _report(3, f"g + f = C(n,2) exactly on {triples} triples, r in 3..8, "
               f"n <= 120 ({dt:.2f}s)")


def test_criterion_4_construction_audit():
    t0 = time.perf_counter()
    rep = audit_constructions(max_n=120)
    dt = time.perf_counter() - t0
    assert rep.status == "pass", rep.problems[:10]
    assert rep.violations == ()
    assert rep.examined > 25000
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
        "842d5bae94fe330ef2c1ecc23a1dc7da229d50544f3c47db4a6e6cd1b2576443"
    )
    assert dt < 300.0, f"audit took {dt:.2f}s (budget 300s)"
    _report(4, f"all {rep.examined} construction instances n <= 120 match "
               f"edge counts and degree bands; blockers solver-confirmed "
               f"n <= 12 ({dt:.2f}s)")


def test_criterion_5_algorithm_soundness():
    rng = random.Random(20240814)
    # greedy packing of clique-free graphs: Turán graphs and random
    # relabelings (degree-preserving) up to n = 15
    bases = [
        (n, r)
        for n in range(4, 16)
        for r in range(2, n)
        if n % r == 0 and n // r >= 2
    ]
    count = 0
    while count < 200:
        n, r = bases[count % len(bases)]
        base = turan_graph(n, r)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, [(perm[u], perm[v]) for u, v in base.edges()])
        out = krfree_greedy_packing(g, r)
        assert validate_packing(g, out.certificate, r), (n, r, perm)
        count += 1

    # Turán partition recovery on exact Turán graphs up to n = 24
    partition_runs = 0
    for n in range(6, 25):
        for r in range(2, n):
            if n % r or n // r < 2:
                continue
            classes = turan_partition(turan_graph(n, r), r)
            assert sorted(v for c in classes for v in c) == list(range(n))
            partition_runs += 1

    # and on 100 edge-deleted variants keeping d_{n/r} >= (r-1)n/r
    for trial in range(100):
        n, r = (24, 3) if trial % 2 else (24, 4)
        base = turan_graph(n, r)
        edges = list(base.edges())
        w = set(rng.sample(range(n), n // r - 1))
        g = Graph(n, [e for e in edges if not (e[0] in w and e[1] in w)])
        assert sorted(g.degrees())[n // r - 1] >= (r - 1) * n // r
        classes = turan_partition(g, r)
        assert len(classes) == r
        assert sorted(v for c in classes for v in c) == list(range(n))
        for c in classes:
            assert len(c) == n // r
            assert all(not g.has_edge(u, v) for i, u in enumerate(c) for v in c[i + 1:])
    _report(5, f"greedy packing valid on 200 relabeled Turán inputs n <= 15; "
               f"partition recovered on {partition_runs} Turán graphs and "
               f"100 edge-deleted variants n <= 24, zero failures")


def test_criterion_6_hampath_condition_soundness():
    t0 = time.perf_counter()
    total = 0
    for n in range(2, 8):
        examined, cond_true, violations = sweep_hampath_condition(n, workers=4)
        assert examined == 2 ** comb(n, 2)
        assert violations == (), f"n={n}: {violations}"
        total += examined
    dt = time.perf_counter() - t0
    assert dt < 600.0, f"sweep took {dt:.2f}s (budget 600s)"
    _report(6, f"degree condition implies a Hamilton path on all {total} "
               f"labeled graphs with n <= 7, zero violations ({dt:.2f}s)")


def test_criterion_7_conjecture_and_question_searches():
    c6 = conjecture1_search(6, 3)
    q6 = question1_search(6, 3)
    assert c6.status == "pass" and c6.violations == ()
    assert q6.status == "pass" and q6.violations == () and q6.problems == ()

    c12 = conjecture1_search(12, 3, mode="sampled", seed=7, samples=100_000)
    q12 = question1_search(12, 3, mode="sampled", seed=7, samples=100_000)
    assert c12.status == "pass" and c12.violations == ()
    assert c12.examined == 100_000
    assert q12.status == "pass" and q12.violations == ()

    # sharpness of both extremal families: the condition fails exactly at
    # index k, and the disjunctive witness shows the displayed degree
    checked = 0
    for r in (2, 3, 4, 5):
        for n in range(2 * r, 37, r):
            for k in range(1, n // r):
                fails, beta_ok = banded_condition_profile(build_extremal1(n, r, k), r)
                assert (fails, beta_ok) == ((k,), True), (n, r, k)
            for k in range(1, n // r + 1):
                g = build_extremal2(n, r, k)
                assert disjunctive_condition_failures(g, r) == (k,), (n, r, k)
                assert degree_sequence(g)[n - k * (r - 1)] == n - k - 1
                checked += 1
    _report(7, f"no counterexample at (6,3) exhaustive or (12,3) x 100k "
               f"samples; extremal families sharp at i=k on {checked} "
               f"instances")


def test_criterion_8_appendix_facts():
    t0 = time.perf_counter()
    mono = 0
    for r in range(3, 11):
        for n in range(2 * r, 201, r):
            assert second_branch_bound_decreasing(n, r), (n, r)
            mono += 1

    regime = 0
    for r in range(3, 151):
        for n in range(2 * r, 301, r):
            # first hypothesis: n/r <= D <= n/(r-1)
            for big_d in range(n // r, n // (r - 1) + 1):
                assert first_branch_regime(n, r, big_d), (n, r, big_d)
                regime += 1
            # second hypothesis (r >= 4, n >= 3r): n/r <= D < (n+r)/(r-1)
            if r >= 4 and n >= 3 * r:
                top = -(-(n + r) // (r - 1)) - 1
                for big_d in range(n // r, min(top, n - r) + 1):
                    assert first_branch_regime(n, r, big_d), (n, r, big_d)
                    regime += 1
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"appendix sweep took {dt:.2f}s (budget 5s)"
    _report(8, f"lower-bound function decreasing on {mono} grids r in 3..10, "
               f"n <= 200; first branch attained on {regime} in-range "
               f"triples n <= 300 ({dt:.2f}s)")


def test_criterion_9_deterministic_reports():
    pairs = []
    for _ in range(2):
        pairs.append((
            verify_t1_threshold(6, 3, workers=2).to_json(),
            verify_matching_threshold(6, workers=3).to_json(),
            conjecture1_search(12, 3, mode="sampled", seed=11, samples=30_000).to_json(),
        ))
    assert pairs[0] == pairs[1]
    assert verify_t1_threshold(6, 3, workers=1).to_json() == pairs[0][0]
    _report(9, "repeated verify invocations with equal seeds and workers are "
               "byte-identical")
