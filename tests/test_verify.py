"""Verification harness: exhaustive scans at enumerable sizes, report schema
and determinism, sampled-mode reproducibility, and the construction audit."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from packlab import (
    Graph,
    ParameterRangeError,
    audit_constructions,
    audit_instance,
    banded_condition_profile,
    build_clique_plus_isolates,
    conjecture1_search,
    decode_graph6,
    disjunctive_condition_failures,
    equitable_colouring,
    question1_search,
    sweep_hampath_condition,
    turan_graph,
    verify_mainthm1_threshold,
    verify_matching_threshold,
    verify_t1_threshold,
)
from packlab import verify as V
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


def test_sweep_hampath_condition_small():
    for n in (2, 3, 4, 5):
        examined, cond_true, violations = sweep_hampath_condition(n)
        assert examined == 1 << (n * (n - 1) // 2)
        assert violations == ()
        assert 0 < cond_true <= examined


def test_splitmix64_reference_values():
    # first outputs for seed 1234567, from the published reference sequence
    rng = SplitMix64(1234567)
    assert rng.next_word() == 6457827717110365317
    assert rng.next_word() == 3203168211198807973
    rng = SplitMix64(0)
    assert rng.next_word() == 16294208416658607535
    # bounded draws stay in range and are deterministic
    rng = SplitMix64(99)
    draws = [rng.next_below(10) for _ in range(50)]
    assert all(0 <= x < 10 for x in draws)
    rng2 = SplitMix64(99)
    assert draws == [rng2.next_below(10) for _ in range(50)]


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
# threshold checks shared one pipeline.  Any change to a scan's tie rule,
# a sampler's draw order or a report field shows up here.
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
}


def _report_digest(rep):
    blob = json.dumps(
        {
            "json": rep.to_json(),
            "per_d": rep.per_d,
            "condition_count": rep.condition_count,
            "problems": list(rep.problems),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_reports_match_golden_digests():
    sampled = {"mode": "sampled", "samples": 200}
    runs = {
        "matching(6)": lambda: verify_matching_threshold(6),
        "matching(6,d=1)": lambda: verify_matching_threshold(6, d=1),
        "t1(6,3)": lambda: verify_t1_threshold(6, 3),
        "t1(6,3,D=2)": lambda: verify_t1_threshold(6, 3, big_d=2),
        "t1(6,3,D=3)": lambda: verify_t1_threshold(6, 3, big_d=3),
        "mainthm1(6,3)": lambda: verify_mainthm1_threshold(6, 3),
        "mainthm1(6,3,D=2)": lambda: verify_mainthm1_threshold(6, 3, big_d=2),
        "mainthm1(6,3,D=3)": lambda: verify_mainthm1_threshold(6, 3, big_d=3),
        "matching(12,d=3)": lambda: verify_matching_threshold(12, d=3, seed=31, **sampled),
        "t1(12,3,D=5)": lambda: verify_t1_threshold(12, 3, big_d=5, seed=32, **sampled),
        "mainthm1(12,3,D=4)": lambda: verify_mainthm1_threshold(
            12, 3, big_d=4, seed=33, **sampled
        ),
        "conj1(12,3)": lambda: conjecture1_search(
            12, 3, mode="sampled", seed=34, samples=5000
        ),
        "ques1(12,3)": lambda: question1_search(
            12, 3, mode="sampled", seed=35, samples=5000
        ),
    }
    got = {name: _report_digest(run()) for name, run in runs.items()}
    assert got == GOLDEN_REPORTS


def test_sampler_draws_pinned():
    """Accepted masks and proposal counts of the rejection sampler, as drawn
    before it counted degrees from the slots instead of building a Graph."""
    draws = []
    for seed, (m_lo, m_hi, keep) in enumerate([
        (32, 66, lambda degs: min(degs) >= 3),
        (0, 19, lambda degs: max(degs) <= 5),
        (23, 66, lambda degs: min(degs) >= 4),
    ]):
        draws.append(V._sample_filtered_window(12, SplitMix64(seed), 300, m_lo, m_hi, keep))
    assert [proposals for _, proposals, _ in draws] == [365, 528, 987]
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert digest == "2c065a770b0e468bd48ba50c3b9aacb93dca86f6907120d5e0a117ec0d83ee80"


def _low_bound_report(n=4, workers=1):
    """A matching check whose bound (0 edges) every non-matchable graph
    with min degree >= 1 exceeds, so each one is a violation."""
    spec = V.ThresholdSpec("matching", n, 2, False, {1: 0})
    task = V.EnumerationTask("matching", n, "exhaustive")
    return V._verify_threshold(spec, task, workers, None, V.EXHAUSTIVE_DEFAULT_CAP, False)


def test_witness_recheck_failure_is_reported(monkeypatch):
    honest = _low_bound_report()
    assert honest.status == "fail" and len(honest.violations) == 4  # the stars K_{1,3}
    assert honest.problems == ()

    class Yes:
        decision = True

    monkeypatch.setattr(V, "perfect_kr_packing", lambda *args, **kwargs: Yes())
    rep = _low_bound_report()
    assert rep.status == "fail"
    assert rep.violations == honest.violations
    assert rep.problems == tuple(f"witness {g6} failed re-validation" for g6 in rep.violations)


def test_witness_recheck_reports_under_python_O():
    code = (
        "from packlab import verify as V\n"
        "class Yes:\n"
        "    decision = True\n"
        "V.perfect_kr_packing = lambda *args, **kwargs: Yes()\n"
        "spec = V.ThresholdSpec('matching', 4, 2, False, {1: 0})\n"
        "task = V.EnumerationTask('matching', 4, 'exhaustive')\n"
        "rep = V._verify_threshold(spec, task, 1, None, 7, False)\n"
        "print(rep.status, len(rep.problems))\n"
    )
    src = str(Path(V.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["fail", "4"]


def test_violation_overflow_keeps_first_witnesses(monkeypatch):
    full = _low_bound_report(n=6, workers=2)  # two chunks of masks
    assert full.problems == () and len(full.violations) > 5
    monkeypatch.setattr(V, "VIOLATION_BUFFER", 5)
    rep = _low_bound_report(n=6, workers=2)
    assert rep.status == "fail"
    assert rep.violations == full.violations[:5]
    assert rep.problems == (
        f"{len(full.violations)} violations found; the report keeps the first 5",
    )
    assert json.loads(rep.to_json())["violations"] == list(full.violations[:5])


def test_starved_sampler_reports_reason(monkeypatch):
    monkeypatch.setattr(V, "PROPOSAL_LIMIT_FACTOR", 0)  # 1000 proposals in all
    rep = verify_matching_threshold(12, d=3, mode="sampled", seed=5, samples=2000)
    assert rep.status == "aborted"
    assert rep.examined < 2000
    assert rep.problems == (
        f"sampler starved: {rep.examined} of 2000 samples after 1000 proposals",
    )
