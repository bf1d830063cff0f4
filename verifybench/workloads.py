"""The benchmark's workloads: which packlab calls each one makes, with which
arguments, and how the sampled ones derive their seeds from ``--seed``.

A task is a plain dict, so it can be sent to the worker process as JSON::

    {"id": "matching(6)", "fn": "verify_matching_threshold",
     "args": [6], "kwargs": {"workers": 2}}

``fn`` names a function of the public ``packlab`` API.
"""

from __future__ import annotations

import hashlib

WORKERS = 2
CONDITION_SAMPLES = 100_000
THRESHOLD_SAMPLES = 10_000
AUDIT_MAX_N = 120


def derive_seed(seed: int, label: str) -> int:
    """Seed of one sampled task: the first 63 bits of SHA-256("<seed>:<label>")."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _task(task_id: str, fn: str, *args, **kwargs) -> dict:
    return {"id": task_id, "fn": fn, "args": list(args), "kwargs": kwargs}


def _exhaustive_n6(seed: int) -> list[dict]:
    out = [
        _task("matching(6)", "verify_matching_threshold", 6, workers=WORKERS),
        _task("mainthm1(6,3)", "verify_mainthm1_threshold", 6, 3, workers=WORKERS),
        _task("conj1(6,3)", "conjecture1_search", 6, 3, workers=WORKERS),
        _task("ques1(6,3)", "question1_search", 6, 3, workers=WORKERS),
    ]
    out += [
        _task(f"hampath({n})", "sweep_hampath_condition", n, workers=WORKERS)
        for n in range(2, 7)
    ]
    return out


def _sampled_conditions_n12(seed: int) -> list[dict]:
    return [
        _task(
            f"{label}(12,3)", fn, 12, 3, mode="sampled",
            seed=derive_seed(seed, label), samples=CONDITION_SAMPLES,
        )
        for label, fn in (("conj1", "conjecture1_search"), ("ques1", "question1_search"))
    ]


def _sampled_thresholds_n12(seed: int) -> list[dict]:
    common = {"mode": "sampled", "samples": THRESHOLD_SAMPLES}
    return [
        _task("matching(12,d=3)", "verify_matching_threshold", 12, d=3,
              seed=derive_seed(seed, "matching"), **common),
        _task("t1(12,3,D=5)", "verify_t1_threshold", 12, 3, big_d=5,
              seed=derive_seed(seed, "t1"), **common),
        _task("mainthm1(12,3,D=4)", "verify_mainthm1_threshold", 12, 3, big_d=4,
              seed=derive_seed(seed, "mainthm1"), **common),
    ]


def _audit_n120(seed: int) -> list[dict]:
    return [_task(f"audit({AUDIT_MAX_N})", "audit_constructions", max_n=AUDIT_MAX_N)]


WORKLOADS = {
    "exhaustive-n6": _exhaustive_n6,
    "sampled-conditions-n12": _sampled_conditions_n12,
    "sampled-thresholds-n12": _sampled_thresholds_n12,
    "audit-n120": _audit_n120,
}


def audit_grid(max_n: int):
    """(token, params) of every construction instance the audit covers.

    The benchmark's own transcription of each family's parameter domain,
    in the audit's order.
    """
    for n in range(4, max_n + 1, 2):
        for d in range(n // 2):
            yield "H", {"n": n, "d": d}
    for r in range(2, max_n + 1):
        for n in range(r, max_n + 1, r):
            q = n // r
            if r >= 3:
                yield "G1", {"n": n, "r": r}
            yield "af_i", {"n": n, "r": r}
            if n >= 2 * r:
                yield "t_star", {"n": n, "r": r}
            for j in range(1, r - 1):
                if n >= r + j:
                    yield "af_ii", {"n": n, "r": r, "j": j}
            if n >= 2 * r:
                if r >= 3:
                    # star degrees D with n/(r-1) <= D <= n - r
                    for big_d in range(-(-n // (r - 1)), n - r + 1):
                        yield "G2", {"n": n, "r": r, "D": big_d}
                for k in range(1, q):
                    yield "extremal1", {"n": n, "r": r, "k": k}
                for k in range(1, q + 1):
                    yield "extremal2", {"n": n, "r": r, "k": k}
    for n in range(3, max_n + 1, 3):
        c = 1
        m2 = n // 3 + c + 1
        for k in range(3 * c + 2, m2 + 1):
            if m2 // k >= 2 * c + 3:
                yield "square_cx", {"n": n, "C": c, "K": k}
