"""Desk-scale empirical verification: exhaustive enumeration over labeled
graphs, uniform sampling from filtered families, construction audits, and
counterexample searches for the degree-condition conjectures.

Enumeration walks the ``C(n,2)``-bit edge-mask integers in fixed contiguous
chunks; chunks may run on a thread pool (the kernels release the GIL) and are
merged in mask order, so serial and parallel runs produce bit-identical
reports.  Sampling uses the documented ``splitmix64`` generator seeded
explicitly; all randomness flows from that seed.  Reports serialize to a
stable canonical JSON schema with ``elapsed_ms`` zeroed unless timing is
requested, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from time import perf_counter

import numpy as np

from . import _kernels as K
from .constructions import FAMILIES, expected_degree_bands, expected_edges, build_extremal2
from .errors import ParameterRangeError
from .formats import decode_graph6, encode_graph6
from .graph import Graph, degree_sequence
from .solvers import (
    equitable_colouring,
    perfect_kr_packing,
    resolve_node_cap,
    square_hamilton_obstructions,
)
from .thresholds import colouring_threshold, matching_threshold, packing_threshold

CHUNK_MASKS = 1 << 14
EXHAUSTIVE_DEFAULT_CAP = 7
EXHAUSTIVE_HARD_CAP = 11  # edge masks beyond C(11,2) bits overflow int64
VIOLATION_BUFFER = 4096
GENERATOR_ID = "splitmix64"
SAMPLE_BATCH = 4096
PROPOSAL_LIMIT_FACTOR = 1000
_HUGE = 1 << 60
_WORD = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 sequence; the documented generator behind sampled mode."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by bit-rejection."""
        if bound <= 0:
            raise ParameterRangeError("bound must be positive")
        bits = (bound - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            acc = 0
            got = 0
            while got < bits:
                acc = (acc << 64) | self.next_word()
                got += 64
            acc >>= got - bits
            if acc < bound:
                return acc


@dataclass(frozen=True)
class EnumerationTask:
    """Input echo recorded in every report."""

    predicate: str
    n: int
    mode: str
    r: int | None = None
    d: int | None = None
    samples: int | None = None
    seed: int | None = None
    generator: str | None = None

    def echo(self) -> dict:
        out = {"predicate": self.predicate, "n": self.n, "mode": self.mode}
        for key in ("r", "d", "samples", "seed", "generator"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification task.

    ``violations`` hold graph6 witnesses in ascending edge-mask order; every
    witness was re-decoded and re-solved before the report was built.
    ``problems`` says why a status is not ``pass`` where the violations alone
    do not: a witness that failed its re-check, more violations than the
    report keeps, a starved sampler, or a failed claim.  The ``per_d``
    breakdown, ``condition_count`` and ``problems`` are programmatic extras
    and do not enter the serialized schema.
    """

    task: EnumerationTask
    examined: int
    violations: tuple[str, ...]
    extremal: tuple[int, str] | None
    status: str
    elapsed_ms: int = 0
    per_d: dict | None = field(default=None, compare=False)
    condition_count: int | None = field(default=None, compare=False)
    problems: tuple[str, ...] = field(default=(), compare=False)

    def to_json(self) -> str:
        extremal = (
            None
            if self.extremal is None
            else {"edges": self.extremal[0], "graph6": self.extremal[1]}
        )
        payload = {
            "task": self.task.echo(),
            "examined": self.examined,
            "violations": list(self.violations),
            "extremal": extremal,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _task(predicate, n, mode, r=None, d=None, seed=None, samples=None) -> EnumerationTask:
    sampled = mode == "sampled"
    return EnumerationTask(
        predicate, n, mode, r=r, d=d, samples=samples if sampled else None,
        seed=seed if sampled else None, generator=GENERATOR_ID if sampled else None,
    )


def _elapsed_ms(t0: float, timing: bool) -> int:
    return int((perf_counter() - t0) * 1000) if timing else 0


def _check_exhaustive(n: int, n_cap: int) -> None:
    if n_cap > EXHAUSTIVE_HARD_CAP:
        raise ParameterRangeError(
            f"exhaustive enumeration is limited to n <= {EXHAUSTIVE_HARD_CAP}"
        )
    if n > n_cap:
        raise ParameterRangeError(
            f"exhaustive enumeration capped at n <= {n_cap}; use sampled mode"
        )


def _run_chunks(total: int, workers: int, run_one):
    bounds = [(lo, min(lo + CHUNK_MASKS, total)) for lo in range(0, total, CHUNK_MASKS)]
    if workers <= 1 or len(bounds) <= 1:
        return [run_one(b) for b in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_one, b) for b in bounds]
        return [f.result() for f in futures]


def _kept_violations(chunks, problems: list[str]) -> list[int]:
    """Violation masks of (count, stored masks) chunk results, in mask order.

    A scan stores at most ``VIOLATION_BUFFER`` masks per chunk and counts the
    rest; past that many in total the first ones are kept and the full count
    is recorded in ``problems``.
    """
    total = sum(count for count, _ in chunks)
    masks = [m for _, stored in chunks for m in stored][:VIOLATION_BUFFER]
    if total > len(masks):
        problems.append(f"{total} violations found; the report keeps the first {len(masks)}")
    return masks


def _merge_extrema(parts, width: int):
    """Merge per-d (found, max edges, mask) triples in chunk order; strict
    comparison keeps the earliest (lowest-mask) attaining graph on ties."""
    found = [False] * width
    value = [0] * width
    mask = [0] * width
    for pf, pv, pm in parts:
        for dd in range(width):
            if pf[dd] and (not found[dd] or pv[dd] > value[dd]):
                found[dd] = True
                value[dd] = int(pv[dd])
                mask[dd] = int(pm[dd])
    return found, value, mask


def _witness(n: int, mask: int) -> str:
    return encode_graph6(Graph.from_edge_mask(n, mask))


def _recheck(violations, holds, problems: list[str]) -> None:
    """Re-decode every graph6 witness and record in ``problems`` each one
    for which the independent re-check ``holds(graph)`` is false."""
    for g6 in violations:
        if not holds(decode_graph6(g6)):
            problems.append(f"witness {g6} failed re-validation")


def _status(aborted: bool, ok: bool) -> str:
    if aborted:
        return "aborted"
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# sampling plumbing


def _slot_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pair (i, j) of every edge slot, in slot order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def _floyd_sample(rng: SplitMix64, m: int, total: int) -> set[int]:
    """m distinct slots out of range(total), uniformly (Floyd's algorithm)."""
    chosen: set[int] = set()
    for t in range(total - m, total):
        x = rng.next_below(t + 1)
        chosen.add(t if x in chosen else x)
    return chosen


def _sample_filtered_window(
    n: int,
    rng: SplitMix64,
    samples: int,
    m_lo: int,
    m_hi: int,
    degree_filter,
):
    """First-`samples`-accepted uniform draws from the graphs with edge count
    in [m_lo, m_hi] passing ``degree_filter`` (a predicate on the degree
    list).  Returns (masks, proposals, starved); starved means the proposal
    budget ran out before `samples` draws were accepted."""
    e_total = comb(n, 2)
    # edge counts m in [m_lo, m_hi] are drawn with probability proportional
    # to the number of labeled graphs with m edges
    cum = list(accumulate(comb(e_total, m) for m in range(m_lo, m_hi + 1)))
    if not cum:
        return [], 0, False
    pairs = _slot_pairs(n)
    limit = PROPOSAL_LIMIT_FACTOR * samples + 1000
    out = []
    proposals = 0
    while len(out) < samples and proposals < limit:
        proposals += 1
        m = m_lo + bisect_right(cum, rng.next_below(cum[-1]))
        degs = [0] * n
        mask = 0
        for s in _floyd_sample(rng, m, e_total):
            mask |= 1 << s
            i, j = pairs[s]
            degs[i] += 1
            degs[j] += 1
        if degree_filter(degs):
            out.append(mask)
    return out, proposals, len(out) < samples


def _expand_words(n: int, rows) -> np.ndarray:
    """Neighbour masks, one row per graph, from rows of unsigned 64-bit edge
    words (slot s is bit s & 63 of word s >> 6)."""
    words = np.array(rows, dtype=np.uint64).reshape(len(rows), -1).view(np.int64)
    adjs = np.zeros((len(rows), n), np.int64)
    K.words_to_adj(words, n, adjs)
    return adjs


def _decide_masks(n: int, r: int, masks, node_cap: int, complement: bool):
    """Exact packing decision for each sampled mask, or for its complement;
    returns (decisions, aborted), decisions stopping at the first abort."""
    if not masks:
        return [], False
    nwords = (comb(n, 2) + 63) // 64
    adjs = _expand_words(n, [[(m >> (64 * w)) & _WORD for w in range(nwords)] for m in masks])
    if complement:
        adjs = ((1 << n) - 1) & ~adjs & ~(1 << np.arange(n, dtype=np.int64))
    cand, chosen, comm = K.pack_work_arrays(n)
    out = np.zeros(len(masks), np.int64)
    aborted = bool(K.batch_packable(adjs, n, r, node_cap, cand, chosen, comm, out))
    stop = int(np.flatnonzero(out == -1)[0]) if aborted else len(masks)
    return [bool(x == 1) for x in out[:stop]], aborted


# ---------------------------------------------------------------------------
# threshold verifiers


@dataclass(frozen=True)
class ThresholdSpec:
    """One edge-threshold check, phrased as a perfect r-clique packing scan.

    ``thresholds`` maps each armed degree parameter D, ascending, to its
    closed-form threshold.  With ``complement`` false the family is "min
    degree >= D" and every member with more edges than the threshold must
    have a perfect r-clique packing.  With it true the family is "max degree
    <= D" and every member with fewer edges must be equitably
    (n/r)-colourable, which the scan decides as packing on the complement:
    min degree >= n-1-D and more than C(n,2) - threshold edges.  ``dual``
    cross-checks an exhaustive run against the colouring-side scan and each
    sample against a direct colouring search.
    """

    predicate: str
    n: int
    r: int
    complement: bool
    thresholds: dict
    dual: bool = False

    def packing_bounds(self) -> dict:
        """{degree floor: edge bound} of the packing scan."""
        if not self.complement:
            return dict(self.thresholds)
        half = comb(self.n, 2)
        return {self.n - 1 - dd: half - t for dd, t in self.thresholds.items()}

    def refuted_by(self, g: Graph, cap: int) -> bool:
        """Re-check a witness with the solvers: ``g`` lies in an armed family
        on the wrong side of its threshold and is not packable (colourable)."""
        degs, e = g.degrees(), g.edge_count
        if self.complement:
            beyond = any(max(degs) <= dd and e < t for dd, t in self.thresholds.items())
            return beyond and not equitable_colouring(g, self.n // self.r, cap).decision
        beyond = any(min(degs) >= dd and e > t for dd, t in self.thresholds.items())
        return beyond and not perfect_kr_packing(g, self.r, cap).decision


def _scan_threshold(spec: ThresholdSpec, workers: int, cap: int, n_cap: int, problems):
    """All 2^C(n,2) graphs through ``K.scan_pack_threshold``; returns
    (examined, violation masks, aborted, per-D table)."""
    n = spec.n
    _check_exhaustive(n, n_cap)
    bounds = spec.packing_bounds()
    d_lo, d_hi = min(bounds), max(bounds)
    g_val = np.array([bounds.get(dd, _HUGE) for dd in range(d_hi + 1)], np.int64)
    slots = comb(n, 2)
    flip = (1 << slots) - 1 if spec.complement else 0

    def run_one(chunk):
        lo, hi = chunk
        adj = np.zeros(n, np.int64)
        cand, chosen, comm = K.pack_work_arrays(n)
        found, max_e, arg = (np.zeros(d_hi + 1, np.int64) for _ in range(3))
        viol = np.zeros(VIOLATION_BUFFER, np.int64)
        examined, nviol, aborted = K.scan_pack_threshold(
            n, spec.r, d_lo, d_hi, g_val, flip, lo, hi, cap,
            adj, cand, chosen, comm, found, max_e, arg, viol,
        )
        return examined, (nviol, viol[:nviol].tolist()), aborted, (found, max_e, arg)

    parts = _run_chunks(1 << slots, workers, run_one)
    masks = _kept_violations([p[1] for p in parts], problems)
    found, value, mask = _merge_extrema([p[3] for p in parts], d_hi + 1)
    per_d = {}
    for dd, threshold in spec.thresholds.items():
        k = n - 1 - dd if spec.complement else dd
        per_d[dd] = {
            "found": found[k],
            "edges": (slots - value[k] if spec.complement else value[k]) if found[k] else None,
            "graph6": _witness(n, mask[k]) if found[k] else None,
            "mask": mask[k] if found[k] else None,
            "threshold": threshold,
        }
    return sum(p[0] for p in parts), masks, any(p[2] for p in parts), per_d


def _sample_threshold(spec: ThresholdSpec, seed: int, samples: int, cap: int, problems):
    """Uniform samples from the single armed family past its threshold;
    returns (examined, violation masks, aborted, cross-check ok)."""
    n = spec.n
    ((dd, threshold),) = spec.thresholds.items()
    if spec.complement:
        window, keep = (0, threshold - 1), lambda degs: max(degs, default=0) <= dd
    else:
        window, keep = (threshold + 1, comb(n, 2)), lambda degs: min(degs) >= dd
    masks, proposals, starved = _sample_filtered_window(
        n, SplitMix64(seed), samples, *window, keep
    )
    if starved:
        problems.append(
            f"sampler starved: {len(masks)} of {samples} samples after {proposals} proposals"
        )
    decisions, aborted = _decide_masks(n, spec.r, masks, cap, spec.complement)
    # duality cross-check per sample: an independent direct-colouring search
    # on the complement must agree with the packing decision
    ok = not spec.dual or all(
        equitable_colouring(
            Graph.from_edge_mask(n, m).complement(), n // spec.r, cap, method="direct"
        ).decision == dec
        for m, dec in zip(masks, decisions)
    )
    viol_masks = sorted({masks[i] for i, dec in enumerate(decisions) if not dec})
    return len(decisions), viol_masks, aborted or starved, ok


def _dual_agrees(spec, task, examined, violations, per_d, workers, node_cap, n_cap, cap):
    """The colouring-side cross-check of ``verify_mainthm1_threshold``'s
    exhaustive mode; returns (agrees, dual run aborted)."""
    n, r = spec.n, spec.r
    big_d = None if task.d is None else n - 1 - task.d
    dual = verify_t1_threshold(n, r, big_d, workers=workers, node_cap=node_cap, n_cap=n_cap)
    ok = dual.examined == examined
    dual_viols = sorted(
        encode_graph6(decode_graph6(g6).complement()) for g6 in dual.violations
    )
    ok = ok and dual_viols == sorted(violations)
    half = comb(n, 2)
    for dd, row in per_d.items():
        drow = dual.per_d[n - 1 - dd]
        if not (row["found"] and drow["found"]):
            ok = False
            continue
        comp = decode_graph6(row["graph6"]).complement()
        ok = (
            ok
            and row["edges"] + drow["edges"] == half
            and max(comp.degrees()) <= n - 1 - dd
            and comp.edge_count == drow["edges"]
            and not equitable_colouring(comp, n // r, cap).decision
        )
    return ok, dual.status == "aborted"


def _verify_threshold(spec: ThresholdSpec, task: EnumerationTask, workers: int,
                      node_cap: int | None, n_cap: int, timing: bool) -> VerificationReport:
    """Run ``spec`` in ``task.mode`` and build its report."""
    cap = resolve_node_cap(node_cap)
    t0 = perf_counter()
    problems: list[str] = []
    per_d = extremal = None
    if task.mode == "exhaustive":
        examined, masks, aborted, per_d = _scan_threshold(spec, workers, cap, n_cap, problems)
        ok = all(row["found"] and row["edges"] == row["threshold"] for row in per_d.values())
        extremal = _pick_boundary(per_d, prefer_larger=not spec.complement)
    elif task.mode == "sampled":
        if task.d is None or task.seed is None or not task.samples:
            name = "d" if task.r is None else "D"
            raise ParameterRangeError(f"sampled mode needs {name}, seed and samples")
        examined, masks, aborted, ok = _sample_threshold(
            spec, task.seed, task.samples, cap, problems
        )
    else:
        raise ParameterRangeError(f"unknown mode {task.mode!r}")
    violations = tuple(_witness(spec.n, m) for m in masks)
    _recheck(violations, lambda g: spec.refuted_by(g, cap), problems)
    if spec.dual and per_d is not None:
        dual_ok, dual_aborted = _dual_agrees(
            spec, task, examined, violations, per_d, workers, node_cap, n_cap, cap
        )
        ok, aborted = ok and dual_ok, aborted or dual_aborted
    return VerificationReport(
        task, examined, violations, extremal,
        _status(aborted, ok and not violations and not problems),
        _elapsed_ms(t0, timing), per_d, problems=tuple(problems),
    )


def _pick_boundary(per_d, prefer_larger: bool):
    """(edges, graph6) of the most extreme found row; lowest mask on ties."""
    rows = [row for row in per_d.values() if row["found"]]
    if not rows:
        return None
    sign = -1 if prefer_larger else 1
    best = min(rows, key=lambda row: (sign * row["edges"], row["mask"]))
    return best["edges"], best["graph6"]


def _armed(single: int | None, lo: int, hi: int, message: str) -> list[int]:
    """[single] when a single degree parameter is given, else lo..hi."""
    if single is None:
        return list(range(lo, hi + 1))
    if not lo <= single <= hi:
        raise ParameterRangeError(message)
    return [single]


def verify_matching_threshold(
    n: int,
    d: int | None = None,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    workers: int = 1,
    node_cap: int | None = None,
    n_cap: int = EXHAUSTIVE_DEFAULT_CAP,
    timing: bool = False,
) -> VerificationReport:
    """Check the perfect-matching edge threshold against enumeration.

    Exhaustive mode confirms, for each min-degree floor d (all of
    1..n/2-1 unless a single d is given), that the maximum edge count among
    graphs with min degree >= d and no perfect matching equals the closed-form
    threshold, recording the extremal witness; any richer non-matchable graph
    is a violation.  Sampled mode draws uniformly from the family
    {min degree >= d, edges > threshold} and re-decides matchability.
    """
    if n < 4 or n % 2:
        raise ParameterRangeError("need n >= 4 even")
    armed = _armed(d, 1, n // 2 - 1, "need 1 <= d <= n/2 - 1")
    spec = ThresholdSpec(
        "matching", n, 2, False, {dd: matching_threshold(n, dd).value for dd in armed}
    )
    task = _task(spec.predicate, n, mode, d=d, seed=seed, samples=samples)
    return _verify_threshold(spec, task, workers, node_cap, n_cap, timing)


def verify_t1_threshold(
    n: int,
    r: int,
    big_d: int | None = None,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    workers: int = 1,
    node_cap: int | None = None,
    n_cap: int = EXHAUSTIVE_DEFAULT_CAP,
    timing: bool = False,
) -> VerificationReport:
    """Check the equitable-colouring edge threshold against enumeration.

    Exhaustive mode confirms, for each max-degree cap D (all of n/r..n-r
    unless a single D is given), that every graph with max degree <= D and
    fewer than the threshold's edges is equitably (n/r)-colourable, and that a
    non-colourable graph meeting the threshold exactly exists (the recorded
    extremal).  Sampled mode draws uniformly from {max degree <= D, edges <
    threshold} and re-decides colourability.
    """
    if r < 3 or n % r or n < 2 * r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= 2r")
    armed = _armed(big_d, n // r, n - r, "need n/r <= D <= n - r")
    spec = ThresholdSpec(
        "t1", n, r, True, {dd: colouring_threshold(n, r, dd).value for dd in armed}
    )
    task = _task(spec.predicate, n, mode, r=r, d=big_d, seed=seed, samples=samples)
    return _verify_threshold(spec, task, workers, node_cap, n_cap, timing)


def verify_mainthm1_threshold(
    n: int,
    r: int,
    big_d: int | None = None,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    workers: int = 1,
    node_cap: int | None = None,
    n_cap: int = EXHAUSTIVE_DEFAULT_CAP,
    timing: bool = False,
) -> VerificationReport:
    """Check the perfect-packing edge threshold; dual of the colouring check.

    Exhaustive mode scans min-degree families directly (for each floor D in
    r-1..n-1-n/r: maximum edge count among non-packable graphs with min degree
    >= D must equal the packing threshold) and additionally cross-checks the
    whole run against the colouring-side scan at the complementary degree
    parameter: examined counts match, violation sets are complement images,
    per-D extremal edge counts are complementary, and the complement of each
    recorded extremal is itself a colouring-side boundary witness.
    """
    if r < 3 or n % r or n < 2 * r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= 2r")
    armed = _armed(big_d, r - 1, n - 1 - n // r, "need r - 1 <= D <= n - 1 - n/r")
    spec = ThresholdSpec(
        "mainthm1", n, r, False,
        {dd: packing_threshold(n, r, dd).value for dd in armed}, dual=True,
    )
    task = _task(spec.predicate, n, mode, r=r, d=big_d, seed=seed, samples=samples)
    return _verify_threshold(spec, task, workers, node_cap, n_cap, timing)


# ---------------------------------------------------------------------------
# degree-condition searches


def banded_condition_profile(graph: Graph, r: int):
    """Failure indices of the banded packing condition.

    Returns ``(alpha_failures, beta_ok)``: the 1-based indices i < n/r with
    d_i < (r-2)n/r + i, and whether d_{n/r+1} >= (r-1)n/r.
    """
    n = graph.n
    if r < 2 or n % r or n < r:
        raise ParameterRangeError("need r >= 2 and r | n with n >= r")
    q = n // r
    d = degree_sequence(graph)
    fails = tuple(i for i in range(1, q) if d[i - 1] < (r - 2) * q + i)
    return fails, d[q] >= (r - 1) * q


def disjunctive_condition_failures(graph: Graph, r: int) -> tuple[int, ...]:
    """1-based indices i <= n/r failing both disjuncts:
    d_i >= (r-2)n/r + i and d_{n-i(r-1)+1} >= n - i."""
    n = graph.n
    if r < 2 or n % r or n < r:
        raise ParameterRangeError("need r >= 2 and r | n with n >= r")
    q = n // r
    d = degree_sequence(graph)
    return tuple(
        i
        for i in range(1, q + 1)
        if d[i - 1] < (r - 2) * q + i and d[n - i * (r - 1)] < n - i
    )


def _condition_search(
    predicate: str,
    variant: int,
    n: int,
    r: int,
    mode: str,
    seed: int | None,
    samples: int | None,
    workers: int,
    node_cap: int | None,
    n_cap: int,
    timing: bool,
) -> VerificationReport:
    """Counterexample search for a packing degree condition (variant 0:
    banded, 1: disjunctive, with its sharpness check) and its report."""
    if r < 3 or n % r or n < r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= r")
    cap = resolve_node_cap(node_cap)
    task = _task(predicate, n, mode, r=r, seed=seed, samples=samples)
    t0 = perf_counter()
    problems: list[str] = []
    if mode == "exhaustive":
        _check_exhaustive(n, n_cap)

        def run_one(bounds):
            lo, hi = bounds
            adj = np.zeros(n, np.int64)
            cand, chosen, comm = K.pack_work_arrays(n)
            degs = np.zeros(n, np.int64)
            viol = np.zeros(VIOLATION_BUFFER, np.int64)
            examined, cond_true, nviol, aborted = K.scan_degree_condition(
                n, r, variant, lo, hi, cap, adj, cand, chosen, comm, degs, viol,
            )
            return examined, cond_true, (nviol, viol[:nviol].tolist()), aborted

        parts = _run_chunks(1 << comb(n, 2), workers, run_one)
        examined = sum(p[0] for p in parts)
        cond_true = sum(p[1] for p in parts)
        viol_masks = _kept_violations([p[2] for p in parts], problems)
        aborted = any(p[3] for p in parts)
    elif mode == "sampled":
        if seed is None or not samples:
            raise ParameterRangeError("sampled mode needs seed and samples")
        e_total = comb(n, 2)
        words_per = (e_total + 63) // 64
        rng = SplitMix64(seed)
        q = n // r
        examined = 0
        cond_true = 0
        viol_set: set[int] = set()
        aborted = False
        cand, chosen, comm = K.pack_work_arrays(n)
        remaining = samples
        while remaining and not aborted:
            batch = min(SAMPLE_BATCH, remaining)
            remaining -= batch
            raw = [[rng.next_word() for _ in range(words_per)] for _ in range(batch)]
            adjs = _expand_words(n, raw)
            degs = np.sort(np.bitwise_count(adjs), axis=1).astype(np.int64)
            if variant == 0:
                cond = degs[:, q] >= (r - 1) * q
                for i in range(1, q):
                    cond &= degs[:, i - 1] >= (r - 2) * q + i
            else:
                cond = np.ones(batch, bool)
                for i in range(1, q + 1):
                    cond &= (degs[:, i - 1] >= (r - 2) * q + i) | (
                        degs[:, n - i * (r - 1)] >= n - i
                    )
            examined += batch
            hits = np.flatnonzero(cond)
            cond_true += len(hits)
            for b in hits:
                st, _ = K._pack_decide(adjs[b], n, r, cap, cand, chosen, comm)
                if st == -1:
                    aborted = True
                    break
                if st == 0:
                    mask = sum(x << (64 * w) for w, x in enumerate(raw[b]))
                    viol_set.add(mask & ((1 << e_total) - 1))
        viol_masks = sorted(viol_set)
    else:
        raise ParameterRangeError(f"unknown mode {mode!r}")
    violations = tuple(_witness(n, m) for m in viol_masks)

    if variant == 0:
        condition = lambda g: banded_condition_profile(g, r) == ((), True)  # noqa: E731
    else:
        condition = lambda g: not disjunctive_condition_failures(g, r)  # noqa: E731
    _recheck(
        violations, lambda g: condition(g) and not perfect_kr_packing(g, r, cap).decision,
        problems,
    )
    if variant == 1:
        # sharpness of the disjunctive condition on the extremal2 family
        for k in range(1, n // r + 1):
            g = build_extremal2(n, r, k)
            fails = disjunctive_condition_failures(g, r)
            if fails != (k,):
                problems.append(f"extremal2(k={k}) fails at {fails}, expected ({k},)")
            d = degree_sequence(g)
            if d[n - k * (r - 1)] != n - k - 1:
                problems.append(f"extremal2(k={k}) boundary degree {d[n - k * (r - 1)]}")
    return VerificationReport(
        task, examined, violations, None,
        _status(aborted, not violations and not problems), _elapsed_ms(t0, timing),
        condition_count=cond_true, problems=tuple(problems),
    )


def conjecture1_search(
    n: int,
    r: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    workers: int = 1,
    node_cap: int | None = None,
    n_cap: int = 6,
    timing: bool = False,
) -> VerificationReport:
    """Search for a counterexample to the banded degree condition: a graph
    satisfying d_i >= (r-2)n/r + i for all i < n/r and d_{n/r+1} >= (r-1)n/r
    yet admitting no perfect r-clique packing.  Expected empty."""
    return _condition_search(
        "conj1", 0, n, r, mode, seed, samples, workers, node_cap, n_cap, timing,
    )


def question1_search(
    n: int,
    r: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int | None = None,
    workers: int = 1,
    node_cap: int | None = None,
    n_cap: int = 6,
    timing: bool = False,
) -> VerificationReport:
    """Search for a counterexample to the disjunctive degree condition
    (d_i >= (r-2)n/r + i or d_{n-i(r-1)+1} >= n - i for all i <= n/r), and
    check the condition's sharpness: every extremal witness graph fails it at
    exactly index k, with d_{n-k(r-1)+1} = n - k - 1."""
    return _condition_search(
        "ques1", 1, n, r, mode, seed, samples, workers, node_cap, n_cap, timing,
    )


# ---------------------------------------------------------------------------
# Hamilton-path degree-condition sweep


def sweep_hampath_condition(
    n: int, workers: int = 1, n_cap: int = EXHAUSTIVE_HARD_CAP
) -> tuple[int, int, tuple[str, ...]]:
    """Exhaustively test that the Hamilton-path degree condition is sound on
    all labeled n-vertex graphs.  Returns (examined, condition_true,
    violation witnesses); soundness means no witnesses."""
    if n < 2:
        raise ParameterRangeError("need n >= 2")
    _check_exhaustive(n, n_cap)

    def run_one(bounds):
        lo, hi = bounds
        adj = np.zeros(n, np.int64)
        dp = np.zeros(1 << n, np.int64)
        degs = np.zeros(n, np.int64)
        viol = np.zeros(VIOLATION_BUFFER, np.int64)
        examined, cond_true, nviol = K.scan_chvatal(n, lo, hi, adj, dp, degs, viol)
        if nviol > VIOLATION_BUFFER:
            raise RuntimeError("violation buffer overflow")
        return examined, cond_true, [int(viol[i]) for i in range(nviol)]

    parts = _run_chunks(1 << comb(n, 2), workers, run_one)
    examined = sum(p[0] for p in parts)
    cond_true = sum(p[1] for p in parts)
    violations = tuple(_witness(n, m) for p in parts for m in p[2])
    return examined, cond_true, violations


# ---------------------------------------------------------------------------
# construction audit


_PACKING_BLOCKERS = ("af_i", "af_ii", "t_star", "extremal1", "extremal2")


def _solver_cap_for(token: str, params: dict, solver_cap: int) -> int:
    r_like = 2 if token == "H" else params.get("r", 3)
    return solver_cap + 2 if r_like == 2 else solver_cap


def audit_instance(
    token: str,
    params: dict,
    node_cap: int | None = None,
    solver_cap: int = 12,
) -> list[str]:
    """Audit one construction instance against all its claims.

    Structural claims (edge count, degree bands, family-specific boundary
    degrees and condition-failure indices) are checked at any size; the
    blocking property (non-packability / non-colourability / the square
    obstruction) is re-confirmed by the exact solvers when n is within
    ``solver_cap`` (two more for matching-sized blocks).
    """
    family = FAMILIES[token]
    g = family.build(**params)
    problems: list[str] = []
    n = params["n"]
    expected = expected_edges(token, **params)
    if expected is not None and g.edge_count != expected:
        problems.append(f"edge count {g.edge_count} != {expected}")
    bands = expected_degree_bands(token, **params)
    if bands is not None:
        want = sorted(deg for cnt, deg in bands for _ in range(cnt))
        if degree_sequence(g) != want:
            problems.append("degree sequence differs from the claimed bands")
    cap = resolve_node_cap(node_cap)
    within = n <= _solver_cap_for(token, params, solver_cap)
    if token == "H":
        if within and perfect_kr_packing(g, 2, cap).decision:
            problems.append("unexpected perfect matching")
    elif token in ("G1", "G2"):
        if within and equitable_colouring(g, n // params["r"], cap).decision:
            problems.append("unexpected equitable colouring")
    elif token == "af_i" and params["r"] >= 3:
        from .constructions import build_clique_plus_isolates

        if g.complement() != build_clique_plus_isolates(n, params["r"]):
            problems.append("complement is not the clique-plus-isolates graph")
    elif token == "extremal1":
        r, k = params["r"], params["k"]
        fails, beta_ok = banded_condition_profile(g, r)
        if fails != (k,) or not beta_ok:
            problems.append(f"banded condition fails at {fails} (beta {beta_ok})")
    elif token == "extremal2":
        r, k = params["r"], params["k"]
        fails = disjunctive_condition_failures(g, r)
        if fails != (k,):
            problems.append(f"disjunctive condition fails at {fails}")
        if degree_sequence(g)[n - k * (r - 1)] != n - k - 1:
            problems.append("boundary degree differs from the claimed value")
    elif token == "square_cx":
        c = params["C"]
        third = n // 3
        if g.degree(0) != third + c + 1:
            problems.append("centre degree differs from n/3 + C + 1")
        if any(g.degree(v) != n - 2 for v in range(third + c + 2, n)):
            problems.append("clique-part degree differs from n - 2")
        d = degree_sequence(g)
        bad = [i for i in range(1, third + 1) if d[i - 1] < third + c + i]
        if bad:
            problems.append(f"degree band fails at indices {bad}")
        if 0 not in square_hamilton_obstructions(g):
            problems.append("vertex 0 not flagged by the square obstruction check")
    if token in _PACKING_BLOCKERS and within and perfect_kr_packing(g, params["r"], cap).decision:
        problems.append("unexpected perfect packing")
    return problems


def _audit_grid(max_n: int):
    for n in range(4, max_n + 1, 2):
        for d in range(0, n // 2):
            yield "H", {"n": n, "d": d}
    for r in range(2, max_n + 1):
        for n in range(r, max_n + 1):
            if n % r:
                continue
            if r >= 3:
                yield "G1", {"n": n, "r": r}
            yield "af_i", {"n": n, "r": r}
            if n >= 2 * r:
                yield "t_star", {"n": n, "r": r}
            for j in range(1, r - 1):
                if n >= r + j:
                    yield "af_ii", {"n": n, "r": r, "j": j}
            if n >= 2 * r:
                q = n // r
                if r >= 3:
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


def audit_constructions(
    max_n: int = 120,
    node_cap: int | None = None,
    solver_cap: int = 12,
    timing: bool = False,
) -> VerificationReport:
    """Audit every construction family over its full parameter grid up to
    ``max_n``: closed-form edge counts and degree bands exactly, blocking
    properties solver-confirmed within ``solver_cap``.  Violating instances
    appear as graph6 witnesses with human-readable detail in ``problems``."""
    if max_n < 4:
        raise ParameterRangeError("need max_n >= 4")
    t0 = perf_counter()
    examined = 0
    witnesses: list[str] = []
    problems: list[str] = []
    for token, params in _audit_grid(max_n):
        found = audit_instance(token, params, node_cap, solver_cap)
        examined += 1
        if found:
            g = FAMILIES[token].build(**params)
            witnesses.append(encode_graph6(g))
            pstr = ",".join(f"{k}={v}" for k, v in params.items())
            problems.append(f"{token}({pstr}): " + "; ".join(found))
    task = EnumerationTask(predicate="audit", n=max_n, mode="audit")
    return VerificationReport(
        task, examined, tuple(witnesses), None,
        "pass" if not witnesses else "fail", _elapsed_ms(t0, timing),
        problems=tuple(problems),
    )
