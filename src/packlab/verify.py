"""Desk-scale empirical verification: exhaustive enumeration over labeled
graphs, uniform sampling from filtered families, construction audits, and
counterexample searches for the degree-condition conjectures.

Scans and samplers share one loop, ``_search``: it takes blocks of rows of
edge words, expands them, filters them by degrees, decides them exactly,
buffers the first violations, keeps the per-floor extremum and stops at
the first graph that hits the node cap.  The modes differ only in where
the rows come from: scans give each ``C(n,2)``-bit edge mask as one word;
samplers give the words of the explicitly seeded ``splitmix64`` generator,
or the graphs they accepted from it; all randomness flows from that seed.
Reports serialize to a stable canonical JSON schema with ``elapsed_ms``
zeroed unless timing is requested, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import comb
from time import perf_counter

import numpy as np

from . import _kernels as K
from .constructions import (
    FAMILIES,
    build_clique_plus_isolates,
    expected_degree_bands,
    expected_edges,
)
from .errors import CapExceededError, ParameterRangeError
from .formats import decode_graph6, encode_graph6
from .graph import Graph
from .solvers import (
    _banded_profile,
    _disjunctive_failures,
    banded_condition_profile,
    chvatal_hampath_condition,
    disjunctive_condition_failures,
    equitable_colouring,
    hamilton_path_exact,
    perfect_kr_packing,
    resolve_node_cap,
    square_hamilton_obstructions,
)
from .thresholds import colouring_threshold, matching_threshold, packing_threshold

EXHAUSTIVE_DEFAULT_CAP = 7
EXHAUSTIVE_HARD_CAP = 11  # edge masks beyond C(11,2) bits overflow int64
VIOLATION_BUFFER = 4096
GENERATOR_ID = "splitmix64"
SAMPLE_BATCH = 4096
PROPOSAL_LIMIT_FACTOR = 1000
_WORD = (1 << 64) - 1
# the packing subset programme has at most 6,150 (set, block) pairs up to
# n = 12, at (12, 4), but 34,521 already at (15, 3)
_PACK_ROWS_MAX_N = 12


class SplitMix64:
    """The splitmix64 sequence; the documented generator behind sampled mode.

    Counter-based: word k (from 1) is ``mix(seed + k * 0x9E3779B97F4A7C15)``
    modulo 2^64, the value the classic state-stepping loop yields on its
    k-th call.  ``words`` makes the next ones as a numpy ``uint64`` array.
    """

    _GAMMA = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _WORD)
        self._made = 0  # words made so far

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words of the stream, as a ``uint64`` array."""
        k = np.arange(self._made + 1, self._made + 1 + count, dtype=np.uint64)
        self._made += count
        z = self._seed + k * self._GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by bit-rejection: the top bits of
        as many whole words as it needs, redrawn until below the bound.
        Each word is the same splitmix64 step as ``words``, on Python ints."""
        if bound <= 0:
            raise ParameterRangeError("bound must be positive")
        bits = (bound - 1).bit_length()
        seed = int(self._seed)
        x = bound
        while x >= bound:
            x = 0
            for _ in range(-(-bits // 64)):  # none for a bound of 1
                self._made += 1
                z = (seed + self._made * 0x9E3779B97F4A7C15) & _WORD
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD
                x = x << 64 | z ^ (z >> 31)
            x >>= -bits % 64
        return x


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
    if mode not in ("exhaustive", "sampled"):
        raise ParameterRangeError(f"unknown mode {mode!r}")
    sampled = mode == "sampled"
    if sampled and n > K.KERNEL_MAX_N:  # the int64 neighbour masks would overflow
        raise ParameterRangeError(f"sampled mode is limited to n <= {K.KERNEL_MAX_N}")
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


def _incident_slots(n: int) -> list[int]:
    """For each vertex, the bitmask of the edge slots that touch it."""
    out = [0] * n
    for s, (i, j) in enumerate(K.slot_ends(n)):
        out[i] |= 1 << s
        out[j] |= 1 << s
    return out


def _sample_filtered_window(n: int, rng: SplitMix64, samples: int, m_lo: int, m_hi: int,
                            degree_filter):
    """First-`samples`-accepted uniform draws from the graphs with edge count
    in [m_lo, m_hi] passing ``degree_filter`` (a predicate on the degree
    list).  Returns (masks, proposals, starved); starved means the proposal
    budget ran out before `samples` draws were accepted.

    A draw reads the words ``rng.next_below`` would: the edge count m, then
    m slots by Floyd's algorithm, each by bit-rejection on the top bits of
    whole words.  The words come from ``rng.words`` lists, read ahead."""
    e_total = comb(n, 2)
    # edge counts m in [m_lo, m_hi] are drawn with probability proportional
    # to the number of labeled graphs with m edges
    cum = list(accumulate(comb(e_total, m) for m in range(m_lo, m_hi + 1)))
    if not cum:
        return [], 0, False
    incident = _incident_slots(n)
    limit = PROPOSAL_LIMIT_FACTOR * samples + 1000
    bits = (cum[-1] - 1).bit_length()
    draw = range(-(-bits // 64))  # the edge count's words, as in ``next_below``
    steps = [(t, 64 - t.bit_length()) for t in range(e_total)]  # a slot below t + 1
    word = chain.from_iterable(iter(lambda: rng.words(4096).tolist(), None)).__next__
    out = []
    proposals = 0
    while len(out) < samples and proposals < limit:
        proposals += 1
        x = cum[-1]
        while x >= cum[-1]:
            x = 0
            for _ in draw:
                x = x << 64 | word()
            x >>= -bits % 64
        m = m_lo + bisect_right(cum, x)
        mask = 0
        for t, sh in steps[e_total - m :]:  # Floyd's algorithm
            x = word() >> sh if t else 0
            while x > t:
                x = word() >> sh
            mask |= 1 << (t if mask >> x & 1 else x)
        if degree_filter([(mask & slots).bit_count() for slots in incident]):
            out.append(mask)
    return out, proposals, len(out) < samples


def _word_rows(n: int, masks) -> np.ndarray:
    """Edge masks as rows of unsigned 64-bit edge words."""
    words = range((comb(n, 2) + 63) // 64)
    return np.array([[(m >> (64 * w)) & _WORD for w in words] for m in masks], np.uint64)


def _complement_rows(n: int, adjs: np.ndarray) -> np.ndarray:
    """Neighbour masks of the complement of each row's graph."""
    return ((1 << n) - 1) & ~adjs & ~(1 << np.arange(n, dtype=np.int64))


def _condition_rows(degs: np.ndarray, clauses) -> np.ndarray:
    """Which rows of vertex degrees meet every clause (a, b, c, e) of
    ``clauses``: d[a] >= b or d[c] >= e over the row sorted ascending."""
    table = np.array(clauses, np.int64).reshape(-1, 4)
    d = np.sort(degs, axis=1)
    return ((d[:, table[:, 0]] >= table[:, 1]) | (d[:, table[:, 2]] >= table[:, 3])).all(axis=1)


def _decide_rows(adjs: np.ndarray, n: int, r: int, node_cap: int):
    """Exact decision for each row of ``adjs``: a perfect r-clique packing,
    or a Hamilton path at r = 0.  Returns (decisions as a bool array,
    aborted), the decisions stopping at the first row that hit the node cap.

    Hamilton paths are decided across the block in numpy, and so are
    packings when r | n, n <= ``_PACK_ROWS_MAX_N`` and the node cap is one
    the packing search can never reach (``K.pack_node_bound``).  Otherwise
    ``K._pack_decide`` decides one row at a time and may abort on the cap."""
    if r == 0:
        return K.hampath_rows(adjs, n), False
    if n <= _PACK_ROWS_MAX_N and n % r == 0 and node_cap >= K.pack_node_bound(n, r):
        return K.packable_rows(adjs, n, r), False
    out = []
    for adj in adjs.tolist():
        out.append(K._pack_decide(adj, n, r, node_cap)[0])
        if out[-1] == -1:
            break
    done = (out + [-1]).index(-1)  # the first row on the cap
    return np.array(out[:done], np.int64) == 1, done < len(adjs)


def _mask_rows(start: int, stop: int) -> np.ndarray:
    """Exhaustive mode's rows: each edge mask as its one edge word."""
    return np.arange(start, stop, dtype=np.int64)[:, None]


def _row_mask(n: int, row: list[int]) -> int:
    """The edge mask of one row of edge words, without the stream bits past
    the last edge slot."""
    return sum(x << (64 * w) for w, x in enumerate(row)) & ((1 << comb(n, 2)) - 1)


def _search(n: int, r: int, size: int, rows, keep, cap: int, problems: list[str],
            complement: bool = False, mismatches: list | None = None, bounds=None):
    """Every scan and sampler: graphs 0..size-1 in blocks of ``SAMPLE_BATCH``.

    ``rows(start, stop)`` gives a block's edge words as ``K.words_to_adj``
    takes them.  The rows are expanded, complemented when asked, and those
    whose degrees ``keep`` accepts are decided with ``_decide_rows``.  With a
    ``mismatches`` list (r | n) the same rows' complements are also
    equitably (n/r)-coloured (``K.colour_rows``), and the neighbour masks of
    every row where the two answers disagree are appended to it.

    ``bounds`` maps degree floors to edge bounds: a decided graph that does
    not pack violates them when its edge count exceeds the lowest bound over
    the floors up to its min degree.  Without ``bounds`` every such graph is
    a violation.  Returns (examined, kept, violation masks without repeats
    and ascending, aborted, extremum), where ``extremum[f]`` is (edges, mask)
    of the first graph that does not pack with the most edges among those
    with min degree >= f, or None.  The run stops at the first row on which
    either search hits the node cap: both counts include that row, which is
    neither a violation nor an extremum.  The first ``VIOLATION_BUFFER``
    violations are kept; past them the count is recorded in ``problems``."""
    bounds = {0: -1} if bounds is None else bounds
    # the lowest bound over the floors up to each min degree (no graph has
    # more than C(n,2) edges)
    floor_bound = np.array(list(accumulate((bounds.get(f, comb(n, 2)) for f in range(n)), min)))
    floors = np.arange(max(bounds) + 1)
    best: list = [None] * len(floors)  # (edges, row) per floor
    examined = kept = nviol = 0
    stored: list = []
    aborted = False
    for start in range(0, size, SAMPLE_BATCH):
        block = rows(start, min(start + SAMPLE_BATCH, size))
        adjs = K.words_to_adj(block, n)
        if complement:
            adjs = _complement_rows(n, adjs)
        degs = np.bitwise_count(adjs)
        hits = np.flatnonzero(keep(degs))
        decisions, aborted = _decide_rows(adjs[hits], n, r, cap)
        if mismatches is not None:
            colours = K.colour_rows(_complement_rows(n, adjs[hits]), n, n // r, cap)[0]
            # up to the first row on which either search hit the cap
            decisions = decisions[: (colours.tolist()[: len(decisions)] + [-1]).index(-1)]
            aborted = len(decisions) < len(hits)
            disagree = hits[: len(decisions)][(colours[: len(decisions)] == 1) != decisions]
            mismatches += adjs[disagree].tolist()
        done = hits[: len(decisions)]
        e = degs[done].sum(axis=1, dtype=np.int64) // 2
        mindeg = degs[done].min(axis=1)
        if len(done):
            # member[b, f]: row b does not pack and has min degree >= f
            member = ~decisions[:, None] & (mindeg[:, None] >= floors)
            top = np.where(member, e[:, None], -1).argmax(axis=0)  # first max: earliest row
            for f, i in enumerate(top.tolist()):
                if member[i, f] and (best[f] is None or e[i] > best[f][0]):
                    best[f] = (int(e[i]), block[done[i]].tolist())
        bad = block[done[~decisions & (e > floor_bound[mindeg])]]
        nviol += len(bad)
        stored += bad[: VIOLATION_BUFFER - len(stored)].tolist()
        if aborted:
            examined += int(hits[len(decisions)]) + 1
            kept += len(decisions) + 1
            break
        examined += len(block)
        kept += len(hits)
    if nviol > len(stored):
        problems.append(f"{nviol} violations found; the report keeps the first {len(stored)}")
    extremum = [b and (b[0], _row_mask(n, b[1])) for b in best]
    return examined, kept, sorted({_row_mask(n, row) for row in stored}), aborted, extremum


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
    cross-checks every decided graph by an equitable (n/r)-colouring search
    on its complement.
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

    def extremal_holds(self, g: Graph, dd: int, cap: int) -> bool:
        """Re-solve the extremal ``g`` of family ``dd``: its dual (``g`` for a
        colouring check, else its complement) has max degree within the bound
        and no equitable (n/r)-colouring by the direct search, within ``cap``."""
        dual, bound = (g, dd) if self.complement else (g.complement(), self.n - 1 - dd)
        return max(dual.degrees()) <= bound and not equitable_colouring(
            dual, self.n // self.r, cap, method="direct"
        ).decision


def _verify_threshold(spec: ThresholdSpec, task: EnumerationTask, node_cap: int | None,
                      n_cap: int, timing: bool) -> VerificationReport:
    """Run ``spec`` in ``task.mode`` and build its report.  Exhaustive mode
    searches all 2^C(n,2) graphs and re-solves each family's extremal; the
    report's is the widest family's (the families nest), lowest mask on
    ties.  Sampled mode uniform samples from the single armed family past
    its threshold.  With ``dual`` every decided graph is cross-checked as
    ``_search`` describes."""
    n = spec.n
    cap = resolve_node_cap(node_cap)
    t0 = perf_counter()
    problems: list[str] = []
    mismatches = [] if spec.dual else None
    per_d = extremal = None
    starved = False
    name = "d" if task.r is None else "D"
    if task.mode == "exhaustive":
        _check_exhaustive(n, n_cap)
        size, rows = 1 << comb(n, 2), _mask_rows
    else:
        if task.d is None or task.seed is None or task.samples is None or task.samples < 1:
            raise ParameterRangeError(f"sampled mode needs {name}, seed and samples >= 1")
        ((dd, threshold),) = spec.thresholds.items()
        if spec.complement:
            window, fits = (0, threshold - 1), lambda degs: max(degs, default=0) <= dd
        else:
            window, fits = (threshold + 1, comb(n, 2)), lambda degs: min(degs) >= dd
        drawn, proposals, starved = _sample_filtered_window(
            n, SplitMix64(task.seed), task.samples, *window, fits
        )
        if starved:
            problems.append(f"sampler starved: {len(drawn)} of {task.samples} samples "
                            f"after {proposals} proposals")
        size, rows = len(drawn), lambda s, e: _word_rows(n, drawn[s:e])
    bounds = spec.packing_bounds()
    d_lo = min(bounds)
    examined, _, masks, capped, extremum = _search(
        n, spec.r, size, rows, lambda degs: degs.min(axis=1) >= d_lo, cap, problems,
        spec.complement, mismatches, bounds,
    )
    violations = tuple(_witness(n, m) for m in masks)
    _recheck(violations, lambda g: spec.refuted_by(g, cap), problems)
    if mismatches:
        problems.append(
            f"packing and colouring searches disagree on {len(mismatches)} of the decided "
            f"graphs; the first is {encode_graph6(Graph._from_masks(mismatches[0]))}"
        )
    if task.mode == "exhaustive":
        per_d = {}
        for dd, threshold in spec.thresholds.items():
            best = extremum[n - 1 - dd if spec.complement else dd]
            row = per_d[dd] = {
                "found": best is not None,
                "edges": best and (comb(n, 2) - best[0] if spec.complement else best[0]),
                "graph6": best and _witness(n, best[1]),
                "mask": best and best[1],
                "threshold": threshold,
            }
            # a node-cap abort or a violation already explains a missed closed form
            if row["edges"] != threshold and not (capped or violations):
                found = f"{row['edges']} edges" if best else "none"
                problems.append(f"{name}={dd}: extremal {found}, threshold {threshold}")
            try:
                if best and not spec.extremal_holds(decode_graph6(row["graph6"]), dd, cap):
                    problems.append(f"{name}={dd}: extremal {row['graph6']} failed the duality")
            except CapExceededError:
                capped = True
        widest = per_d[max(per_d) if spec.complement else min(per_d)]
        extremal = (widest["edges"], widest["graph6"]) if widest["found"] else None
    if capped:
        problems.append(f"node cap of {cap} reached")
    return VerificationReport(
        task, examined, violations, extremal,
        _status(capped or starved, not violations and not problems),
        _elapsed_ms(t0, timing), per_d, problems=tuple(problems),
    )


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
    ``workers`` is accepted for compatibility and has no effect.
    """
    if n < 4 or n % 2:
        raise ParameterRangeError("need n >= 4 even")
    armed = _armed(d, 1, n // 2 - 1, "need 1 <= d <= n/2 - 1")
    spec = ThresholdSpec(
        "matching", n, 2, False, {dd: matching_threshold(n, dd).value for dd in armed}
    )
    task = _task(spec.predicate, n, mode, d=d, seed=seed, samples=samples)
    return _verify_threshold(spec, task, node_cap, n_cap, timing)


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
    ``workers`` is accepted for compatibility and has no effect.
    """
    if r < 3 or n % r or n < 2 * r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= 2r")
    armed = _armed(big_d, n // r, n - r, "need n/r <= D <= n - r")
    spec = ThresholdSpec(
        "t1", n, r, True, {dd: colouring_threshold(n, r, dd).value for dd in armed}
    )
    task = _task(spec.predicate, n, mode, r=r, d=big_d, seed=seed, samples=samples)
    return _verify_threshold(spec, task, node_cap, n_cap, timing)


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
    >= D must equal the packing threshold); sampled mode draws uniformly from
    {min degree >= D, edges > threshold} and re-decides packability.  Both
    cross-check the duality graph by graph: every decided graph's complement
    is also searched for an equitable (n/r)-colouring, which must exist
    exactly when the graph packs, and the complement of each recorded
    extremal must have max degree <= n-1-D and no such colouring.
    ``workers`` is accepted for compatibility and has no effect.
    """
    if r < 3 or n % r or n < 2 * r:
        raise ParameterRangeError("need r >= 3 and r | n with n >= 2r")
    armed = _armed(big_d, r - 1, n - 1 - n // r, "need r - 1 <= D <= n - 1 - n/r")
    spec = ThresholdSpec(
        "mainthm1", n, r, False,
        {dd: packing_threshold(n, r, dd).value for dd in armed}, dual=True,
    )
    task = _task(spec.predicate, n, mode, r=r, d=big_d, seed=seed, samples=samples)
    return _verify_threshold(spec, task, node_cap, n_cap, timing)


# ---------------------------------------------------------------------------
# degree-condition searches


def _degree_clauses(predicate: str, n: int, r: int = 0) -> tuple:
    """The degree condition of ``predicate`` ("conj1": banded, "ques1":
    disjunctive, "hampath": the Hamilton-path condition) as clause rows
    (a, b, c, e), each meaning d[a] >= b or d[c] >= e over the ascending
    0-based degrees.  A one-sided clause has e = n, which no degree reaches."""
    if predicate == "hampath":
        return tuple((i - 1, i, n - i, n - i) for i in range(1, n // 2 + 1))
    q = n // r
    if predicate == "conj1":
        bands = tuple((i - 1, (r - 2) * q + i, 0, n) for i in range(1, q))
        return bands + ((q, (r - 1) * q, 0, n),)
    return tuple((i - 1, (r - 2) * q + i, n - i * (r - 1), n - i) for i in range(1, q + 1))


def _condition_search(
    predicate: str,
    n: int,
    r: int,
    mode: str,
    seed: int | None,
    samples: int | None,
    node_cap: int | None,
    n_cap: int,
    timing: bool,
) -> VerificationReport:
    """Counterexample search for the degree condition of ``predicate``
    ("conj1": banded; "ques1": disjunctive, with its sharpness check, both
    for perfect r-clique packings; "hampath": for Hamilton paths, at r = 0)
    and its report."""
    if predicate != "hampath" and (r < 3 or n % r or n < r):
        raise ParameterRangeError("need r >= 3 and r | n with n >= r")
    cap = resolve_node_cap(node_cap)
    task = _task(predicate, n, mode, r=r, seed=seed, samples=samples)
    t0 = perf_counter()
    problems: list[str] = []
    clauses = _degree_clauses(predicate, n, r)
    if mode == "exhaustive":
        _check_exhaustive(n, n_cap)
        size, rows = 1 << comb(n, 2), _mask_rows
    else:
        if seed is None or samples is None or samples < 1:
            raise ParameterRangeError("sampled mode needs seed and samples >= 1")
        # uniform graphs: 64 raw stream bits per edge word
        nwords = (comb(n, 2) + 63) // 64
        rng = SplitMix64(seed)
        size, rows = samples, lambda s, e: rng.words((e - s) * nwords).reshape(-1, nwords)
    examined, cond_true, viol_masks, aborted, _ = _search(
        n, r, size, rows, lambda degs: _condition_rows(degs, clauses), cap, problems
    )
    if aborted:
        problems.append(f"node cap of {cap} reached")
    violations = tuple(_witness(n, m) for m in viol_masks)

    if predicate == "hampath":
        condition, solve = chvatal_hampath_condition, hamilton_path_exact
    else:
        solve = lambda g: perfect_kr_packing(g, r, cap)  # noqa: E731
        if predicate == "conj1":
            condition = lambda g: banded_condition_profile(g, r) == ((), True)  # noqa: E731
        else:
            condition = lambda g: not disjunctive_condition_failures(g, r)  # noqa: E731
    _recheck(violations, lambda g: condition(g) and not solve(g).decision, problems)
    if predicate == "ques1":
        # sharpness of the disjunctive condition on the extremal2 family; a
        # solver cap of 0 skips the packing solver, which a small node cap
        # would stop with an error
        for k in range(1, n // r + 1):
            found = audit_instance("extremal2", {"n": n, "r": r, "k": k}, solver_cap=0)
            problems += [f"extremal2(k={k}): {problem}" for problem in found]
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
    yet admitting no perfect r-clique packing.  Expected empty.
    ``workers`` is accepted for compatibility and has no effect."""
    return _condition_search(
        "conj1", n, r, mode, seed, samples, node_cap, n_cap, timing,
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
    exactly index k, with d_{n-k(r-1)+1} = n - k - 1.
    ``workers`` is accepted for compatibility and has no effect."""
    return _condition_search(
        "ques1", n, r, mode, seed, samples, node_cap, n_cap, timing,
    )


def sweep_hampath_condition(
    n: int, workers: int = 1, n_cap: int = EXHAUSTIVE_HARD_CAP
) -> tuple[int, int, tuple[str, ...]]:
    """Exhaustively test that the Hamilton-path degree condition is sound on
    all labeled n-vertex graphs.  Returns (examined, condition_true,
    violation witnesses); soundness means no witnesses.  Past
    ``VIOLATION_BUFFER`` violations the first ones, in mask order, are kept
    and a ``RuntimeWarning`` gives the full count; a witness that fails its
    re-check by the solvers gets a ``RuntimeWarning`` too.
    ``workers`` is accepted for compatibility and has no effect."""
    if n < 2:
        raise ParameterRangeError("need n >= 2")
    # r = 0 needs no node cap
    report = _condition_search("hampath", n, 0, "exhaustive", None, None, 1, n_cap, False)
    for problem in report.problems:
        warnings.warn(problem, RuntimeWarning, stacklevel=2)
    return report.examined, report.condition_count, report.violations


# ---------------------------------------------------------------------------
# construction audit


# what the exact solvers must not find in each blocking family, and whether
# they look for it as a K_r-packing of the complement, as an equitable
# (n/r)-colouring is one
_BLOCKED = {
    "H": ("perfect matching", False),
    "G1": ("equitable colouring", True),
    "G2": ("equitable colouring", True),
    **dict.fromkeys(("af_i", "af_ii", "t_star", "extremal1", "extremal2"),
                    ("perfect packing", False)),
}


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
    ``solver_cap`` (two more for matching-sized blocks).  Every degree
    check reads one ascending degree list.
    """
    g = FAMILIES[token].build(**params)
    problems: list[str] = []
    n, r = params["n"], params.get("r", 2)  # H blocks perfect matchings: r = 2
    d = g.degrees()
    d.sort()
    edges, expected = sum(d) // 2, expected_edges(token, **params)
    if expected is not None and edges != expected:
        problems.append(f"edge count {edges} != {expected}")
    bands = expected_degree_bands(token, **params)
    if bands is not None:
        # d ascends, so a band whose two ends in d carry its degree covers
        # them all; bands out of order or miscounted read as a mismatch
        i = 0
        for cnt, deg in bands:
            if cnt and not (i + cnt <= n and d[i] == deg == d[i + cnt - 1]):
                i = -1
                break
            i += cnt
        if i != n:
            problems.append("degree sequence differs from the claimed bands")
    if token == "af_i" and r >= 3:
        if g.complement() != build_clique_plus_isolates(n, r):
            problems.append("complement is not the clique-plus-isolates graph")
    elif token == "extremal1":
        k = params["k"]
        fails, beta_ok = _banded_profile(d, r)
        if fails != (k,) or not beta_ok:
            problems.append(f"banded condition fails at {fails} (beta {beta_ok})")
    elif token == "extremal2":
        k = params["k"]
        fails = _disjunctive_failures(d, r)
        if fails != (k,):
            problems.append(f"disjunctive condition fails at {fails}")
        if d[n - k * (r - 1)] != n - k - 1:
            problems.append("boundary degree differs from the claimed value")
    elif token == "square_cx":
        c = params["C"]
        third = n // 3
        if g.degree(0) != third + c + 1:
            problems.append("centre degree differs from n/3 + C + 1")
        if any(g.degree(v) != n - 2 for v in range(third + c + 2, n)):
            problems.append("clique-part degree differs from n - 2")
        bad = [i for i in range(1, third + 1) if d[i - 1] < third + c + i]
        if bad:
            problems.append(f"degree band fails at indices {bad}")
        if 0 not in square_hamilton_obstructions(g):
            problems.append("vertex 0 not flagged by the square obstruction check")
    if token in _BLOCKED and n <= solver_cap + 2 * (r == 2):
        found, complement = _BLOCKED[token]
        if perfect_kr_packing(g.complement() if complement else g, r, node_cap).decision:
            problems.append(f"unexpected {found}")
    return problems


def _audit_grid(max_n: int):
    for n in range(4, max_n + 1, 2):
        for d in range(0, n // 2):
            yield "H", {"n": n, "d": d}
    for r in range(2, max_n + 1):
        for n in range(r, max_n + 1, r):
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
