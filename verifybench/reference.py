"""Reference values computed apart from packlab, and the checks that use them.

Nothing here imports packlab.  Graphs are edge-mask integers in the graph6
slot order (edge (i, j), i < j, at bit j*(j-1)/2 + i), decoded from the
reports' graph6 text by this module's own decoder.  Whole-population
references are numpy scans over every mask; single graphs go through naive
itertools searches.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import numpy as np

# ---------------------------------------------------------------------------
# graphs as edge masks


def slot(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def decode_graph6(text: str) -> tuple[int, int]:
    """(n, edge mask) of a graph6 string with n <= 62."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    mask = 0
    s = 0
    for byte in data[1:]:
        for t in range(5, -1, -1):
            if (byte - 63) >> t & 1:
                mask |= 1 << s
            s += 1
    if mask >> comb(n, 2):
        raise ValueError(f"padding bits set in {text!r}")
    return n, mask


def neighbours(n: int, mask: int) -> list[set[int]]:
    nb = [set() for _ in range(n)]
    for j in range(1, n):
        for i in range(j):
            if mask >> slot(i, j) & 1:
                nb[i].add(j)
                nb[j].add(i)
    return nb


def degrees(n: int, mask: int) -> list[int]:
    return [len(s) for s in neighbours(n, mask)]


def packs(n: int, mask: int, r: int) -> bool:
    """Whether the vertices split into cliques on r vertices."""
    nb = neighbours(n, mask)
    if n % r:
        return False

    def extend(left):
        if not left:
            return True
        first, rest = left[0], left[1:]
        for others in combinations(rest, r - 1):
            block = (first,) + others
            if all(b in nb[a] for a, b in combinations(block, 2)):
                if extend(tuple(v for v in rest if v not in others)):
                    return True
        return False

    return extend(tuple(range(n)))


def equitably_colourable(n: int, mask: int, k: int) -> bool:
    """Whether a proper colouring with k classes of sizes differing by at
    most one exists."""
    nb = neighbours(n, mask)
    q, s = divmod(n, k)
    sizes = [q + 1] * s + [q] * (k - s)

    def extend(left, sizes):
        if not left:
            return True
        first, rest = left[0], left[1:]
        for size in sorted(set(x for x in sizes if x)):
            for others in combinations(rest, size - 1):
                cls = (first,) + others
                if all(b not in nb[a] for a, b in combinations(cls, 2)):
                    remaining = list(sizes)
                    remaining.remove(size)
                    if extend(tuple(v for v in rest if v not in others), remaining):
                        return True
        return False

    return extend(tuple(range(n)), sizes)


# ---------------------------------------------------------------------------
# degree conditions, transcribed from their statements: each takes rows of
# degrees sorted ascending (d_1 <= ... <= d_n, 1-based in the statements) and
# says per row whether the condition holds


def hampath_condition(d: np.ndarray) -> np.ndarray:
    """For every 1 <= i <= n/2: d_i >= i or d_{n-i+1} >= n-i."""
    n = d.shape[1]
    ok = np.ones(len(d), bool)
    for i in range(1, n // 2 + 1):
        ok &= (d[:, i - 1] >= i) | (d[:, n - i] >= n - i)
    return ok


def banded_condition(d: np.ndarray, r: int) -> np.ndarray:
    """conj1: d_i >= (r-2)n/r + i for 1 <= i < n/r, and d_{n/r+1} >= (r-1)n/r."""
    q = d.shape[1] // r
    ok = d[:, q] >= (r - 1) * q
    for i in range(1, q):
        ok &= d[:, i - 1] >= (r - 2) * q + i
    return ok


def disjunctive_condition(d: np.ndarray, r: int) -> np.ndarray:
    """ques1: for every 1 <= i <= n/r, d_i >= (r-2)n/r + i or
    d_{n-i(r-1)+1} >= n - i."""
    n = d.shape[1]
    q = n // r
    ok = np.ones(len(d), bool)
    for i in range(1, q + 1):
        ok &= (d[:, i - 1] >= (r - 2) * q + i) | (d[:, n - i * (r - 1)] >= n - i)
    return ok


# ---------------------------------------------------------------------------
# whole populations: every labelled graph on n <= 6 vertices


def _incidence(n: int) -> np.ndarray:
    inc = np.zeros((comb(n, 2), n), np.int64)
    for j in range(1, n):
        for i in range(j):
            inc[slot(i, j), i] = inc[slot(i, j), j] = 1
    return inc


def _block_masks(n: int, r: int) -> np.ndarray:
    """Edge masks of every split of range(n) into blocks of r vertices,
    each mask holding all pairs inside the blocks."""
    out = []

    def extend(left, acc):
        if not left:
            out.append(acc)
            return
        first, rest = left[0], left[1:]
        for others in combinations(rest, r - 1):
            block = (first,) + others
            m = acc
            for a, b in combinations(block, 2):
                m |= 1 << slot(a, b)
            extend(tuple(v for v in rest if v not in others), m)

    extend(tuple(range(n)), 0)
    return np.array(out, np.int64)


def _path_masks(n: int) -> np.ndarray:
    out = set()
    for perm in permutations(range(n)):
        if perm[0] < perm[-1] or n == 1:
            out.add(sum(1 << slot(perm[t], perm[t + 1]) for t in range(n - 1)))
    return np.array(sorted(out), np.int64)


def _contains_any(masks: np.ndarray, required: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Per mask: some entry of ``required`` is a subset of it."""
    out = np.zeros(len(masks), bool)
    for lo in range(0, len(masks), chunk):
        part = masks[lo:lo + chunk, None] & required[None, :]
        out[lo:lo + chunk] = (part == required[None, :]).any(axis=1)
    return out


class Population:
    """Every labelled graph on n vertices, with degrees and edge counts."""

    def __init__(self, n: int):
        self.n = n
        self.slots = comb(n, 2)
        self.masks = np.arange(1 << self.slots, dtype=np.int64)
        bits = (self.masks[:, None] >> np.arange(self.slots)) & 1
        self.degs = bits @ _incidence(n)
        self.sorted_degs = np.sort(self.degs, axis=1)
        self.edges = bits.sum(axis=1)
        self.mindeg = self.degs.min(axis=1)

    def packable(self, r: int) -> np.ndarray:
        return _contains_any(self.masks, _block_masks(self.n, r))

    def has_hamilton_path(self) -> np.ndarray:
        return _contains_any(self.masks, _path_masks(self.n))


def max_edges(pop: Population, select: np.ndarray):
    """Most edges among the selected graphs, None if none is selected."""
    return int(pop.edges[select].max()) if select.any() else None


# ---------------------------------------------------------------------------
# the SplitMix64 stream and the sampled conj1/ques1 populations

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words start .. start+count-1 (0-based) of SplitMix64 seeded with
    ``seed``: word t is mix(seed + (t+1) * GAMMA mod 2**64)."""
    t = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed % (1 << 64)) + t * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def sampled_condition_graphs(n: int, r: int, seed: int, samples: int, condition,
                             chunk: int = 20_000):
    """Edge masks of the condition-true graphs among ``samples`` graphs whose
    edge slot s is bit s mod 64 of the graph's word s // 64, the words taken
    in order from one SplitMix64 stream."""
    e = comb(n, 2)
    per = (e + 63) // 64
    inc = _incidence(n)
    hits: list[int] = []
    for lo in range(0, samples, chunk):
        b = min(chunk, samples - lo)
        words = splitmix64_words(seed, lo * per, b * per).reshape(b, per)
        s = np.arange(e)
        bits = (words[:, s // 64] >> (s % 64).astype(np.uint64)) & np.uint64(1)
        bits = bits.astype(np.int64)
        sorted_degs = np.sort(bits @ inc, axis=1)
        for row in np.flatnonzero(condition(sorted_degs, r)):
            hits.append(sum(1 << int(k) for k in np.flatnonzero(bits[row])))
    return hits


# ---------------------------------------------------------------------------
# checks: each returns the problems found in one task's output; ``report`` is
# the parsed canonical JSON (for the Hamilton sweep, its returned triple),
# ``extras`` the report's programmatic fields, ``worker`` the worker's output


def _echo_problems(report: dict, task: dict, predicate: str) -> list[str]:
    """The report's task echo must repeat the generated arguments."""
    echo = report["task"]
    want = {"predicate": predicate}
    kw = task["kwargs"]
    if "seed" in kw:
        want.update(seed=kw["seed"], samples=kw["samples"], mode="sampled",
                    generator="splitmix64")
    return [f"echo {k}={echo.get(k)!r}, expected {v!r}"
            for k, v in want.items() if echo.get(k) != v]


def _status_problems(report: dict, want_examined: int) -> list[str]:
    problems = []
    if report["status"] != "pass":
        problems.append(f"status {report['status']}")
    if report["examined"] != want_examined:
        problems.append(f"examined {report['examined']}, expected {want_examined}")
    return problems


def _masks_of(witnesses) -> list[int]:
    return sorted(decode_graph6(g)[1] for g in witnesses)


def _extremal_row(per_d, d, want, label, n, blocks) -> list[str]:
    """Row d of a per-d table holds the brute-force extremum, and its
    witness has that many edges and passes ``blocks(degrees, mask)``."""
    row = (per_d or {}).get(str(d))
    if row is None or not row["found"]:
        return [f"{label} per_d[{d}] missing"]
    if row["edges"] != want:
        return [f"{label} per_d[{d}] edges {row['edges']}, brute force {want}"]
    wn, wmask = decode_graph6(row["graph6"])
    degs = degrees(wn, wmask)
    if wn != n or sum(degs) // 2 != want or wmask != row["mask"] or not blocks(degs, wmask):
        return [f"{label} per_d[{d}] witness {row['graph6']} fails the oracle"]
    return []


class ExhaustiveN6:
    """References for exhaustive-n6, from every labelled graph on n <= 6."""

    N, R = 6, 3

    def __init__(self):
        self.pops = {n: Population(n) for n in range(2, self.N + 1)}
        p = self.pops[self.N]
        self.matchable = p.packable(2)
        self.packable = p.packable(self.R)
        self.hampath = {}
        for n, pop in self.pops.items():
            cond = hampath_condition(pop.sorted_degs)
            bad = cond & ~pop.has_hamilton_path()
            self.hampath[n] = (int(cond.sum()), pop.masks[bad].tolist())
        self.conditions = {}
        for name, condition in (("conj1", banded_condition), ("ques1", disjunctive_condition)):
            cond = condition(p.sorted_degs, self.R)
            self.conditions[name] = (int(cond.sum()), p.masks[cond & ~self.packable].tolist())

    def check(self, task, report, extras, worker) -> list[str]:
        kind = task["id"].split("(")[0]
        if kind == "hampath":
            return self._hampath(task["args"][0], report)
        n, p = self.N, self.pops[self.N]
        problems = _status_problems(report, 1 << comb(n, 2))
        problems += _echo_problems(report, task, kind)
        if kind in self.conditions:
            want_true, want_bad = self.conditions[kind]
            if extras["condition_count"] != want_true:
                problems.append(
                    f"condition_count {extras['condition_count']}, recount {want_true}")
            if _masks_of(report["violations"]) != want_bad:
                problems.append(f"violations differ from brute force {want_bad}")
            return problems
        if report["violations"]:
            problems.append(f"violations {report['violations']}")
        if kind == "matching":
            for d in range(1, n // 2):
                want = max_edges(p, (p.mindeg >= d) & ~self.matchable)
                problems += _extremal_row(
                    extras["per_d"], d, want, kind, n,
                    lambda degs, m: min(degs) >= d and not packs(n, m, 2))
            return problems
        # mainthm1(6, 3) and the t1 colouring scan it cross-checks against
        half = comb(n, 2)
        dual = worker["t1_dual"]["per_d"]
        for big_d in range(self.R - 1, n - n // self.R):
            dual_d = n - 1 - big_d
            want = max_edges(p, (p.mindeg >= big_d) & ~self.packable)
            problems += _extremal_row(
                extras["per_d"], big_d, want, kind, n,
                lambda degs, m: min(degs) >= big_d and not packs(n, m, self.R))
            problems += _extremal_row(
                dual, dual_d, None if want is None else half - want, "t1", n,
                lambda degs, m: max(degs) <= dual_d
                and not equitably_colourable(n, m, n // self.R))
            g = (extras["per_d"].get(str(big_d)) or {}).get("edges")
            f = (dual.get(str(dual_d)) or {}).get("edges")
            if g is None or f is None or g + f != half:
                problems.append(f"g({big_d}) + f({dual_d}) = {g} + {f}, not C({n},2)")
        return problems

    def _hampath(self, n, report) -> list[str]:
        examined, cond_true, witnesses = report
        want_true, want_bad = self.hampath[n]
        problems = []
        if examined != 1 << comb(n, 2):
            problems.append(f"examined {examined}")
        if cond_true != want_true:
            problems.append(f"condition-true {cond_true}, recount {want_true}")
        if witnesses or want_bad:
            problems.append(f"violations {witnesses}, brute force {want_bad}")
        return problems


class SampledConditions:
    """References for sampled-conditions-n12: each task's condition-true
    graphs, re-drawn here from the seed, recounted and packed by the oracle."""

    def __init__(self, tasks):
        self.hits = {}
        for task in tasks:
            n, r = task["args"]
            condition = banded_condition if task["fn"] == "conjecture1_search" else disjunctive_condition
            masks = sampled_condition_graphs(n, r, task["kwargs"]["seed"],
                                             task["kwargs"]["samples"], condition)
            self.hits[task["id"]] = (len(masks), sorted(m for m in masks if not packs(n, m, r)))

    def check(self, task, report, extras, worker) -> list[str]:
        problems = _status_problems(report, task["kwargs"]["samples"])
        problems += _echo_problems(report, task, task["id"].split("(")[0])
        count, bad = self.hits[task["id"]]
        if extras["condition_count"] != count:
            problems.append(f"condition_count {extras['condition_count']}, recount {count}")
        if bad:
            problems.append(f"{len(bad)} condition-true graphs do not pack")
        if _masks_of(report["violations"]) != bad:
            problems.append("violations differ from the oracle")
        return problems


class SampledThresholds:
    """sampled-thresholds-n12: each threshold is a theorem, so the sampler
    must deliver every sample and no sample may violate it."""

    def check(self, task, report, extras, worker) -> list[str]:
        problems = _status_problems(report, task["kwargs"]["samples"])
        problems += _echo_problems(report, task, task["id"].split("(")[0])
        if report["violations"]:
            problems.append(f"violations {report['violations']}")
        return problems


BLOCKS = {
    "H": "matching", "G1": "colouring", "G2": "colouring", "af_i": "packing",
    "af_ii": "packing", "t_star": "packing", "extremal1": "packing",
    "extremal2": "packing",
}


def blocks(token: str, params: dict, n: int, mask: int) -> bool:
    """The property that makes the instance extremal holds under the oracle."""
    kind = BLOCKS[token]
    if kind == "matching":
        return not packs(n, mask, 2)
    if kind == "colouring":
        return not equitably_colourable(n, mask, n // params["r"])
    return not packs(n, mask, params["r"])


class Audit:
    """audit-n120: the instance count of the benchmark's own grid, and the
    edge count and blocking property of a seeded sample of small instances."""

    def __init__(self, grid_size: int, sample: list):
        self.grid_size = grid_size
        self.sample = sample

    def check(self, task, report, extras, worker) -> list[str]:
        problems = _status_problems(report, self.grid_size)
        if report["violations"] or extras["problems"]:
            problems.append(f"witnesses {report['violations']}: {extras['problems']}")
        built = worker.get("audit_sample") or []
        if len(built) != len(self.sample):
            problems.append("audit sample was not built")
        for (token, params), got in zip(self.sample, built):
            n, mask = decode_graph6(got["graph6"])
            edges = bin(mask).count("1")
            want = got["expected_edges"]
            if want is None:
                want = got["band_degree_sum"] // 2
            if n != params["n"] or edges != want:
                problems.append(f"{token}{params}: {edges} edges, expected {want}")
            if not blocks(token, params, n, mask):
                problems.append(f"{token}{params} does not block its {BLOCKS[token]}")
        return problems
