"""Benchmark the block deciders against the per-row searches they replace.

Run:  python benchmarks/bench_kernels.py

Each row times one set of decisions three ways where they apply: the
plain-numpy block decider (``packable_rows``, ``hampath_rows`` or
``colour_rows``), the per-row search as plain Python (the path used when
numba is unavailable or PACKLAB_NO_NUMBA=1 is set), and the same search
compiled by numba.  Every way must return the same decisions (for
colourings, the same statuses and node counts); times are the best of three
runs after a warm-up.
"""

import time
from math import comb

import numpy as np

from packlab import _kernels as K


def _timed(fn, repeat=3):
    fn()  # warm-up: compilation, lazy tables
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _adjs(n, words):
    adjs = np.zeros((len(words), n), np.int64)
    K.words_to_adj(words, n, adjs)
    return adjs


def _random_adjs(n, rows, seed):
    words = np.random.default_rng(seed).integers(
        0, 1 << 62, size=(rows, (comb(n, 2) + 63) // 64)
    ).astype(np.int64)
    return _adjs(n, words)


def _all_adjs(n):
    return _adjs(n, np.arange(1 << comb(n, 2), dtype=np.int64)[:, None])


def _packing(adjs, n, r):
    """Packing search on every row, given the kernel (``batch_decide``)."""

    def search(kernel):
        out = np.zeros(len(adjs), np.int64)
        kernel(adjs, n, r, 10**9, *K.pack_work_arrays(n), out)
        return (out == 1).tolist()

    return search


def _hampath(adjs, n):
    """The Hamilton-path programme on every row, given the kernel
    (``_hampath_decide``)."""

    def search(kernel):
        dp = np.zeros(1 << n, np.int64)
        return [kernel(adj, n, dp)[0] == 1 for adj in adjs]

    return search


def _colouring(adjs, n, k):
    """The equitable-colouring search on every row, given the kernel
    (``_colour_decide``): statuses and node counts."""

    def search(kernel):
        work = [np.zeros(size, np.int64) for size in (n, n, k, k)]
        return [list(x) for x in zip(*(kernel(adj, n, k, 10**9, *work) for adj in adjs))]

    return search


def main():
    n12, n6, n7 = _random_adjs(12, 256, 1), _all_adjs(6), _random_adjs(7, 4096, 2)
    c12 = _random_adjs(12, 4096, 3)
    benches = [  # (label, block decider, per-row search, its kernel)
        ("packing, 256 random graphs n=12 r=2", lambda: K.packable_rows(n12, 12, 2).tolist(),
         _packing(n12, 12, 2), K.batch_decide),
        ("packing, 256 random graphs n=12 r=3", lambda: K.packable_rows(n12, 12, 3).tolist(),
         _packing(n12, 12, 3), K.batch_decide),
        ("packing, all 32768 graphs n=6 r=2", lambda: K.packable_rows(n6, 6, 2).tolist(),
         _packing(n6, 6, 2), K.batch_decide),
        ("packing, all 32768 graphs n=6 r=3", lambda: K.packable_rows(n6, 6, 3).tolist(),
         _packing(n6, 6, 3), K.batch_decide),
        ("Hamilton paths, 4096 random graphs n=7", lambda: K.hampath_rows(n7, 7).tolist(),
         _hampath(n7, 7), K._hampath_decide),
        ("colouring, all 32768 graphs n=6 k=2",
         lambda: [a.tolist() for a in K.colour_rows(n6, 6, 2, 10**9)],
         _colouring(n6, 6, 2), K._colour_decide),
        ("colouring, 4096 random graphs n=12 k=4",
         lambda: [a.tolist() for a in K.colour_rows(c12, 12, 4, 10**9)],
         _colouring(c12, 12, 4), K._colour_decide),
    ]
    rows = []
    for label, block, search, kernel in benches:
        ways = {"numpy": block, "pure": lambda: search(K.pure(kernel))}
        if K.NUMBA_ENABLED:
            ways["jit"] = lambda: search(kernel)
        times = {}
        results = []
        for way, fn in ways.items():
            res, times[way] = _timed(fn)
            results.append(res)
        assert all(res == results[0] for res in results), f"ways disagree on: {label}"
        rows.append((label, times))
    width = max(len(label) for label, _ in rows)
    print(f"{'benchmark':<{width}}  {'numpy':>9}  {'pure':>9}  {'jit':>9}")
    for label, times in rows:
        cells = [f"{times[w]:>8.4f}s" if w in times else f"{'-':>9}" for w in ("numpy", "pure", "jit")]
        print(f"{label:<{width}}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
