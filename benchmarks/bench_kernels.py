"""Benchmark the block deciders against the per-row searches they replace.

Run:  python benchmarks/bench_kernels.py

Each row times one set of decisions two ways: the plain-numpy block decider
(``packable_rows``, ``hampath_rows`` or ``colour_rows``) and the per-row
search it runs across the rows (``_pack_decide``, ``_hampath_decide`` or
``_colour_decide``, one call per graph).  Both ways must return the same
decisions (for colourings, the same statuses and node counts); times are the
best of three runs after a warm-up.
"""

import time
from math import comb

import numpy as np

from packlab import _kernels as K


def _timed(fn, repeat=3):
    fn()  # warm-up: lazy tables
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
    """The packing search ``_pack_decide`` on every row."""
    work = K.pack_work_arrays(n)
    return lambda: [K._pack_decide(adj, n, r, 10**9, *work)[0] == 1 for adj in adjs]


def _hampath(adjs, n):
    """The Hamilton-path programme ``_hampath_decide`` on every row."""
    dp = np.zeros(1 << n, np.int64)
    return lambda: [K._hampath_decide(adj, n, dp)[0] == 1 for adj in adjs]


def _colouring(adjs, n, k):
    """The equitable-colouring search ``_colour_decide`` on every row:
    statuses and node counts."""
    work = [np.zeros(size, np.int64) for size in (n, n, k, k)]
    return lambda: [
        list(x) for x in zip(*(K._colour_decide(adj, n, k, 10**9, *work) for adj in adjs))
    ]


def main():
    n12, n6, n7 = _random_adjs(12, 256, 1), _all_adjs(6), _random_adjs(7, 4096, 2)
    c12 = _random_adjs(12, 4096, 3)
    benches = [  # (label, block decider, per-row search)
        ("packing, 256 random graphs n=12 r=2", lambda: K.packable_rows(n12, 12, 2).tolist(),
         _packing(n12, 12, 2)),
        ("packing, 256 random graphs n=12 r=3", lambda: K.packable_rows(n12, 12, 3).tolist(),
         _packing(n12, 12, 3)),
        ("packing, all 32768 graphs n=6 r=2", lambda: K.packable_rows(n6, 6, 2).tolist(),
         _packing(n6, 6, 2)),
        ("packing, all 32768 graphs n=6 r=3", lambda: K.packable_rows(n6, 6, 3).tolist(),
         _packing(n6, 6, 3)),
        ("Hamilton paths, 4096 random graphs n=7", lambda: K.hampath_rows(n7, 7).tolist(),
         _hampath(n7, 7)),
        ("colouring, all 32768 graphs n=6 k=2",
         lambda: [a.tolist() for a in K.colour_rows(n6, 6, 2, 10**9)], _colouring(n6, 6, 2)),
        ("colouring, 4096 random graphs n=12 k=4",
         lambda: [a.tolist() for a in K.colour_rows(c12, 12, 4, 10**9)], _colouring(c12, 12, 4)),
    ]
    rows = []
    for label, block, search in benches:
        (block_out, block_s), (search_out, search_s) = _timed(block), _timed(search)
        assert block_out == search_out, f"the two ways disagree on: {label}"
        rows.append((label, block_s, search_s))
    width = max(len(label) for label, *_ in rows)
    print(f"{'benchmark':<{width}}  {'numpy':>9}  {'per row':>9}")
    for label, block_s, search_s in rows:
        print(f"{label:<{width}}  {block_s:>8.4f}s  {search_s:>8.4f}s")


if __name__ == "__main__":
    main()
