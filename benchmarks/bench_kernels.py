"""Benchmark the block deciders against the per-row searches they replace.

Run:  python benchmarks/bench_kernels.py

Each row times one set of decisions two ways: the plain-numpy block decider
(``packable_rows``, which also reads back a packing for every graph that
packs, or ``hampath_rows``) and the per-row search it runs across the rows
(``_pack_decide`` or ``_hampath_decide``, one call per graph).  Both ways
must return the same decisions; times are the best of three runs after a
warm-up.
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


def _random_adjs(n, rows, seed):
    # full 64-bit words, so every edge slot of a word can be set
    words = np.random.default_rng(seed).integers(
        0, 1 << 64, size=(rows, (comb(n, 2) + 63) // 64), dtype=np.uint64
    )
    return K.words_to_adj(words, n)


def _all_adjs(n):
    return K.words_to_adj(np.arange(1 << comb(n, 2)), n)


def _packing(adjs, n, r):
    """The packing search ``_pack_decide`` on every row."""
    return lambda: [K._pack_decide(adj, n, r, 10**9)[0] == 1 for adj in adjs.tolist()]


def _hampath(adjs, n):
    """The Hamilton-path programme ``_hampath_decide`` on every row."""
    return lambda: [K._hampath_decide(adj, n)[0] == 1 for adj in adjs.tolist()]


def main():
    n12, n6, n7 = _random_adjs(12, 256, 1), _all_adjs(6), _random_adjs(7, 4096, 2)
    benches = [  # (label, block decider, per-row search)
        ("packing, 256 random graphs n=12 r=2", lambda: K.packable_rows(n12, 12, 2)[0].tolist(),
         _packing(n12, 12, 2)),
        ("packing, 256 random graphs n=12 r=3", lambda: K.packable_rows(n12, 12, 3)[0].tolist(),
         _packing(n12, 12, 3)),
        ("packing, all 32768 graphs n=6 r=2", lambda: K.packable_rows(n6, 6, 2)[0].tolist(),
         _packing(n6, 6, 2)),
        ("packing, all 32768 graphs n=6 r=3", lambda: K.packable_rows(n6, 6, 3)[0].tolist(),
         _packing(n6, 6, 3)),
        ("Hamilton paths, 4096 random graphs n=7", lambda: K.hampath_rows(n7, 7).tolist(),
         _hampath(n7, 7)),
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
