"""Benchmark the compiled kernels against their pure-Python fallbacks.

Run:  python benchmarks/bench_kernels.py

Each benchmark first cross-checks that both paths return identical results,
then reports wall times and the speedup.  The fallback path is what the
package uses when numba is unavailable or PACKLAB_NO_NUMBA=1 is set.
"""

import time
from math import comb

import numpy as np

from packlab import _kernels as K


def _timed(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def _bench_batch(label, n, r, rows, seed):
    # ``batch_decide`` on ``rows`` random graphs with n vertices
    words = np.random.default_rng(seed).integers(
        0, 1 << 62, size=(rows, (comb(n, 2) + 63) // 64)
    ).astype(np.int64)
    adjs = np.zeros((rows, n), np.int64)
    K.words_to_adj(words, n, adjs)

    def run(fn):
        out = np.zeros(rows, np.int64)
        dp = np.zeros(1 << n, np.int64)
        fn(adjs, n, r, 10**9, *K.pack_work_arrays(n), dp, out)
        return tuple(out)

    return label, K.batch_decide, run


def bench_batch_packing():
    return _bench_batch("batch packing decisions, 256 random graphs n=12 r=3", 12, 3, 256, 1)


def bench_batch_hampath():
    return _bench_batch("batch Hamilton-path decisions, 4096 random graphs n=7", 7, 0, 4096, 2)


def main():
    if not K.NUMBA_ENABLED:
        print("numba is disabled; nothing to compare against")
        return
    benches = [bench_batch_packing(), bench_batch_hampath()]
    rows = []
    for label, jit_fn, run in benches:
        run(lambda *a: jit_fn(*a))  # warm up the compiled path
        res_jit, t_jit = _timed(lambda: run(jit_fn))
        res_pure, t_pure = _timed(lambda: run(K.pure(jit_fn)), repeat=1)
        assert res_jit == res_pure, f"paths disagree on: {label}"
        rows.append((label, t_jit, t_pure, t_pure / t_jit))
    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark':<{width}}  {'jit':>9}  {'pure':>9}  {'speedup':>8}")
    for label, t_jit, t_pure, ratio in rows:
        print(f"{label:<{width}}  {t_jit:>8.4f}s  {t_pure:>8.4f}s  {ratio:>7.1f}x")


if __name__ == "__main__":
    main()
