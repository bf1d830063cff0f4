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
from packlab.verify import _degree_clauses


def _timed(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def bench_scan_matching():
    # the matching check: packing scan with r = 2, floors d = 1..n/2-1
    n, r, d_lo = 6, 2, 1
    d_max = n // 2 - 1
    f2v = np.array([0, 9, 9], np.int64)
    total = 1 << comb(n, 2)

    def run(fn):
        adj = np.zeros(n, np.int64)
        cand, chosen, comm = K.pack_work_arrays(n)
        found = np.zeros(d_max + 1, np.int64)
        max_e = np.zeros(d_max + 1, np.int64)
        arg = np.zeros(d_max + 1, np.int64)
        viol = np.zeros(4096, np.int64)
        res = fn(n, r, d_lo, d_max, f2v, 0, 0, total, 10**9, adj, cand, chosen,
                 comm, found, max_e, arg, viol)
        return res, tuple(max_e)

    return "packing scan at r=2 (matching), all 2^15 graphs n=6", K.scan_pack_threshold, run


def bench_chvatal():
    # the degree-condition scan with the Hamilton-path table (r = 0)
    n = 7
    lo, hi = 0, 1 << 17
    clauses = _degree_clauses("hampath", n)

    def run(fn):
        adj = np.zeros(n, np.int64)
        cand, chosen, comm = K.pack_work_arrays(n)
        degs = np.zeros(n, np.int64)
        dp = np.zeros(1 << n, np.int64)
        viol = np.zeros(4096, np.int64)
        return fn(n, 0, clauses, lo, hi, 1, adj, cand, chosen, comm, degs, dp, viol)

    return "Hamilton-path condition scan, 2^17 graphs n=7", K.scan_degree_condition, run


def bench_batch_packing():
    n, r = 12, 3
    rng = np.random.default_rng(1)
    e = comb(n, 2)
    nwords = (e + 63) // 64
    words = rng.integers(0, 1 << 62, size=(256, nwords)).astype(np.int64)
    adjs = np.zeros((256, n), np.int64)
    K.words_to_adj(words, n, adjs)

    def run(fn):
        cand, chosen, comm = K.pack_work_arrays(n)
        out = np.zeros(256, np.int64)
        fn(adjs, n, r, 10**9, cand, chosen, comm, out)
        return tuple(out)

    return "batch packing decisions, 256 random graphs n=12 r=3", K.batch_packable, run


def main():
    if not K.NUMBA_ENABLED:
        print("numba is disabled; nothing to compare against")
        return
    benches = [bench_scan_matching(), bench_chvatal(), bench_batch_packing()]
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
