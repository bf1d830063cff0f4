"""Split the construction audit's time into building and checking, per family.

Run:  python benchmarks/bench_audit.py

Over every instance of ``_audit_grid(120)`` (the instances that
``audit_constructions(120)`` checks), each pass times
``FAMILIES[token].build`` alone and then ``audit_instance``, which builds
the instance again and checks it; a family's check time is the second less
the first.  Prints, per family and in all, the instance count and the build
and check seconds of one pass: the medians of five passes after a warm-up.
"""

import time
from statistics import median

from packlab import FAMILIES
from packlab.verify import _audit_grid, audit_instance

PASSES = 5


def _one_pass(grid):
    """Build and audit seconds per family for one pass over the grid."""
    build, audit = {}, {}
    clock = time.perf_counter
    for token, params in grid:
        t0 = clock()
        FAMILIES[token].build(**params)
        t1 = clock()
        audit_instance(token, params)
        t2 = clock()
        build[token] = build.get(token, 0.0) + t1 - t0
        audit[token] = audit.get(token, 0.0) + t2 - t1
    return build, audit


def main():
    grid = list(_audit_grid(120))
    counts = {}
    for token, _ in grid:
        counts[token] = counts.get(token, 0) + 1
    _one_pass(grid)  # warm-up
    passes = [_one_pass(grid) for _ in range(PASSES)]
    print(f"{'family':<10} {'instances':>9} {'build_s':>8} {'check_s':>8}")
    for token in [*counts, "all"]:
        if token == "all":
            count = len(grid)
            builds = [sum(b.values()) for b, _ in passes]
            audits = [sum(a.values()) for _, a in passes]
        else:
            count = counts[token]
            builds = [b[token] for b, _ in passes]
            audits = [a[token] for _, a in passes]
        build_s = median(builds)
        check_s = median(a - b for a, b in zip(audits, builds))
        print(f"{token:<10} {count:>9} {build_s:>8.4f} {check_s:>8.4f}")


if __name__ == "__main__":
    main()
