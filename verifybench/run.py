"""End-to-end and per-layer benchmark of packlab's verification tasks.

Run from the root of a packlab checkout::

    python3 verifybench/run.py                      # every workload, seed 1
    python3 verifybench/run.py --workload exhaustive-n6 --seed 3 --seconds 35
    python3 verifybench/run.py --workload audit-n120 --trace 1

Each workload runs in a fresh worker process (``worker.py``) on the pure
numpy/Python kernel path (``PACKLAB_NO_NUMBA=1``), importing packlab from
``src/``.  After the worker ends, this process computes its references
(``reference.py``, which does not import packlab) and checks every task's
output.  It prints the environment, one line per task, every metric with its
unit, and as its last line one JSON object::

    {"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``examined_per_s``, ``peak_rss_mb``), ``--trace 1`` the per-layer ones from
traced passes (``tracer.py``).  A copy of the result goes to
``verifybench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 4  # before the worker, and as many again after it
SETUP_CODE = "import numpy, packlab; packlab.verify_matching_threshold(4)"
WORKER_TIMEOUT_S = 150
AUDIT_SAMPLE = 24
AUDIT_SAMPLE_MAX_N = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PACKLAB_NO_NUMBA"] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same str hashes, so dict layout, in every run
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env) -> list[float]:
    """Seconds for a fresh interpreter to import numpy and packlab and run
    one minimal verification, ``SETUP_RUNS`` times in a row."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(spec: dict, env) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec), env=env,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def build_reference(name: str, tasks: list, audit_sample: list):
    if name == "exhaustive-n6":
        return reference.ExhaustiveN6()
    if name == "sampled-conditions-n12":
        return reference.SampledConditions(tasks)
    if name == "sampled-thresholds-n12":
        return reference.SampledThresholds()
    grid_size = sum(1 for _ in workloads.audit_grid(workloads.AUDIT_MAX_N))
    return reference.Audit(grid_size, audit_sample)


def check_tasks(tasks, worker, ref):
    """Per task: (problems, failed attempts, whether an output was wrong),
    and the number of passes."""
    passes = worker["texts"] + worker.get("traced_texts", [])
    out = []
    for t, task in enumerate(tasks):
        first = passes[0][t]
        error = worker["errors"][t]
        if error:
            problems = ["raised " + error.strip().splitlines()[-1]]
        else:
            problems = ref.check(task, json.loads(first), worker["extras"][t], worker)
        unstable = any(p[t] != first for p in passes)
        if unstable:
            problems.append("output differs between passes")
        problems = [p if len(p) <= 200 else p[:200] + "..." for p in problems]
        failed = sum(1 for p in passes if error or problems or p[t] != first)
        out.append((problems, failed, unstable or (bool(problems) and not error)))
    return out, len(passes)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "packlab").glob("*.py")))


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def mean_pass(walls: list[list[float]]) -> float:
    """Seconds per pass over the whole run: the tasks' summed wall time
    divided by the number of passes.

    The machine alternates between a fast and a slow state; a run's passes
    fall in both, in shares that change from run to run.  The mean moves in
    proportion to those shares, where a median or minimum over a few passes
    jumps from one state to the other."""
    return sum(map(sum, walls)) / len(walls)


def run_workload(name: str, seed: int, seconds: int, trace: int, env) -> dict:
    tasks = workloads.WORKLOADS[name](seed)
    spec = {"src": str(SRC), "tasks": tasks, "seconds": seconds, "trace": trace}
    audit_sample = []
    if name == "exhaustive-n6":
        spec["t1_dual"] = {"args": [6, 3], "kwargs": {"workers": workloads.WORKERS}}
    if name == "audit-n120":
        small = list(workloads.audit_grid(AUDIT_SAMPLE_MAX_N))
        rng = random.Random(workloads.derive_seed(seed, "audit-sample"))
        audit_sample = rng.sample(small, AUDIT_SAMPLE)
        spec["audit_sample"] = audit_sample
    setup_times = [] if trace else measure_setup(env)
    worker = run_worker(spec, env)
    if not trace:
        setup_times += measure_setup(env)
    ref = build_reference(name, tasks, audit_sample)
    checks, npasses = check_tasks(tasks, worker, ref)

    walls = worker["walls"]
    wall = mean_pass(walls)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(worker["layers"].items())}
        overhead = mean_pass(worker["traced_walls"]) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        examined = sum(e["examined"] for e in worker["extras"] if e)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "examined_per_s": {"value": examined / wall, "unit": "items/s"},
            "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    env_info = dict(worker["environment"], nproc=nproc(), src_lines=src_lines())
    result = {
        "correct": not any(wrong for _, _, wrong in checks),
        "attempted": len(tasks) * npasses,
        "failed": sum(f for _, f, _ in checks),
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_info, "setup_times": setup_times, "walls": walls,
        "traced_walls": worker.get("traced_walls"), "absent": worker.get("absent"),
        "tasks": [dict(task, problems=p) for task, (p, _, _) in zip(tasks, checks)],
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"columns": ["layer", "parent", "calls", "s", "child_s", "count0", "count1"],
             "rows": worker["trace_table"]}, indent=1) + "\n")

    print(f"workload {name}: seed={seed} seconds={seconds} trace={trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    if worker.get("absent"):
        print("absent entry points: " + ", ".join(worker["absent"]))
    for task, (problems, failed, _) in zip(tasks, checks):
        state = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"  task {task['id']}: {npasses - failed}/{npasses} passes ok  {state}")
    print(f"  passes: {len(walls)} untraced" + (
        f", {len(worker['traced_walls'])} traced" if trace else ""))
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "packlab" / "__init__.py").is_file():
        print(f"verifybench: no packlab sources under {SRC}; run it in a packlab checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, env) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
