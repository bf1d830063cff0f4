"""Runs one workload's tasks in a process of its own and prints what came out.

Started by ``run.py``, which sends a JSON spec on stdin::

    {"src": "<checkout>/src", "tasks": [...], "seconds": 20, "trace": 0,
     "t1_dual": {...} or null, "audit_sample": [...]}

and reads one JSON object from stdout: the wall time of every task in every
pass, each pass's report texts, the first pass's programmatic extras, the
peak RSS of this process after the timed passes, and with ``trace`` 1 the
per-layer rows of the traced passes.

Untraced mode repeats the task list until ``seconds`` would be exceeded by
one more pass, and makes at least two passes.  Traced mode repeats
(untraced pass, traced pass) pairs the same way, at least one pair.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _result_text(result) -> str:
    if hasattr(result, "to_json"):
        return result.to_json()
    return json.dumps(result, sort_keys=True, separators=(",", ":"), default=list)


def _extras(result) -> dict:
    if isinstance(result, tuple):  # sweep_hampath_condition
        examined, cond_true, violations = result
        return {"examined": examined, "condition_count": cond_true,
                "violations": list(violations)}
    per_d = result.per_d
    return {
        "examined": result.examined,
        "condition_count": result.condition_count,
        "problems": list(result.problems),
        "per_d": None if per_d is None else {str(k): v for k, v in per_d.items()},
    }


def run_pass(packlab, tasks, tracer=None):
    """One pass over the task list; returns (wall seconds of each task, outputs)."""
    calls = []
    for task in tasks:
        fn = getattr(packlab, task["fn"])
        if tracer is not None:
            fn = tracer.wrap("verify.task", fn)
        calls.append((fn, task["args"], task["kwargs"]))
    walls, outputs = [], []
    for fn, args, kwargs in calls:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            outputs.append({"text": _result_text(result), "result": result})
        except Exception:  # a task that raises is counted as failed
            outputs.append({"error": traceback.format_exc(limit=3)})
        walls.append(time.perf_counter() - t0)
    return walls, outputs


def _peak_rss_kb() -> int:
    """Peak resident memory of this process's own program, in KiB.

    On Linux ``ru_maxrss`` also counts the memory the parent had when it
    started this process, so the high-water mark of the process's own
    address space (``VmHWM``) is read where it exists."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _texts(outputs):
    return [o.get("text") for o in outputs]


def main() -> int:
    spec = json.load(sys.stdin)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import packlab

    if Path(packlab.__file__).resolve().parent.parent != src:
        print(f"packlab imported from {packlab.__file__}, not {src}", file=sys.stderr)
        return 2
    from packlab import _kernels

    tasks, seconds, traced = spec["tasks"], spec["seconds"], bool(spec["trace"])
    walls, traced_walls, texts, traced_texts = [], [], [], []
    first = None
    t_start = time.perf_counter()
    if not traced:
        while len(walls) < 2 or (
            time.perf_counter() - t_start + statistics.median([sum(w) for w in walls]) <= seconds
        ):
            wall, outputs = run_pass(packlab, tasks)
            walls.append(wall)
            texts.append(_texts(outputs))
            first = first or outputs
    else:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        pair = 0.0
        while not traced_walls or time.perf_counter() - t_start + pair <= seconds:
            t_pair = time.perf_counter()
            wall, outputs = run_pass(packlab, tasks)
            walls.append(wall)
            texts.append(_texts(outputs))
            first = first or outputs
            with tracer:
                wall, outputs = run_pass(packlab, tasks, tracer)
            traced_walls.append(wall)
            traced_texts.append(_texts(outputs))
            pair = time.perf_counter() - t_pair
        rows = tracer.rows()
        layers = layer_metrics(rows, len(traced_walls))
        table = [[layer, parent, *row] for (layer, parent), row in rows.items()]
    peak_rss_kb = _peak_rss_kb()

    out = {
        "environment": {
            "backend": "numba" if _kernels.NUMBA_ENABLED else "pure",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "walls": walls,
        "texts": texts,
        "errors": [o.get("error") for o in first],
        "extras": [_extras(o["result"]) if "result" in o else None for o in first],
        "peak_rss_kb": peak_rss_kb,
    }
    if traced:
        out["traced_walls"] = traced_walls
        out["traced_texts"] = traced_texts
        out["layers"] = layers
        out["trace_table"] = table
        out["absent"] = tracer.absent
    if spec.get("t1_dual"):
        # the colouring-side extrema that mainthm1 cross-checks internally
        dual = packlab.verify_t1_threshold(*spec["t1_dual"]["args"], **spec["t1_dual"]["kwargs"])
        out["t1_dual"] = _extras(dual)
    if spec.get("audit_sample"):
        from packlab.constructions import FAMILIES, expected_degree_bands, expected_edges

        sample = []
        for token, params in spec["audit_sample"]:
            bands = expected_degree_bands(token, **params)
            sample.append({
                "graph6": packlab.encode_graph6(FAMILIES[token].build(**params)),
                "expected_edges": expected_edges(token, **params),
                "band_degree_sum": None if bands is None else sum(c * d for c, d in bands),
            })
        out["audit_sample"] = sample
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
