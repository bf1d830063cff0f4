"""Per-layer trace of packlab, taken from outside the package.

``Tracer.install()`` replaces the entry points listed in ``ENTRY_POINTS``
with timing wrappers for the length of a ``with`` block, and puts the
originals back on exit.  Nothing in packlab changes.  On the pure-Python
kernel path the scan kernels look ``_adj_from_mask``, ``_pack_decide`` and
``_hampath_decide`` up as module globals, so calls made inside a scan are
seen too.

Each wrapper records, per (layer, parent layer): calls, seconds, seconds
spent in wrapped children, and the counts the call returned.  Seconds are
the calling thread's CPU time: ``--workers`` runs scan chunks on threads
that take turns holding the interpreter lock, so wall-clock spans of two
threads would overlap and count the same second twice.  An entry point that
no longer exists is listed in ``absent`` and skipped.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import threading
import time

_MISSING = object()


def _second(out):
    return (int(out[1]), 0)


def _first(out):
    return (int(out[0]), 0)


def _sampler(out):
    rows, proposals, _starved = out
    return (int(proposals), len(rows))


# (layer, "module:attribute", counts taken from the return value, scope).
# Scope "module" patches that one module attribute; "package" also rebinds
# every packlab module attribute that refers to the same function, which
# catches ``from .graph import degree_sequence`` style imports.
ENTRY_POINTS = [
    ("kernels.expand", "packlab._kernels:_adj_from_mask", None, "module"),
    ("kernels.expand", "packlab._kernels:words_to_adj", None, "module"),
    ("kernels.expand", "packlab._kernels:slots_to_adj", None, "module"),
    ("kernels.scan", "packlab._kernels:scan_matching", _first, "module"),
    ("kernels.scan", "packlab._kernels:scan_colour_threshold", _first, "module"),
    ("kernels.scan", "packlab._kernels:scan_pack_threshold", _first, "module"),
    ("kernels.scan", "packlab._kernels:scan_chvatal", _first, "module"),
    ("kernels.scan", "packlab._kernels:scan_degree_condition", _first, "module"),
    ("kernels.pack", "packlab._kernels:_pack_decide", _second, "module"),
    ("kernels.hampath", "packlab._kernels:_hampath_decide", _second, "module"),
    ("kernels.colour", "packlab._kernels:_colour_decide", _second, "module"),
    ("verify.rng", "packlab.verify:SplitMix64.next_word", None, "module"),
    ("verify.sampler", "packlab.verify:_sample_filtered_window", _sampler, "module"),
    ("verify.merge", "packlab.verify:_merge_extrema", None, "module"),
    ("verify.witness", "packlab.verify:_witness", None, "module"),
    ("verify.report", "packlab.verify:VerificationReport.to_json", None, "module"),
    ("solvers.pack", "packlab.verify:perfect_kr_packing", None, "module"),
    ("solvers.colour", "packlab.verify:equitable_colouring", None, "module"),
    ("graph.from_edge_mask", "packlab.graph:Graph.from_edge_mask", None, "module"),
    ("graph.degree_sequence", "packlab.graph:degree_sequence", None, "package"),
    ("graph.complement", "packlab.graph:Graph.complement", None, "module"),
    ("formats.encode", "packlab.formats:encode_graph6", None, "package"),
    ("formats.decode", "packlab.formats:decode_graph6", None, "package"),
]
FAMILIES_ENTRY = ("constructions.build", "packlab.constructions:FAMILIES")
ROOT_LAYER = "verify.task"
DECISION_LAYERS = ("kernels.pack", "kernels.hampath")


class Tracer:
    """Wrapper table plus the per-thread tables the wrappers fill in."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._undo: list = []
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, layer: str, fn, count=None):
        """``fn`` with its calls recorded under ``layer``."""
        state_of = self._state
        clock = time.thread_time

        def traced(*args, **kwargs):
            stack, table = state_of()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (layer, parent[0] if parent is not None else None)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0, 0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += frame[1]
            if count is not None:
                a, b = count(out)
                row[3] += a
                row[4] += b
            return out

        return traced

    def rows(self) -> dict:
        """{(layer, parent): [calls, seconds, child seconds, count0, count1]}
        summed over threads."""
        out: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in table.items():
                acc = out.setdefault(key, [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return out

    # -- patching ------------------------------------------------------

    def _set(self, owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append((owner, name, old))

    def _patch(self, layer, target, count, scope):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = (
            owner.__dict__.get(name, _MISSING)
            if isinstance(owner, type)
            else getattr(owner, name, _MISSING)
        )
        if owner is None or raw is _MISSING:
            self.absent.append(target)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(owner, name, type(raw)(self.wrap(layer, raw.__func__, count)))
            return
        wrapped = self.wrap(layer, raw, count)
        self._set(owner, name, wrapped)
        if scope == "package":
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("packlab"):
                    continue
                if mod.__dict__.get(name) is raw:
                    self._set(mod, name, wrapped)

    def _patch_families(self):
        layer, target = FAMILIES_ENTRY
        module_name, _, name = target.partition(":")
        try:
            families = getattr(importlib.import_module(module_name), name, None)
        except ImportError:
            families = None
        if families is None:
            self.absent.append(target)
            return
        for token, family in list(families.items()):
            traced = dataclasses.replace(family, build=self.wrap(layer, family.build))
            families[token] = traced
            self._undo.append((families, token, family))

    def install(self):
        self.absent = []
        for layer, target, count, scope in ENTRY_POINTS:
            self._patch(layer, target, count, scope)
        self._patch_families()
        return self

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(rows: dict, passes: int) -> dict:
    """The per-layer metrics, per pass, from ``Tracer.rows()`` of ``passes``
    traced passes."""
    agg: dict = {}
    passed = 0
    for (layer, parent), row in rows.items():
        acc = agg.setdefault(layer, [0, 0.0, 0.0, 0, 0])
        for i, v in enumerate(row):
            acc[i] += v
        if layer in DECISION_LAYERS and parent == "kernels.scan":
            passed += row[0]

    def get(layer):
        return agg.get(layer, [0, 0.0, 0.0, 0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    expand, scan, pack = get("kernels.expand"), get("kernels.scan"), get("kernels.pack")
    hampath, colour = get("kernels.hampath"), get("kernels.colour")
    rng, sampler = get("verify.rng"), get("verify.sampler")
    witness, task = get("verify.witness"), get(ROOT_LAYER)
    spack, scolour = get("solvers.pack"), get("solvers.colour")
    build, fem = get("constructions.build"), get("graph.from_edge_mask")
    enc, dec = get("formats.encode"), get("formats.decode")
    per_pass = {
        "kernels.expand.calls": (expand[0], "count"),
        "kernels.expand.s": (expand[1], "s"),
        "kernels.scan.masks": (scan[3], "count"),
        "kernels.scan.self_s": (scan[1] - scan[2], "s"),
        "kernels.filter.passed": (passed, "count"),
        "kernels.pack.calls": (pack[0], "count"),
        "kernels.pack.s": (pack[1], "s"),
        "kernels.pack.nodes": (pack[3], "count"),
        "kernels.hampath.calls": (hampath[0], "count"),
        "kernels.hampath.s": (hampath[1], "s"),
        "kernels.hampath.states": (hampath[3], "count"),
        "kernels.colour.calls": (colour[0], "count"),
        "kernels.colour.s": (colour[1], "s"),
        "kernels.colour.nodes": (colour[3], "count"),
        "verify.rng.words": (rng[0], "count"),
        "verify.rng.s": (rng[1], "s"),
        "verify.sampler.proposals": (sampler[3], "count"),
        "verify.sampler.accepted": (sampler[4], "count"),
        "verify.sampler.s": (sampler[1], "s"),
        "verify.merge.s": (get("verify.merge")[1], "s"),
        "verify.witness.count": (witness[0], "count"),
        "verify.witness.s": (witness[1], "s"),
        "verify.report.s": (get("verify.report")[1], "s"),
        "verify.self_s": (task[1] - task[2], "s"),
        "solvers.pack.calls": (spack[0], "count"),
        "solvers.pack.s": (spack[1], "s"),
        "solvers.colour.calls": (scolour[0], "count"),
        "solvers.colour.s": (scolour[1], "s"),
        "constructions.build.calls": (build[0], "count"),
        "constructions.build.s": (build[1], "s"),
        "graph.from_edge_mask.calls": (fem[0], "count"),
        "graph.from_edge_mask.s": (fem[1], "s"),
        "graph.degree_sequence.s": (get("graph.degree_sequence")[1], "s"),
        "graph.complement.s": (get("graph.complement")[1], "s"),
        "formats.encode.calls": (enc[0], "count"),
        "formats.encode.s": (enc[1], "s"),
        "formats.decode.calls": (dec[0], "count"),
        "formats.decode.s": (dec[1], "s"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in per_pass.items()}
    out["kernels.filter.pass_ratio"] = (ratio(passed, scan[3]), "ratio")
    out["verify.sampler.accept_ratio"] = (ratio(sampler[4], sampler[3]), "ratio")
    return out
