"""Span tracing of the epds layers from outside the package.

``Tracer.install`` wraps the public functions of each layer.  A wrapper
records one span per call: a name, its start and end on ``perf_counter``
and the index of the enclosing span.  A function is rebound in every
``epds`` module that holds it, so calls through ``epds.sim.closed_loop_rhs``
and ``epds.pbc.closed_loop_rhs`` are both seen.  Sector predicates and
``Trace.to_csv`` are wrapped on their classes.  Spans stay in flat arrays in
memory and are written to one file when the pass ends; ``load`` and
``span_stats`` turn such a file into per-layer counts and times.

A span's self time is its duration minus the durations of its direct
children.  Calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
import time
from array import array

# Span name -> (module, attribute) pairs that define the functions it covers.
FUNCTIONS = {
    "pbc.closed_loop_rhs": [("epds.pbc", "closed_loop_rhs")],
    "geometry.sector_tangent_cone": [("epds.geometry", "sector_tangent_cone")],
    "geometry.tangent_cone": [("epds.geometry", "tangent_cone")],
    "geometry.check_cq": [("epds.geometry", "check_cq")],
    "projection.sector_project": [("epds.projection", "sector_project")],
    "projection.project_partial": [("epds.projection", "project_partial")],
    "projection.feasible": [("epds.projection", "feasible")],
    "oracle.oracle_project": [("epds.oracle", "oracle_project")],
    "krasovskii.verify_equality": [("epds.krasovskii", "verify_equality")],
    "krasovskii.krasovskii_vertices": [("epds.krasovskii", "krasovskii_vertices")],
    "krasovskii.sector_krasovskii_vertices": [
        ("epds.krasovskii", "sector_krasovskii_vertices")
    ],
    "sim.integrate": [("epds.sim", "integrate")],
    "sim.drift_correct": [("epds.sim", "drift_correct")],
    "scenario.build": [
        ("epds.scenario", "scenario_from_json"),
        ("epds.scenario", "build_runtime"),
    ],
    "cli.run": [("epds.cli", "cmd_run")],
    "verify.well_posed_instance": [("epds.verify", "well_posed_instance")],
}
# Span name -> (module, class, method names) wrapped on the class.
METHODS = {
    "geometry.sector_predicate": (
        "epds.geometry",
        "Sector",
        ("contains", "in_k", "in_minus_k", "is_corner", "active_lines", "branch_label"),
    ),
    "sim.to_csv": ("epds.sim", "Trace", ("to_csv",)),
}
ROOT = "pass"


def _grid_points(tr, args, kwargs, result, seconds) -> None:
    """Barycentric points of the grid, computed from vertex count and
    resolution (the generator reduction above the grid limit is ignored)."""
    k = len(args[0].vertices)
    res = args[3] if len(args) > 3 else kwargs.get("simplex_resolution", 0.02)
    n_steps = max(1, round(1.0 / res))
    tr.count("grid_points", math.comb(n_steps + k - 1, k - 1))


def _hull(tr, args, kwargs, result, seconds) -> None:
    tr.count(f"hull_vertices.{result.n_vertices}")


def _oracle(tr, args, kwargs, result, seconds) -> None:
    cone, E = args[0], args[1]
    tr.count(f"shape.n{cone.dim}_ne{E.n_e}")
    tr.timings.setdefault(f"oracle_project.ne{E.n_e}", []).append(seconds)


# Span name -> observer(tracer, args, kwargs, result, seconds) of the input
# properties a call reveals.
OBSERVERS = {
    "pbc.closed_loop_rhs": lambda tr, a, kw, r, s: tr.count("branch." + r.branch),
    "sim.drift_correct": lambda tr, a, kw, r, s: tr.count("drift_fired", int(r[1])),
    "oracle.oracle_project": _oracle,
    "krasovskii.krasovskii_vertices": _hull,
    "krasovskii.sector_krasovskii_vertices": _hull,
    "krasovskii.verify_equality": _grid_points,
}
_HEADER = struct.Struct("<II")  # number of names, number of spans


class Tracer:
    """In-memory span store plus per-call observations of results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        # Input properties seen by the observers: key -> count, which
        # repeats exactly, and key -> call durations, which do not.
        self.observed: dict[str, int] = {}
        self.timings: dict[str, list[float]] = {}
        # Traced functions the package no longer defines.  They would read
        # 0 calls, so the benchmark fails a run that lists any.
        self.missing: list[str] = []

    def count(self, key: str, n: int = 1) -> None:
        self.observed[key] = self.observed.get(key, 0) + n

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._name(name)
        clock = time.perf_counter
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(self, args, kwargs, result, t1 - t0)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for the pass root)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, observers: dict) -> None:
        """Wrap every traced function and method of the imported epds."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "epds" and m]
        for name, targets in FUNCTIONS.items():
            self._name(name)
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self.wrap(name, original, observers.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for name, (mod_name, cls_name, methods) in METHODS.items():
            self._name(name)
            cls = getattr(sys.modules[mod_name], cls_name)
            for meth in methods:
                original = getattr(cls, meth, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self.wrap(name, original, observers.get(name)))

    def dump(self, path: str, run_id: str) -> None:
        """Write the spans once: sizes, a JSON header, then the raw arrays."""
        with open(path, "wb") as fh:
            head = json.dumps({"run_id": run_id, "names": self.names}).encode()
            fh.write(_HEADER.pack(len(head), len(self.start)))
            fh.write(head)
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str) -> dict:
    with open(path, "rb") as fh:
        head_len, n = _HEADER.unpack(fh.read(_HEADER.size))
        head = json.loads(fh.read(head_len))
        cols = []
        for code in ("H", "l", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    head["name_id"], head["parent"], head["start"], head["end"] = cols
    return head


def span_stats(spans: dict) -> dict:
    """name -> {"calls", "self_s", "durations"} for one span file."""
    names, nid, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in names}
    for i, k in enumerate(nid):
        rec = out[names[k]]
        rec["calls"] += 1
        rec["self_s"] += dur[i] - child[i]
        rec["durations"].append(dur[i])
    return out


def children_of(spans: dict, parent_name: str, child_name: str) -> list[int]:
    """For each span named parent_name, in order, the count of its direct
    children named child_name."""
    names = spans["names"]
    if parent_name not in names or child_name not in names:
        return []
    pid, cid = names.index(parent_name), names.index(child_name)
    counts = {i: 0 for i, k in enumerate(spans["name_id"]) if k == pid}
    for k, p in zip(spans["name_id"], spans["parent"]):
        if k == cid and p in counts:
            counts[p] += 1
    return list(counts.values())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
