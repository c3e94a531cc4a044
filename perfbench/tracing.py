"""Spans recorded around calls into fplab's modules, from outside the package.

A wrapper replaces every binding of a wrapped function in the loaded
``fplab.*`` modules (the defining module and every ``from x import f`` copy),
so calls made through any of them are timed. Spans are kept in memory and
written out with the child's record when the run ends.

Span records are plain dicts: id, name, start, end, parent, run and
optional attrs (counts taken from the call's arguments or result). Parents are
tracked per thread, so spans opened in a worker thread are roots of that
thread.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
import types


class Tracer:
    """In-memory span recorder shared by all wrappers of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``attrs(args, kwargs, result) -> dict`` adds counts to the span after
        a successful call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            span = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                    "start": time.perf_counter()}
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span["attrs"] = attrs(args, kwargs, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return wrapper


def patch_everywhere(original, replacement) -> None:
    """Rebind every module-level name bound to ``original`` in fplab's modules."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "fplab" or name.startswith("fplab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


class ModuleProxy(types.ModuleType):
    """Stand-in for a foreign module as seen by one fplab module: the given
    overrides replace attributes, every other lookup goes to the module."""

    def __init__(self, module, overrides: dict):
        super().__init__(module.__name__)
        self.__dict__.update(overrides)
        self.__dict__["_module"] = module

    def __getattr__(self, name):
        return getattr(self.__dict__["_module"], name)


# ---------------------------------------------------------------------------
# span arithmetic

def duration(span) -> float:
    return span["end"] - span["start"]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: duration(s) - union_length(children.get(s["id"], ())) for s in spans}


def outermost(spans, prefix: str) -> list:
    """Spans whose name starts with ``prefix`` and that have no ancestor that
    does; nested calls inside the same layer are not counted twice."""
    by_id = {s["id"]: s for s in spans}

    def nested(s):
        p = s["parent"]
        while p is not None:
            anc = by_id.get(p)
            if anc is None:
                return False
            if anc["name"].startswith(prefix):
                return True
            p = anc["parent"]
        return False

    return [s for s in spans if s["name"].startswith(prefix) and not nested(s)]


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _attr(spans, key):
    return [s["attrs"][key] for s in spans if key in s.get("attrs", {})]


LAYER_UNITS = {
    "fpe.solve_s.p50": "s", "fpe.solve_s.max": "s", "fpe.factor_s": "s",
    "fpe.factor_calls_per_member": "count", "fpe.solve_self_s": "s", "fpe.assemble_s": "s",
    "fpe.operator_nnz": "count", "fpe.clipped_mass_max": "1", "fpe.max_abs_z": "1",
    "fpe.wall_share": "frac", "analysis.dictionary_s": "s", "analysis.dictionary_calls": "count",
    "analysis.metrics_s": "s", "dynamics.uniform_lyapunov_s": "s",
    "scenarios.sweep_self_s": "s", "scenarios.schedule_s": "s", "fields.build_s": "s",
    "sampler.occupation_s": "s", "sampler.inner_path_steps_per_s": "1/s", "io.write_s": "s",
    "io.documents": "count", "io.bytes_written": "B", "cli.pool_busy_frac": "frac",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans, wall_s: float, workers: int) -> dict:
    """Per-layer figures of one traced process (see perfbench/README.md)."""
    own = self_times(spans)
    solves = outermost(spans, "fpe.solve")
    solve_ids = {s["id"] for s in solves}
    factors = _named(spans, "fpe.factor")
    members = len(solves)
    solve_d = [duration(s) for s in solves]
    factor_in_solves = sum(duration(s) for s in factors if s["parent"] in solve_ids)
    path_steps = sum(_attr(_named(spans, "sampler.occupation"), "path_steps"))
    occupation_s = sum(duration(s) for s in outermost(spans, "sampler.occupation"))
    sweeps = _named(spans, "scenarios.sweep")

    def total(prefix):
        return sum(duration(s) for s in outermost(spans, prefix))

    return {
        "fpe.solve_s.p50": statistics.median(solve_d) if solve_d else 0.0,
        "fpe.solve_s.max": max(solve_d, default=0.0),
        "fpe.factor_s": sum(duration(s) for s in factors),
        "fpe.factor_calls_per_member": len(factors) / members if members else 0.0,
        "fpe.solve_self_s": sum(solve_d) - factor_in_solves,
        "fpe.assemble_s": total("fpe.assemble"),
        "fpe.operator_nnz": max(_attr(spans, "nnz"), default=0),
        "fpe.clipped_mass_max": max(_attr(solves, "clipped_mass"), default=0.0),
        "fpe.max_abs_z": max(_attr(solves, "max_abs_z"), default=0.0),
        "fpe.wall_share": union_length(
            [(s["start"], s["end"]) for s in outermost(spans, "fpe.")]) / wall_s,
        "analysis.dictionary_s": total("analysis.dictionary"),
        "analysis.dictionary_calls": len(outermost(spans, "analysis.dictionary")),
        "analysis.metrics_s": total("analysis.metric") / members if members else 0.0,
        "dynamics.uniform_lyapunov_s": total("dynamics.uniform_lyapunov"),
        "scenarios.sweep_self_s": sum(own[s["id"]] for s in sweeps),
        "scenarios.schedule_s": total("scenarios.schedule"),
        "fields.build_s": total("fields.build"),
        "sampler.occupation_s": occupation_s,
        "sampler.inner_path_steps_per_s": path_steps / occupation_s if occupation_s else 0.0,
        "io.write_s": total("io.write"),
        "io.documents": len(_named(spans, "io.write")),
        "io.bytes_written": sum(_attr(spans, "bytes")),
        "cli.pool_busy_frac": sum(duration(s) for s in sweeps) / (wall_s * workers),
    }
