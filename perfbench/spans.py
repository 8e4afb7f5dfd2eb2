"""Span recorder for the traced run.

The recorder wraps public functions of the covrage modules from outside: each
function is replaced, in every module namespace that binds it, by a wrapper
that records (name, parent, start, end) while the recorder is active. Spans
stay in memory and are written out once, when the run ends. Self time is a
span's duration minus the durations of its direct children; in one thread
children never overlap, so that is the part of the interval they cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, defining module, function). Partitioning has two entry points
# reported as one layer.
TARGETS = (
    ("geometry.sample_trajectory", "geometry", "sample_trajectory"),
    ("geometry.trajectory_length", "geometry", "trajectory_length"),
    ("planner.plan_trajectory", "planner", "plan_trajectory"),
    ("planner.cover_points", "planner", "cover_points"),
    ("planner.phase_sync", "planner", "phase_sync"),
    ("planner.covrage_plan", "planner", "covrage_plan"),
    ("array_model.steering_weights", "array_model", "steering_weights"),
    ("array_model.array_coefficient", "array_model", "array_coefficient"),
    ("array_model.partition", "array_model", "partition_interleaved"),
    ("array_model.partition", "array_model", "partition_localized"),
    ("array_model.compose_full_awv", "array_model", "compose_full_awv"),
    ("array_model.peak_gain", "array_model", "peak_gain"),
    ("array_model.coefficient_grid", "array_model", "coefficient_grid"),
    ("array_model.coefficient_points", "array_model", "coefficient_points"),
    ("array_model.quantize_phases", "array_model", "quantize_phases"),
    ("link_budget.select_mcs", "link_budget", "select_mcs"),
    ("harness.build_beam", "harness", "build_beam"),
    ("harness.sweep_trajectory", "harness", "sweep_trajectory"),
    ("harness.gain_map", "harness", "gain_map"),
    ("harness.compare_strategies", "harness", "compare_strategies"),
    ("cli.load_scenario", "cli", "load_scenario"),
    ("cli.cmd_plan", "cli", "cmd_plan"),
    ("cli.cmd_sweep", "cli", "cmd_sweep"),
    ("cli.cmd_compare", "cli", "cmd_compare"),
    ("cli.cmd_gainmap", "cli", "cmd_gainmap"),
)


def grid_cmacs(awv, u, v, *_args, **_kwargs) -> int:
    """Complex multiply-adds of coefficient_grid, computed from operand shapes.

    weights (nx, ny) @ ev (ny, V) costs nx*ny*V; eu.T (U, nx) @ that costs U*nx*V.
    """
    nx, ny = awv.shape
    n_u, n_v = np.size(u), np.size(v)
    return nx * ny * n_v + n_u * nx * n_v


COUNTERS = {"array_model.coefficient_grid": grid_cmacs}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, parent, start ns, end ns, work]
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            work = counter(*args, **kwargs) if counter else 0
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, clock(), 0, work]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def install(self, modules: dict[str, object]) -> None:
        """Replace each target in every module namespace that binds it."""
        for name, home, attr in TARGETS:
            original = getattr(modules[home], attr)
            wrapped = self._wrap(name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self, first: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive ms, self ms and work over spans[first:stop]."""
        spans = self.spans[first:stop]
        child_ns = defaultdict(int)
        for _, parent, start, end, _ in spans:
            if parent >= first:
                child_ns[parent] += end - start
        out = {n: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0} for n in self.names}
        for offset, (name_id, _, start, end, work) in enumerate(spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[first + offset]) / 1e6
            entry["work"] += work
        return out

    def write(self, path: Path) -> None:
        """Dump every span as [name, parent, start_ns, end_ns, work] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": "perfbench-spans-v1",
            "columns": ["name", "parent", "start_ns", "end_ns", "work"],
            "spans": [[self.names[s[0]], *s[1:]] for s in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
