"""Benchmark covrage end to end (untraced) or by layer (traced).

    python3 perfbench/run.py --workload headset-replan --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout, in one process and one thread with
single-threaded BLAS, as a closed loop: each operation starts when the
previous one returns. Prints the environment, then as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p99", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
)
# Inclusive time per operation, in ms.
LAYER_MS = (
    "geometry.sample_trajectory",
    "geometry.trajectory_length",
    "planner.plan_trajectory",
    "planner.cover_points",
    "planner.phase_sync",
    "array_model.steering_weights",
    "array_model.array_coefficient",
    "array_model.partition",
    "array_model.compose_full_awv",
    "array_model.peak_gain",
    "array_model.coefficient_grid",
    "array_model.coefficient_points",
    "array_model.quantize_phases",
    "link_budget.select_mcs",
    "harness.build_beam",
    "cli.load_scenario",
    "cli.cmd_plan",
    "cli.cmd_sweep",
    "cli.cmd_compare",
    "cli.cmd_gainmap",
)
# Self time per operation, in ms: the span minus its traced children.
LAYER_SELF_MS = (
    "planner.covrage_plan",
    "harness.sweep_trajectory",
    "harness.gain_map",
    "cli.cmd_plan",
    "cli.cmd_sweep",
    "cli.cmd_compare",
    "cli.cmd_gainmap",
)
# Calls per operation, and calls per covrage_plan call.
LAYER_CALLS = ("array_model.steering_weights", "array_model.peak_gain", "link_budget.select_mcs")
LAYER_PER_PLAN = ("geometry.sample_trajectory", "planner.cover_points")
PER_LAYER = (
    tuple((f"{n}.ms", "ms", "lower") for n in LAYER_MS)
    + tuple((f"{n}.self_ms", "ms", "lower") for n in LAYER_SELF_MS)
    + tuple((f"{n}.calls", "count", "lower") for n in LAYER_CALLS)
    + tuple((f"{n}.per_plan", "count", "lower") for n in LAYER_PER_PLAN)
    + (
        ("array_model.coefficient_grid.cmacs", "count", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.op_ms_p50", "ms", "lower"),
    )
)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(),
    }


def import_covrage() -> tuple[dict, float]:
    """Import the package afresh from this checkout's src/ and time the import.

    numpy is imported first and not timed; covrage's own modules are dropped
    from sys.modules so that each call pays the package's import again.
    """
    src = ROOT / "src"
    if not (src / "covrage" / "__init__.py").is_file():
        sys.exit(f"perfbench: no covrage package under {src}; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    for name in [m for m in sys.modules if m == "covrage" or m.startswith("covrage.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    from covrage import array_model, cli, geometry, harness, link_budget, planner

    elapsed = time.perf_counter() - t0
    modules = {
        "geometry": geometry, "planner": planner, "array_model": array_model,
        "link_budget": link_budget, "harness": harness, "cli": cli,
    }
    return modules, elapsed


def run_loop(workload, seconds: float, recorder, min_ops: int):
    """Whole rounds until ``seconds`` have passed and ``min_ops`` ops ran.

    Returns op latencies (s), the span index each op started at, failed count
    and problems that are not the known peak_gain fault.
    """
    from checks import PEAK

    latencies, starts, unexpected = [], [], []
    failed = 0
    clock = time.perf_counter
    end = clock() + seconds
    while clock() < end or len(latencies) < min_ops:
        for op in workload.next_round():
            op.prepare()
            if recorder is not None:
                starts.append(len(recorder.spans))
                recorder.active = True
            t0 = clock()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            latencies.append(clock() - t0)
            if recorder is not None:
                recorder.active = False
            problems = [f"raised {error!r}"] if error is not None else op.check(out)
            if problems:
                failed += 1
                if not op.fault or any(not p.startswith(PEAK) for p in problems):
                    unexpected.extend(problems)
    if recorder is not None:
        starts.append(len(recorder.spans))
    return latencies, starts, failed, unexpected


def layer_metrics(recorder, starts, latencies, workload) -> dict:
    n_ops = len(latencies)
    window = workload.count_window
    everything = recorder.summary()
    counted = recorder.summary(0, starts[window])
    plans = counted["planner.covrage_plan"]["calls"]
    values = {}
    for name in LAYER_MS:
        values[f"{name}.ms"] = everything[name]["ms"] / n_ops
    for name in LAYER_SELF_MS:
        values[f"{name}.self_ms"] = everything[name]["self_ms"] / n_ops
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = counted[name]["calls"] / window
    for name in LAYER_PER_PLAN:
        values[f"{name}.per_plan"] = counted[name]["calls"] / plans if plans else 0.0
    values["array_model.coefficient_grid.cmacs"] = counted["array_model.coefficient_grid"]["work"] / window
    written = workload.bytes_per_op[:window]
    values["cli.bytes_written"] = sum(written) / window
    values["trace.op_ms_p50"] = statistics.median(latencies) * 1e3
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_covrage()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Set-up is import, input generation, config writing and warm-up; the
        # last repeat's modules and inputs are the ones measured.
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            modules, import_s = import_covrage()
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](modules, work)
            workload.setup(args.seed)
            setups.append(import_s + time.perf_counter() - t0)

        recorder = None
        if args.trace:
            from spans import Recorder

            recorder = Recorder()
            recorder.install(modules)
        try:
            latencies, starts, failed, unexpected = run_loop(
                workload, args.seconds, recorder, workload.count_window if recorder else 1
            )
        finally:
            if recorder is not None:
                recorder.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_problems = workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(latencies)
    if run_problems:
        failed = attempted
        unexpected.extend(run_problems)
    for problem in unexpected[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if recorder is None:
        ms = np.asarray(latencies) * 1e3
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_p99": float(np.percentile(ms, 99)),
            "ops_per_s": attempted / float(np.sum(latencies)),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        values = layer_metrics(recorder, starts, latencies, workload)
        units = {name: unit for name, unit, _ in PER_LAYER}
        recorder.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    print("env " + json.dumps(environment(np), sort_keys=True))
    print(f"workload {args.workload}: {attempted} ops, {failed} failed, "
          f"set-ups {', '.join(f'{t:.4f}' for t in setups)} s")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
