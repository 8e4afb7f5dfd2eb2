"""Command-line front end: scenario configs in, deterministic data files out.

Configs are JSON; angles in configs are degrees, radians internally. Every
output file starts with a schema-version line, a run manifest is written
before any other output, and identical invocations produce byte-identical
files (no timestamps, fixed float formatting).

Exit codes: 0 success, 2 config errors (command-line mistakes, undecodable
files and a config whose arrays do not fit in memory among them), 3
model-domain errors such as a trajectory leaving the front hemisphere.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .array_model import ArrayConfig
from .errors import ConfigError, CovrageError, read_utf8
from .geometry import EulerAngles, Quaternion, UvPoint, euler_to_quat, euler_to_uv, trajectory_length
from .harness import (
    DISPLAY_CLAMP_DBI,
    STRATEGIES,
    Scenario,
    build_beam,
    gain_map,
    iter_strategies,
    sweep_trajectory,
)
from .link_budget import LinkParams, load_mcs_table

ABLATIONS = ("no_sync", "delayed_first")


def _fmt(x: float) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0
    return format(value, ".10g")


def _finite(text: str) -> float:
    """JSON float hook: NaN, Infinity and overflowing literals are config errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a key given twice is a config error, not a silent last-wins."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k in doc if sum(k == other for other, _ in pairs) > 1)
        raise ConfigError(f"duplicate config field: {key}")
    return doc


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# Rows per write: amortises the rendering work without building a file-sized string.
_BLOCK_ROWS = 1 << 16


class _Axis:
    """The column ``values[row // stride % len(values)]``: one index of a row-major grid."""

    __slots__ = ("values", "stride")

    def __init__(self, values: np.ndarray, stride: int) -> None:
        self.values, self.stride = values, stride


def _grid(rows: np.ndarray, cols: np.ndarray) -> tuple[_Axis, _Axis]:
    """Row-major columns pairing each entry of ``rows`` with each of ``cols``."""
    return _Axis(rows, len(cols)), _Axis(cols, 1)


def _items(matrix: np.ndarray) -> np.ndarray:
    """A byte matrix whose rows are contiguous as one item per row, so a row moves as one."""
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


def write_table(path: Path, header: list[str], columns: list) -> None:
    """Write ``header`` lines, then one comma-separated row per entry of the equal-length columns.

    A column is a sequence of values or an ``_Axis``, whose values are
    rendered once and then picked by row; the sequences set the row count.
    Rows are rendered and written ``_BLOCK_ROWS`` at a time, each block as
    one byte matrix.
    """
    from .csvtext import cells

    columns = [c if isinstance(c, _Axis) else np.asarray(c) for c in columns]
    grid = [k for k, c in enumerate(columns) if isinstance(c, _Axis)]
    plain = [k for k, c in enumerate(columns) if not isinstance(c, _Axis)]
    n = len(columns[plain[0]])
    axes = dict(zip(grid, cells([np.asarray(columns[k].values) for k in grid])))
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(n, start + _BLOCK_ROWS)
            rows = np.arange(start, stop)
            parts = dict(zip(plain, cells([columns[k][start:stop] for k in plain])))
            for k in grid:
                parts[k] = axes[k].take(rows // columns[k].stride % len(axes[k]), axis=0)
            parts = [parts[k] for k in range(len(columns))]
            block = np.empty((stop - start, sum(p.shape[1] + 1 for p in parts)), np.uint8)
            at = 0
            for part in parts:
                _items(block[:, at:at + part.shape[1]])[:] = _items(part)
                at += part.shape[1] + 1
                block[:, at - 1] = ord(",")
            block[:, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))


# Scenario fields whose config keys differ from the field name. The manifest
# echoes the first key; a second key gives the same value in degrees.
_SPELLED = {
    "orientation_start": ("orientation_start", "orientation_start_euler_deg"),
    "orientation_end": ("orientation_end", "orientation_end_euler_deg"),
    "ap_direction": ("ap_direction_uv", "ap_direction_deg"),
    "mcs_table": ("mcs_table_path",),
}
# Scalar field annotations: the JSON values each accepts and the error wording.
# Annotations are strings, as the dataclass modules postpone their evaluation.
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def _scalars(doc: object, cls: type, where: str = "") -> dict:
    """Checked values of the scalar ``cls`` fields that ``doc`` sets.

    ``doc`` may hold only keys named after ``cls``'s fields (or their
    ``_SPELLED`` keys). Each scalar value must match its field's annotation;
    ``null`` is accepted only where that annotation is ``X | None``. Fields
    ``doc`` leaves out are left out here, so they take the dataclass default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config root'} must be a JSON object")
    fields = dataclasses.fields(cls)
    allowed = {key for f in fields for key in _SPELLED.get(f.name, (f.name,))}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config field: {where}{key}")
    values = {}
    for f in fields:
        kind, _, optional = f.type.partition(" | ")
        if kind not in _KINDS or f.name not in doc:
            continue
        value = doc[f.name]
        if value is None and optional == "None":
            values[f.name] = None
            continue
        types, wording = _KINDS[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"{where}{f.name} must be {wording}")
        values[f.name] = float(value) if kind == "float" else value
    return values


def _vector(doc: dict, name: str, length: int) -> list[float] | None:
    if name not in doc:
        return None
    value = doc[name]
    ok = isinstance(value, list) and len(value) == length and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    )
    if not ok:
        raise ConfigError(f"{name} must be a list of {length} numbers")
    return [float(x) for x in value]


def _direction(doc: dict, name: str) -> Quaternion | UvPoint | None:
    """An orientation or the AP direction from whichever of its two keys is set."""
    key, deg_key = _SPELLED[name]
    quat = name != "ap_direction"
    plain = _vector(doc, key, 4 if quat else 2)
    deg = _vector(doc, deg_key, 3 if quat else 2)
    if plain is not None and deg is not None:
        raise ConfigError(f"give {key} or {deg_key}, not both")
    try:
        if plain is not None:
            return Quaternion(*plain) if quat else UvPoint(*plain)
        if deg is not None:
            angles = EulerAngles(*(math.radians(a) for a in deg))
            return euler_to_quat(angles) if quat else euler_to_uv(angles)
    except ValueError as exc:
        raise ConfigError(f"{name.replace('_', ' ')}: {exc}") from None
    return None


def load_scenario(config_path: Path, args: argparse.Namespace) -> tuple[Scenario, str | None]:
    """Build the scenario from a config file plus command-line overrides.

    The accepted keys, their types and their defaults are the fields of
    ``Scenario``, ``ArrayConfig`` and ``LinkParams``, apart from the keys in
    ``_SPELLED``.
    """
    doc = json.loads(read_utf8(config_path), object_pairs_hook=_unique, parse_float=_finite, parse_constant=_finite)
    values = _scalars(doc, Scenario)
    array = ArrayConfig(**_scalars(doc.get("array", {}), ArrayConfig, "array."))
    link = _scalars(doc.get("link", {}), LinkParams, "link.")
    # The carrier sets the loss only through the free-space anchor. The default
    # carrier passes, as the manifest echoes it beside a numeric loss.
    if link.get("frequency_hz", LinkParams.frequency_hz) != LinkParams.frequency_hz and (
        link.get("reference_loss_db", LinkParams.reference_loss_db) is not None
    ):
        raise ConfigError("link.frequency_hz is read only when link.reference_loss_db is null")
    for name in ("orientation_start", "orientation_end", "ap_direction"):
        value = _direction(doc, name)
        if value is not None:
            values[name] = value
    mcs_path = doc.get("mcs_table_path")
    if mcs_path is not None:
        if not isinstance(mcs_path, str):
            raise ConfigError("mcs_table_path must be a string")
        values["mcs_table"] = load_mcs_table(config_path.parent / mcs_path)
    if getattr(args, "strategy", None) is not None:
        values["strategy"] = args.strategy
    if getattr(args, "ablation", None) is not None:
        values.update((name, name in args.ablation) for name in ABLATIONS)
    if args.seed is not None:
        values["seed"] = args.seed
    return Scenario(array=array, link=LinkParams(**link), **values), mcs_path


def _scenario_dict(sc: Scenario, mcs_path: str | None) -> dict:
    """The resolved scenario under its config keys, itself a valid config."""
    doc = {}
    for f in dataclasses.fields(Scenario):
        value = getattr(sc, f.name)
        if f.name == "mcs_table":
            value = mcs_path
        elif f.name in _SPELLED:
            value = list(dataclasses.astuple(value))
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        doc[_SPELLED.get(f.name, (f.name,))[0]] = value
    return doc


def _start_run(
    command: str, args: argparse.Namespace, sc: Scenario, mcs_path: str | None, extras: dict | None = None
) -> Path:
    """Create the output directory and write its manifest, the run's first output; return the directory."""
    out = Path(args.out_dir or os.environ.get("COVRAGE_OUT_DIR") or "covrage-out")
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": "covrage-manifest-v1",
        "tool_version": __version__,
        "command": command,
        "config_path": str(args.config),
        "output_dir": str(out),
        "seed": sc.seed,
        "scenario": _scenario_dict(sc, mcs_path),
    }
    if extras:
        doc.update(extras)
    _write(out / "manifest.json", json.dumps(doc, indent=2) + "\n")
    return out


def _ablation_label(sc: Scenario) -> str:
    return ",".join(name for name in ABLATIONS if getattr(sc, name))


def cmd_plan(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    if sc.strategy != "covrage":
        raise ConfigError("the plan command requires the covrage strategy")
    out = _start_run("plan", args, sc, mcs_path)
    built = build_beam(sc)
    plan = built.plan
    assert plan is not None
    layout = plan.layout
    print(f"beams: {plan.n_beams}")
    print(f"groups: {layout.n_sub} (interleave {layout.interleave_factor}, subdivisions {layout.subdivisions})")
    print(f"sub-beam width: {_fmt(layout.beam_width)}")
    print(f"trajectory: {len(plan.trajectory)} samples, length {_fmt(trajectory_length(plan.trajectory))}")
    for k, (center, subs) in enumerate(zip(plan.beam_centers, plan.assignment)):
        ids = ",".join(str(s) for s in subs)
        print(f"beam {k}: u={_fmt(center.u)} v={_fmt(center.v)} groups=[{ids}]")
    for k, pt in enumerate(plan.overlap_points):
        print(f"overlap {k}: u={_fmt(pt.u)} v={_fmt(pt.v)}")
    for k, shift in enumerate(plan.sync_shifts):
        print(f"shift {k}: phase_rad={_fmt(np.angle(shift))}")
    print(f"extrapolated: {'yes' if plan.extrapolated else 'no'}")
    phases = built.awv.phases()
    labels = _grid(*map(np.arange, phases.shape))
    write_table(out / "awv.csv", ["# covrage-awv-v1", "x,y,phase_rad"], [*labels, phases.ravel()])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    out = _start_run("sweep", args, sc, mcs_path)
    built = build_beam(sc)
    res = sweep_trajectory(
        built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths, sc.mcs_table
    )
    uv, mcs = built.trajectory.uv, res.mcs
    header = ["# covrage-sweep-v1", "index,u,v,gain_dbi,noise_penalty_db,rx_power_dbm,mcs_index,datarate_mbps"]
    write_table(out / "sweep.csv", header, [
        np.arange(len(uv)), uv[:, 0], uv[:, 1], res.gain_dbi, res.noise_penalty_db, res.rx_power_dbm,
        [e.index for e in mcs], [e.datarate_mbps for e in mcs],
    ])
    summary = {
        "schema": "covrage-sweep-summary-v1",
        "strategy": sc.strategy,
        "ablation": _ablation_label(sc),
        "n_samples": len(built.trajectory),
        "trajectory_length_uv": trajectory_length(built.trajectory),
        "beam_count": built.plan.n_beams if built.plan is not None else 1,
        "min_gain_dbi": res.min_gain_dbi,
        "max_gain_dbi": res.max_gain_dbi,
        "gain_range_db": res.gain_range_db,
        "peak_gain_dbi": res.peak_gain_dbi,
        "peak_uv": [res.peak_uv.u, res.peak_uv.v],
        "min_mcs_index": res.min_mcs_index,
        "min_datarate_mbps": res.min_datarate_mbps,
    }
    _write(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(
        f"sweep: {len(built.trajectory)} samples, gain range {_fmt(res.gain_range_db)} dB, "
        f"min rate {_fmt(res.min_datarate_mbps)} Mbps"
    )
    return 0


def cmd_gainmap(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    if args.resolution < 16:
        raise ConfigError("gain map resolution must be at least 16")
    out = _start_run("gainmap", args, sc, mcs_path, {"resolution": args.resolution})
    built = build_beam(sc)
    grid = gain_map(built.awv, args.resolution, sc.array.spacing_wavelengths)
    header = ["# covrage-gainmap-v1", f"# display_clamp_dbi={_fmt(DISPLAY_CLAMP_DBI)}", "i,j,u,v,gain_dbi"]
    index, axis = np.arange(grid.resolution), grid.axis
    write_table(out / "gainmap.csv", header, [*_grid(index, index), *_grid(axis, axis), grid.gain_dbi.ravel()])
    print(f"gainmap: {grid.resolution}x{grid.resolution} cells")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    out = _start_run("compare", args, sc, mcs_path)
    stats = ("min_gain_dbi", "max_gain_dbi", "gain_range_db", "min_mcs_index", "min_datarate_mbps")
    print(f"{'strategy':<16}{'ablation':<15}{'beams':>5}{'min':>10}{'max':>10}{'range':>10}{'mcs':>5}{'rate':>10}")
    cells = []
    for strategy, ablation, beams, res in iter_strategies(sc):
        lo, hi, span, mcs, rate = (getattr(res, s) for s in stats)
        del res  # free this variant's weights before the next one is built
        print(
            f"{strategy:<16}{ablation or '-':<15}{beams:>5}"
            f"{lo:>10.3f}{hi:>10.3f}{span:>10.3f}{mcs:>5}{rate:>10.1f}"
        )
        cells.append((strategy, ablation, beams, lo, hi, span, mcs, rate))
    header = ["# covrage-compare-v1", ",".join(("strategy", "ablation", "beam_count") + stats)]
    write_table(out / "compare.csv", header, list(zip(*cells)))
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are config errors: one stderr line, exit 2, like a bad config."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it.

    It holds no command function: ``main`` looks ``cmd_<command>`` up on each
    call, so that a wrapper set on this module, as a profiler sets one, runs.
    """
    parser = _Parser(
        prog="covrage",
        description="Plan trajectory-covering receive beams and evaluate them against baselines.",
    )
    parser.add_argument("--version", action="version", version=f"covrage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("plan", "print the beam plan and dump the weight vector"),
        ("sweep", "evaluate gain, noise penalty, and rate along the trajectory"),
        ("gainmap", "export the hemisphere gain grid"),
        ("compare", "run every strategy and ablation on one scenario"),
    )
    for name, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, required=True, help="scenario config (JSON)")
        cmd.add_argument("--out-dir", default=None, help="output directory (or $COVRAGE_OUT_DIR)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        # Only the flags a command reads: plan runs covrage alone, compare every variant.
        if name in ("sweep", "gainmap"):
            cmd.add_argument("--strategy", choices=STRATEGIES, help="override the strategy")
        if name != "compare":
            cmd.add_argument("--ablation", action="append", choices=ABLATIONS,
                             help="enable an ablation (repeatable; replaces config ablations)")
        if name == "gainmap":
            cmd.add_argument("--resolution", type=int, default=256, help="grid cells per axis")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CovrageError, ValueError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"config error: out of memory{detail}; use a smaller array, n_samples or resolution", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
