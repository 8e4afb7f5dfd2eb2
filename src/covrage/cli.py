"""Command-line front end: scenario configs in, deterministic data files out.

Configs are JSON; angles in configs are degrees, radians internally. Every
output file starts with a schema-version line, a run manifest is written
before any other output, and identical invocations produce byte-identical
files (no timestamps, fixed float formatting).

Exit codes: 0 success, 2 config errors, 3 model-domain errors such as a
trajectory leaving the front hemisphere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .array_model import ArrayConfig
from .errors import ConfigError, CovrageError, HemisphereError, InvalidUvError
from .geometry import EulerAngles, Quaternion, UvPoint, euler_to_quat, euler_to_uv, trajectory_length
from .harness import (
    DISPLAY_CLAMP_DBI,
    STRATEGIES,
    Scenario,
    build_beam,
    compare_strategies,
    gain_map,
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


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _expect(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config field: {where}{key}")


def _number(doc: dict, name: str, default: float, where: str = "") -> float:
    value = doc.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}{name} must be a number")
    return float(value)


def _opt_number(doc: dict, name: str, default: float | None, where: str = "") -> float | None:
    if name in doc and doc[name] is None:
        return None
    if name not in doc:
        return default
    return _number(doc, name, 0.0, where)


def _integer(doc: dict, name: str, default: int | None, where: str = "") -> int | None:
    value = doc.get(name, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}{name} must be an integer")
    return value


def _boolean(doc: dict, name: str, default: bool) -> bool:
    value = doc.get(name, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


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


def _orientation(doc: dict, stem: str) -> Quaternion:
    quat = _vector(doc, stem, 4)
    euler = _vector(doc, stem + "_euler_deg", 3)
    if quat is not None and euler is not None:
        raise ConfigError(f"give {stem} either as a quaternion or as Euler degrees, not both")
    try:
        if quat is not None:
            return Quaternion(*quat)
        if euler is not None:
            return euler_to_quat(EulerAngles(*(math.radians(a) for a in euler)))
    except ValueError as exc:
        raise ConfigError(f"{stem}: {exc}") from None
    return Quaternion.identity()


def _ap_direction(doc: dict) -> UvPoint:
    uv = _vector(doc, "ap_direction_uv", 2)
    deg = _vector(doc, "ap_direction_deg", 2)
    if uv is not None and deg is not None:
        raise ConfigError("give the AP direction in UV or in degrees, not both")
    try:
        if uv is not None:
            return UvPoint(uv[0], uv[1])
        if deg is not None:
            return euler_to_uv(EulerAngles(math.radians(deg[0]), math.radians(deg[1])))
    except (InvalidUvError, HemisphereError, ValueError) as exc:
        raise ConfigError(f"ap direction: {exc}") from None
    return UvPoint(0.0, 0.0)


_TOP_KEYS = (
    "array",
    "link",
    "orientation_start",
    "orientation_start_euler_deg",
    "orientation_end",
    "orientation_end_euler_deg",
    "ap_direction_uv",
    "ap_direction_deg",
    "n_samples",
    "strategy",
    "no_sync",
    "delayed_first",
    "seed",
    "interleave",
    "phase_bits",
    "mcs_table_path",
)
_ARRAY_KEYS = ("nx", "ny", "spacing_wavelengths", "frequency_hz")
_LINK_KEYS = (
    "eirp_dbm",
    "distance_m",
    "frequency_hz",
    "path_loss_exponent",
    "reference_distance_m",
    "reference_loss_db",
    "noise_floor_dbm",
)


def load_scenario(config_path: Path, args: argparse.Namespace) -> tuple[Scenario, str | None]:
    """Build the scenario from a config file plus command-line overrides."""
    with open(config_path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_finite, parse_constant=_finite)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _expect(doc, _TOP_KEYS, "")

    arr = doc.get("array", {})
    if not isinstance(arr, dict):
        raise ConfigError("array must be an object")
    _expect(arr, _ARRAY_KEYS, "array.")
    array = ArrayConfig(
        nx=_integer(arr, "nx", 32, "array."),
        ny=_integer(arr, "ny", 32, "array."),
        spacing_wavelengths=_number(arr, "spacing_wavelengths", 0.25, "array."),
        frequency_hz=_number(arr, "frequency_hz", 60e9, "array."),
    )

    lnk = doc.get("link", {})
    if not isinstance(lnk, dict):
        raise ConfigError("link must be an object")
    _expect(lnk, _LINK_KEYS, "link.")
    link = LinkParams(
        eirp_dbm=_number(lnk, "eirp_dbm", 30.0, "link."),
        distance_m=_number(lnk, "distance_m", 3.0, "link."),
        frequency_hz=_number(lnk, "frequency_hz", array.frequency_hz, "link."),
        path_loss_exponent=_number(lnk, "path_loss_exponent", 2.0, "link."),
        reference_distance_m=_number(lnk, "reference_distance_m", 1.0, "link."),
        reference_loss_db=_opt_number(lnk, "reference_loss_db", 68.0, "link."),
        noise_floor_dbm=_opt_number(lnk, "noise_floor_dbm", None, "link."),
    )

    mcs_path = doc.get("mcs_table_path")
    mcs_table = None
    if mcs_path is not None:
        if not isinstance(mcs_path, str):
            raise ConfigError("mcs_table_path must be a string")
        mcs_table = load_mcs_table(config_path.parent / mcs_path)

    strategy = doc.get("strategy", "covrage")
    if args.strategy is not None:
        strategy = args.strategy
    if args.ablation is not None:
        no_sync = "no_sync" in args.ablation
        delayed = "delayed_first" in args.ablation
    else:
        no_sync = _boolean(doc, "no_sync", False)
        delayed = _boolean(doc, "delayed_first", False)
    seed = _integer(doc, "seed", 0, "")
    if args.seed is not None:
        seed = args.seed

    scenario = Scenario(
        array=array,
        link=link,
        orientation_start=_orientation(doc, "orientation_start"),
        orientation_end=_orientation(doc, "orientation_end"),
        ap_direction=_ap_direction(doc),
        n_samples=_integer(doc, "n_samples", None, ""),
        strategy=strategy,
        no_sync=no_sync,
        delayed_first=delayed,
        seed=seed,
        interleave=_integer(doc, "interleave", 4, ""),
        phase_bits=_integer(doc, "phase_bits", None, ""),
        mcs_table=mcs_table,
    )
    return scenario, mcs_path


def _scenario_dict(sc: Scenario, mcs_path: str | None) -> dict:
    return {
        "array": {
            "nx": sc.array.nx,
            "ny": sc.array.ny,
            "spacing_wavelengths": sc.array.spacing_wavelengths,
            "frequency_hz": sc.array.frequency_hz,
        },
        "link": {
            "eirp_dbm": sc.link.eirp_dbm,
            "distance_m": sc.link.distance_m,
            "frequency_hz": sc.link.frequency_hz,
            "path_loss_exponent": sc.link.path_loss_exponent,
            "reference_distance_m": sc.link.reference_distance_m,
            "reference_loss_db": sc.link.reference_loss_db,
            "noise_floor_dbm": sc.link.noise_floor_dbm,
        },
        "orientation_start": [sc.orientation_start.w, sc.orientation_start.x,
                              sc.orientation_start.y, sc.orientation_start.z],
        "orientation_end": [sc.orientation_end.w, sc.orientation_end.x,
                            sc.orientation_end.y, sc.orientation_end.z],
        "ap_direction_uv": [sc.ap_direction.u, sc.ap_direction.v],
        "n_samples": sc.n_samples,
        "strategy": sc.strategy,
        "no_sync": sc.no_sync,
        "delayed_first": sc.delayed_first,
        "seed": sc.seed,
        "interleave": sc.interleave,
        "phase_bits": sc.phase_bits,
        "mcs_table_path": mcs_path,
    }


def _out_dir(args: argparse.Namespace) -> Path:
    chosen = args.out_dir or os.environ.get("COVRAGE_OUT_DIR") or "covrage-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(
    out: Path, command: str, args: argparse.Namespace, sc: Scenario,
    mcs_path: str | None, extras: dict | None = None,
) -> None:
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


def _ablation_label(sc: Scenario) -> str:
    parts = [name for name, on in (("no_sync", sc.no_sync), ("delayed_first", sc.delayed_first)) if on]
    return ",".join(parts)


def cmd_plan(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    if sc.strategy != "covrage":
        raise ConfigError("the plan command requires the covrage strategy")
    out = _out_dir(args)
    _write_manifest(out, "plan", args, sc, mcs_path)
    built = build_beam(sc)
    plan = built.plan
    assert plan is not None
    print(f"beams: {plan.n_beams}")
    print(
        f"groups: {plan.layout.n_sub} "
        f"(interleave {plan.coverage.interleaved}, subdivisions {plan.coverage.subdivisions})"
    )
    print(f"sub-beam width: {_fmt(plan.coverage.width)}")
    print(f"trajectory: {len(plan.trajectory)} samples, length {_fmt(trajectory_length(plan.trajectory))}")
    for k, (center, subs) in enumerate(zip(plan.beam_centers, plan.assignment)):
        ids = ",".join(str(s) for s in subs)
        print(f"beam {k}: u={_fmt(center.u)} v={_fmt(center.v)} groups=[{ids}]")
    for k, pt in enumerate(plan.overlap_points):
        print(f"overlap {k}: u={_fmt(pt.u)} v={_fmt(pt.v)}")
    for k, shift in enumerate(plan.sync_shifts):
        print(f"shift {k}: phase_rad={_fmt(np.angle(shift))}")
    print(f"extrapolated: {'yes' if plan.extrapolated else 'no'}")
    lines = ["# covrage-awv-v1", "x,y,phase_rad"]
    phases = built.awv.phases()
    for x in range(phases.shape[0]):
        for y in range(phases.shape[1]):
            lines.append(f"{x},{y},{_fmt(phases[x, y])}")
    _write(out / "awv.csv", "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    out = _out_dir(args)
    _write_manifest(out, "sweep", args, sc, mcs_path)
    built = build_beam(sc)
    res = sweep_trajectory(
        built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths, sc.mcs_table
    )
    lines = ["# covrage-sweep-v1", "index,u,v,gain_dbi,noise_penalty_db,rx_power_dbm,mcs_index,datarate_mbps"]
    for k, (u, v) in enumerate(built.trajectory.uv.tolist()):
        entry = res.mcs[k]
        lines.append(
            f"{k},{_fmt(u)},{_fmt(v)},{_fmt(res.gain_dbi[k])},"
            f"{_fmt(res.noise_penalty_db[k])},{_fmt(res.rx_power_dbm[k])},"
            f"{entry.index},{_fmt(entry.datarate_mbps)}"
        )
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
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
    out = _out_dir(args)
    _write_manifest(out, "gainmap", args, sc, mcs_path, {"resolution": args.resolution})
    built = build_beam(sc)
    grid = gain_map(built.awv, args.resolution, sc.array.spacing_wavelengths)
    lines = [
        "# covrage-gainmap-v1",
        f"# display_clamp_dbi={_fmt(DISPLAY_CLAMP_DBI)}",
        "i,j,u,v,gain_dbi",
    ]
    axis = grid.axis
    for i in range(grid.resolution):
        for j in range(grid.resolution):
            value = grid.gain_dbi[i, j]
            cell = "out" if np.isnan(value) else _fmt(value)
            lines.append(f"{i},{j},{_fmt(axis[i])},{_fmt(axis[j])},{cell}")
    _write(out / "gainmap.csv", "\n".join(lines) + "\n")
    print(f"gainmap: {grid.resolution}x{grid.resolution} cells")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    sc, mcs_path = load_scenario(args.config, args)
    out = _out_dir(args)
    _write_manifest(out, "compare", args, sc, mcs_path)
    rows = compare_strategies(sc)
    lines = [
        "# covrage-compare-v1",
        "strategy,ablation,beam_count,min_gain_dbi,max_gain_dbi,gain_range_db,min_mcs_index,min_datarate_mbps",
    ]
    print(f"{'strategy':<16}{'ablation':<15}{'beams':>5}{'min':>10}{'max':>10}{'range':>10}{'mcs':>5}{'rate':>10}")
    for row in rows:
        res = row.result
        lines.append(
            f"{row.strategy},{row.ablation},{row.beam_count},{_fmt(res.min_gain_dbi)},"
            f"{_fmt(res.max_gain_dbi)},{_fmt(res.gain_range_db)},"
            f"{res.min_mcs_index},{_fmt(res.min_datarate_mbps)}"
        )
        print(
            f"{row.strategy:<16}{row.ablation or '-':<15}{row.beam_count:>5}"
            f"{res.min_gain_dbi:>10.3f}{res.max_gain_dbi:>10.3f}{res.gain_range_db:>10.3f}"
            f"{res.min_mcs_index:>5}{res.min_datarate_mbps:>10.1f}"
        )
    _write(out / "compare.csv", "\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covrage",
        description="Plan trajectory-covering receive beams and evaluate them against baselines.",
    )
    parser.add_argument("--version", action="version", version=f"covrage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("plan", cmd_plan, "print the beam plan and dump the weight vector"),
        ("sweep", cmd_sweep, "evaluate gain, noise penalty, and rate along the trajectory"),
        ("gainmap", cmd_gainmap, "export the hemisphere gain grid"),
        ("compare", cmd_compare, "run every strategy and ablation on one scenario"),
    )
    for name, func, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, required=True, help="scenario config (JSON)")
        cmd.add_argument("--out-dir", default=None, help="output directory (or $COVRAGE_OUT_DIR)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--strategy", choices=STRATEGIES, default=None, help="override the strategy")
        cmd.add_argument(
            "--ablation", action="append", choices=ABLATIONS, default=None,
            help="enable an ablation (repeatable; replaces config ablations)",
        )
        if name == "gainmap":
            cmd.add_argument("--resolution", type=int, default=256, help="grid cells per axis")
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CovrageError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
