"""Seeded input generator for the benchmark.

Everything the program receives is built here from a workload seed with the
benchmark's own RNG and its own rotation math: orientation pairs, AP
directions, link settings and config files. Nothing in this module imports
covrage, so the checks can compare the program against these values.

A head turn is a start orientation q1 and an end orientation
q2 = rot* x q1, where rot turns by ``angle`` about ``axis``. The apparent AP
rotation q1 x q2* is then ``rot`` itself, so the sampled AP path is the
Rodrigues rotation of the AP direction about ``axis`` by fractions of
``angle``. The AP starts within ``AP_RADIUS`` of broadside (at most 17.5
degrees off boresight) and turns are at most ``MAX_ANGLE`` (40 degrees), so no
path leaves the front hemisphere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AP_RADIUS = 0.3
MAX_ANGLE = 0.7
PROBE_SAMPLES = 64

# Workload streams: one RNG per (seed, stream) so that adding a draw to one
# stream never shifts another.
STREAM_HEADSET = 1
STREAM_STUDY = 2
STREAM_CLI = 3
STREAM_WARMUP = 4
STREAM_CHECK = 5
# The fault scenarios of the strategy study use this fixed seed, never the
# workload seed.
FAULT_SEED = 20210525
# Warm-up inputs are the same for every seed, so set-up time does not depend
# on which seed a run was given.
WARMUP_SEED = 0


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def quat_mul(a, b) -> tuple[float, float, float, float]:
    """Hamilton product a x b of scalar-first quaternions."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def rodrigues_path(ap_uv, axis, angle: float, n: int) -> np.ndarray:
    """(n, 2) sine-space samples of the AP direction turned by k/(n-1) of angle."""
    u, v = ap_uv
    d0 = np.array([-v, u, math.sqrt(max(0.0, 1.0 - u * u - v * v))])
    k = np.asarray(axis, dtype=float)
    beta = np.linspace(0.0, 1.0, n)[:, None] * angle
    d = d0 * np.cos(beta) + np.cross(k, d0) * np.sin(beta) + k * (k @ d0) * (1.0 - np.cos(beta))
    return np.column_stack([d[:, 1], -d[:, 0]])


def path_length(path: np.ndarray) -> float:
    return float(np.hypot(*np.diff(path, axis=0).T).sum())


@dataclass(frozen=True)
class Turn:
    """One head turn: the orientation pair plus the rotation that made it."""

    q1: tuple[float, float, float, float]
    q2: tuple[float, float, float, float]
    ap_uv: tuple[float, float]
    axis: tuple[float, float, float]
    angle: float

    def path(self, n: int) -> np.ndarray:
        return rodrigues_path(self.ap_uv, self.axis, self.angle, n)


def make_turn(rng: np.random.Generator, length_band: tuple[float, float]) -> Turn:
    """A turn whose 64-sample apparent path length lies inside length_band."""
    lo, hi = length_band
    while True:
        r = AP_RADIUS * math.sqrt(rng.uniform())
        a = rng.uniform(0.0, 2.0 * math.pi)
        ap = (r * math.cos(a), r * math.sin(a))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.02, MAX_ANGLE)
        if lo <= path_length(rodrigues_path(ap, axis, angle, PROBE_SAMPLES)) <= hi:
            break
    q1 = rng.normal(size=4)
    q1 /= np.linalg.norm(q1)
    s = math.sin(angle / 2.0)
    rot_conj = (math.cos(angle / 2.0), -axis[0] * s, -axis[1] * s, -axis[2] * s)
    q2 = quat_mul(rot_conj, tuple(q1))
    return Turn(
        tuple(float(c) for c in q1),
        tuple(float(c) for c in q2),
        (float(ap[0]), float(ap[1])),
        tuple(float(c) for c in axis),
        float(angle),
    )


# ---------------------------------------------------------------- headset ---

# One round of the headset workload: every combination of interleave and
# sample count, each with no ablation twice, delayed_first once, no_sync once.
HEADSET_ROUND = tuple(
    (interleave, n_samples, ablation)
    for interleave in (4, 16)
    for n_samples in (None, 256)
    for ablation in ("", "", "delayed_first", "no_sync")
)
HEADSET_ARRAY = 32
HEADSET_LENGTHS = (0.04, 0.6)


@dataclass(frozen=True)
class PlanInput:
    turn: Turn
    interleave: int
    n_samples: int | None
    delayed_first: bool
    no_sync_seed: int | None


def headset_round(rng: np.random.Generator) -> list[PlanInput]:
    """Sixteen distinct head turns in the fixed mix of HEADSET_ROUND."""
    out = []
    for interleave, n_samples, ablation in HEADSET_ROUND:
        out.append(
            PlanInput(
                turn=make_turn(rng, HEADSET_LENGTHS),
                interleave=interleave,
                n_samples=n_samples,
                delayed_first=ablation == "delayed_first",
                no_sync_seed=int(rng.integers(2**31)) if ablation == "no_sync" else None,
            )
        )
    return out


# --------------------------------------------------------- strategy study ---

STUDY_ARRAYS = (32, 64)
STUDY_LENGTHS = (0.05, 0.4)


@dataclass(frozen=True)
class StudyInput:
    turn: Turn
    n: int
    n_samples: int | None
    phase_bits: int | None
    eirp_dbm: float
    distance_m: float
    seed: int
    fault: bool


def _study_input(rng, n, phase_bits, fault) -> StudyInput:
    return StudyInput(
        turn=make_turn(rng, STUDY_LENGTHS),
        n=n,
        n_samples=(None, 256)[int(rng.integers(2))],
        phase_bits=phase_bits,
        eirp_dbm=float(rng.uniform(0.0, 20.0)),
        distance_m=float(rng.uniform(10.0, 200.0)),
        seed=int(rng.integers(2**31)),
        fault=fault,
    )


def fault_inputs() -> list[StudyInput]:
    """Unquantised scenarios that trip the peak_gain fault on every run.

    Built from FAULT_SEED, never from the workload seed, so the failed share
    of a strategy-study run is the same whatever the seed.
    """
    rng = rng_for(FAULT_SEED, STREAM_STUDY)
    return [_study_input(rng, n, None, True) for n in STUDY_ARRAYS]


def study_round(rng: np.random.Generator, faults: list[StudyInput]) -> list[StudyInput]:
    """Six seeded scenarios (unquantised, 1 and 2 phase bits, both sizes) plus the faults."""
    seeded = [
        _study_input(rng, n, bits, False)
        for n in STUDY_ARRAYS
        for bits in (None, 1, 2)
    ]
    return seeded + faults


# -------------------------------------------------------------- CLI bulk ---

CLI_BIG = 1024
CLI_BIG_LENGTHS = (0.2, 0.3)
CLI_BIG_SAMPLES = 256
CLI_SMALL = 32
CLI_SMALL_LENGTHS = (0.1, 0.4)
GAINMAP_RESOLUTION = 512


@dataclass(frozen=True)
class CliConfig:
    path: Path
    turn: Turn


def write_config(path: Path, turn: Turn, n: int, rng, n_samples: int | None) -> CliConfig:
    """Write an n x n config for ``turn`` with seeded link settings."""
    doc = {
        "array": {"nx": n, "ny": n},
        "link": {
            "eirp_dbm": round(float(rng.uniform(0.0, 20.0)), 3),
            "distance_m": round(float(rng.uniform(10.0, 200.0)), 3),
        },
        "orientation_start": list(turn.q1),
        "orientation_end": list(turn.q2),
        "ap_direction_uv": list(turn.ap_uv),
        "seed": int(rng.integers(2**31)),
    }
    if n_samples is not None:
        doc["n_samples"] = n_samples
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return CliConfig(path, turn)


def cli_configs(seed: int, directory: Path) -> dict[str, CliConfig]:
    """The large config (plan, sweep, compare) and the small one (gainmap)."""
    rng = rng_for(seed, STREAM_CLI)
    big = make_turn(rng, CLI_BIG_LENGTHS)
    small = make_turn(rng, CLI_SMALL_LENGTHS)
    return {
        "big": write_config(directory / "big.json", big, CLI_BIG, rng, CLI_BIG_SAMPLES),
        "small": write_config(directory / "small.json", small, CLI_SMALL, rng, None),
    }
