"""Scenario evaluation: strategies, ablations, sweeps, and gain maps.

A Scenario bundles everything one run needs: array and link configuration, the
orientation pair, the true AP direction, and which beam strategy to evaluate.
Strategies are the trajectory-covering plan ("covrage") and three single-beam
baselines steering the whole aperture at the path start, at the farthest
sample whose beam still covers the start, or at the halfway sample. Two
ablations modify the covering plan only: no_sync randomizes every beam-level
phase shift (seeded), delayed_first moves the first beam to the farthest
sample still covering the path start.

Sweeps report per-sample receive gain, received power, and the selected rate
entry. The noise penalty against the pattern's hemisphere-wide maximum needs a
peak search over the whole front hemisphere; a SweepResult runs it on the
first read of its peak or penalty, and keeps its weight vector until then.
Comparisons read only the on-path gain and rate, so they never search.

A comparison runs the six VARIANTS on one path, each row one build_beam and
one sweep_trajectory. The calls share what the variants have in common: the
trajectory is sampled once, the path phasors every sweep contracts with are
built once, and covrage and no_sync synthesize from one plan geometry, with
no_sync's seeded shifts in place of the sync. iter_strategies yields the rows
one at a time, which keeps one variant's weights alive instead of six on
large arrays. All results are deterministic functions of the scenario,
including the seeded random pieces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .array_model import (
    MAX_PHASE_BITS,
    ArrayConfig,
    Awv,
    beamwidth_uv,
    coefficient_grid,
    floored_gain_dbi,
    partition_interleaved,
    path_coefficients,
    path_phasors,
    peak_gain,
    quantize_phases,
    steering_weights,
)
from .errors import ConfigError, HemisphereError, InvalidUvError
from .geometry import (
    Quaternion,
    Trajectory,
    UvPoint,
    hamilton_product,
    sample_trajectory,
    trajectory_length,
)
from .link_budget import (
    LinkParams,
    McsEntry,
    default_mcs_table,
    path_loss,
    select_mcs_levels,
)
from .planner import MAX_TRAJECTORY_SAMPLES, BeamPlan, PlanGeometry, plan_geometry, plan_trajectory, synthesize_plan

STRATEGIES = ("covrage", "baseline-start", "baseline-edge", "baseline-mid")

# A comparison's rows, in order: each strategy, then each covrage ablation.
VARIANTS = (*((strategy, "") for strategy in STRATEGIES), ("covrage", "no_sync"), ("covrage", "delayed_first"))

# Clamp used by external plotting of gain maps; recorded in CLI output metadata.
DISPLAY_CLAMP_DBI = 30.0

# Relative tolerance on the path length of a constructed head turn.
LENGTH_REL_TOL = 0.005


@dataclass(frozen=True)
class Scenario:
    """One evaluation setup: array, link, motion, strategy, and knobs."""

    array: ArrayConfig = ArrayConfig()
    link: LinkParams = LinkParams()
    orientation_start: Quaternion = Quaternion.identity()
    orientation_end: Quaternion = Quaternion.identity()
    ap_direction: UvPoint = UvPoint(0.0, 0.0)
    n_samples: int | None = None
    strategy: str = "covrage"
    no_sync: bool = False
    delayed_first: bool = False
    seed: int = 0
    interleave: int = 4
    phase_bits: int | None = None
    mcs_table: tuple[McsEntry, ...] | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if (self.no_sync or self.delayed_first) and self.strategy != "covrage":
            raise ConfigError("ablations apply to the covrage strategy only")
        if self.n_samples is not None and not 2 <= self.n_samples <= MAX_TRAJECTORY_SAMPLES:
            raise ConfigError(f"n_samples must be between 2 and {MAX_TRAJECTORY_SAMPLES}")
        if self.phase_bits is not None and not 1 <= self.phase_bits <= MAX_PHASE_BITS:
            raise ConfigError(f"phase_bits must be between 1 and {MAX_PHASE_BITS}")
        partition_interleaved(self.array, self.interleave)  # rejects an interleave the array cannot take
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class BeamBuild:
    """A scenario's beam: the weights, the plan when one exists, the path."""

    scenario: Scenario
    awv: Awv
    plan: BeamPlan | None
    trajectory: Trajectory


def _baseline_target(strategy: str, cfg: ArrayConfig, traj: Trajectory) -> UvPoint:
    if strategy == "baseline-start":
        return traj[0]
    if strategy == "baseline-edge":
        width = beamwidth_uv(min(cfg.nx, cfg.ny), cfg.spacing_wavelengths)
        dist = np.hypot(*(traj.uv - traj.uv[0]).T)
        inside = np.nonzero(dist <= width / 2.0 + 1e-12)[0]
        return traj[int(inside[-1])]
    # halfway along the path by arc length, nearest sample
    seg = np.hypot(*np.diff(traj.uv, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return traj[int(np.argmin(np.abs(cum - cum[-1] / 2.0)))]


def _baseline_weights(strategy: str, cfg: ArrayConfig, traj: Trajectory) -> Awv:
    return steering_weights((cfg.nx, cfg.ny), cfg.spacing_wavelengths, _baseline_target(strategy, cfg, traj))


def _seeded_shifts(seed: int):
    """no_sync's sync override: one seeded uniform phase per beam."""
    rng = np.random.default_rng(seed)
    return lambda count: np.exp(2j * np.pi * rng.uniform(size=count))


def _quantized(awv: Awv, phase_bits: int | None) -> Awv:
    return awv if phase_bits is None else quantize_phases(awv, phase_bits)


def build_beam(
    sc: Scenario, trajectory: Trajectory | None = None, geometry: PlanGeometry | None = None
) -> BeamBuild:
    """Construct the weight vector a scenario's strategy calls for.

    ``trajectory``, when given, is the path plan_trajectory samples for the
    scenario; ``geometry``, when given, is plan_geometry's cover of it
    without delayed_first. A covrage scenario without delayed_first then
    synthesizes from that geometry instead of planning its own.
    """
    traj = trajectory if trajectory is not None else plan_trajectory(
        sc.orientation_start, sc.orientation_end, sc.ap_direction, sc.array, sc.interleave, sc.n_samples
    )
    plan = None
    if sc.strategy == "covrage":
        if geometry is None or sc.delayed_first:
            geometry = plan_geometry(traj, sc.array, interleave=sc.interleave, delayed_first=sc.delayed_first)
        awv, plan = synthesize_plan(geometry, _seeded_shifts(sc.seed) if sc.no_sync else None)
    else:
        awv = _baseline_weights(sc.strategy, sc.array, traj)
    return BeamBuild(sc, _quantized(awv, sc.phase_bits), plan, traj)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-sample link metrics along a trajectory, with the hemisphere peak on demand.

    The peak search is the costly part of a sweep, and most readers of a
    result never look at it. It runs on the first read of peak_gain_dbi,
    peak_uv or noise_penalty_db, so the result keeps the weight vector it
    was swept with until it is dropped.
    """

    trajectory: Trajectory
    gain_dbi: np.ndarray
    rx_power_dbm: np.ndarray
    mcs: tuple[McsEntry, ...]
    awv: Awv
    spacing_wl: float

    def __post_init__(self) -> None:
        n = len(self.trajectory)
        for name in ("gain_dbi", "rx_power_dbm"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must hold one value per sample")
            arr.setflags(write=False)
        if len(self.mcs) != n:
            raise ValueError("mcs must hold one entry per sample")

    @functools.cached_property
    def _peak(self) -> tuple[float, UvPoint, np.ndarray]:
        g_max, peak_uv = peak_gain(self.awv, self.spacing_wl)
        best = int(np.argmax(self.gain_dbi))
        if self.gain_dbi[best] > g_max:
            # The grid search can step over a beam narrower than its cell.
            g_max, peak_uv = float(self.gain_dbi[best]), self.trajectory[best]
        penalty = g_max - self.gain_dbi
        penalty.setflags(write=False)
        return g_max, peak_uv, penalty

    @property
    def peak_gain_dbi(self) -> float:
        return self._peak[0]

    @property
    def peak_uv(self) -> UvPoint:
        return self._peak[1]

    @property
    def noise_penalty_db(self) -> np.ndarray:
        """Per-sample gain below the hemisphere peak, in dB."""
        return self._peak[2]

    @property
    def min_gain_dbi(self) -> float:
        return float(self.gain_dbi.min())

    @property
    def max_gain_dbi(self) -> float:
        return float(self.gain_dbi.max())

    @property
    def gain_range_db(self) -> float:
        return float(self.gain_dbi.max() - self.gain_dbi.min())

    @property
    def min_datarate_mbps(self) -> float:
        return min(entry.datarate_mbps for entry in self.mcs)

    @property
    def min_mcs_index(self) -> int:
        return min(self.mcs, key=lambda entry: entry.datarate_mbps).index


def sweep_trajectory(
    awv: Awv,
    trajectory: Trajectory,
    link: LinkParams,
    spacing_wl: float,
    mcs_table: tuple[McsEntry, ...] | None = None,
    phasors: tuple[np.ndarray, np.ndarray] | None = None,
) -> SweepResult:
    """Receive gain, received power, and rate along a path; the peak on first read.

    ``phasors``, when given, is path_phasors for the weights' shape on this
    trajectory at this pitch, shared by every sweep of that path.
    """
    if phasors is None:
        phasors = path_phasors(awv.shape, trajectory.u_array(), trajectory.v_array(), spacing_wl)
    gains = floored_gain_dbi(np.abs(path_coefficients(awv, phasors)) ** 2)
    loss = path_loss(link.distance_m, link)
    rx = link.eirp_dbm - loss + gains
    return SweepResult(
        trajectory=trajectory,
        gain_dbi=gains,
        rx_power_dbm=rx,
        mcs=select_mcs_levels(rx, mcs_table if mcs_table is not None else default_mcs_table()),
        awv=awv,
        spacing_wl=spacing_wl,
    )


@dataclass(frozen=True, eq=False)
class GainMap:
    """Gain over the sine-space disc on a square grid; NaN outside the disc."""

    axis: np.ndarray
    gain_dbi: np.ndarray

    def __post_init__(self) -> None:
        self.axis.setflags(write=False)
        self.gain_dbi.setflags(write=False)

    @property
    def resolution(self) -> int:
        return len(self.axis)


def gain_map(awv: Awv, resolution: int, spacing_wl: float) -> GainMap:
    """Evaluate the pattern on a resolution-squared grid, indexed [u, v]."""
    if resolution < 16:
        raise ConfigError("gain map resolution must be at least 16")
    axis = np.linspace(-1.0, 1.0, resolution)
    gain = floored_gain_dbi(np.abs(coefficient_grid(awv, axis, axis, spacing_wl)) ** 2)
    gain[axis[:, None] ** 2 + axis[None, :] ** 2 > 1.0] = np.nan
    return GainMap(axis=axis, gain_dbi=gain)


def _rotation_for_length(
    q1: Quaternion, axis: tuple[float, float, float], ap_dir: UvPoint, target: float
) -> Quaternion | None:
    """End orientation making the sampled path length hit target, else None.

    Bisects the rotation angle about the fixed axis; paths leaving the front
    hemisphere count as overshoot, so the search stays inside valid angles.
    """

    def length_at(angle: float) -> float | None:
        rot = Quaternion.from_axis_angle(axis, angle)
        q2 = hamilton_product(rot.conjugate(), q1)
        try:
            return trajectory_length(sample_trajectory(q1, q2, ap_dir, 64))
        except (HemisphereError, InvalidUvError):
            return None

    hi = 0.25
    l_hi = length_at(hi)
    while l_hi is not None and l_hi < target and hi < 3.0:
        hi *= 1.6
        l_hi = length_at(hi)
    if l_hi is not None and l_hi < target:
        return None
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        l_mid = length_at(mid)
        if l_mid is None or l_mid > target:
            hi = mid
        else:
            lo = mid
    angle = 0.5 * (lo + hi)
    reached = length_at(angle)
    if reached is None or abs(reached - target) > LENGTH_REL_TOL * target:
        return None
    rot = Quaternion.from_axis_angle(axis, angle)
    return hamilton_product(rot.conjugate(), q1)


def random_head_rotation(
    seed: int, target_uv_length: float, ap_dir: UvPoint = UvPoint(0.0, 0.0)
) -> tuple[Quaternion, Quaternion]:
    """Seeded orientation pair whose apparent AP path has the given length.

    The start orientation is a uniform random rotation; rotation axes are
    drawn until one admits the target length without the path leaving the
    front hemisphere. Identical arguments always return the identical pair.
    """
    if target_uv_length < 0.0:
        raise ValueError("target length must be non-negative")
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    q1 = Quaternion(*vec)
    if target_uv_length == 0.0:
        return q1, q1
    for _ in range(40):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        q2 = _rotation_for_length(q1, tuple(axis), ap_dir, target_uv_length)
        if q2 is not None:
            return q1, q2
    raise ValueError(f"no head rotation found with a length-{target_uv_length} apparent path")


def reference_scenario(name: str) -> Scenario:
    """Two fixed synthesized scenarios used throughout the test battery.

    "a": the AP starts 0.22 from broadside and the head rolls about broadside,
    dragging the apparent AP along a gently curved arc of length 0.30; the
    tail runs past the last covering beam, so planning extends beyond the
    sampled end.
    "b": the AP starts at broadside and runs outward along the u axis with a
    strong curl (the rotation axis leans heavily out of the array plane),
    length 0.35 at 256 samples; its far end lands roughly 33 dB down the
    start-steered pattern.
    """
    q1 = Quaternion.identity()
    if name == "a":
        ap = UvPoint(0.22, 0.0)
        rot = Quaternion.from_axis_angle((0.0, 0.0, 1.0), 0.30 / 0.22)
        return Scenario(orientation_start=q1, orientation_end=rot.conjugate(), ap_direction=ap)
    if name == "b":
        ap = UvPoint(0.0, 0.0)
        norm = math.sqrt(1.0 + 1.7**2)
        axis = (-1.0 / norm, 0.0, 1.7 / norm)
        q2 = _rotation_for_length(q1, axis, ap, 0.35)
        if q2 is None:
            raise RuntimeError("reference rotation construction failed")
        return Scenario(orientation_start=q1, orientation_end=q2, ap_direction=ap, n_samples=256)
    raise ConfigError(f"unknown reference scenario {name!r}")


class CompareRow(NamedTuple):
    strategy: str
    ablation: str
    beam_count: int
    result: SweepResult


def iter_strategies(sc: Scenario) -> Iterator[CompareRow]:
    """Every strategy plus both ablations on one scenario, one row at a time.

    The scenario's own strategy and ablation flags are ignored. The variants
    share one sampled trajectory, one pair of path phasors and, but for
    delayed_first, one plan geometry, which is dropped before delayed_first
    plans its own. Each row holds its variant's weight vector, so a caller
    that drops a row before taking the next keeps one large array's weights
    alive, not six; each row is built inside _variant_row, so no local of
    this generator holds a variant's weights between rows.
    """
    cfg = sc.array
    traj = plan_trajectory(
        sc.orientation_start, sc.orientation_end, sc.ap_direction, cfg, sc.interleave, sc.n_samples
    )
    phasors = path_phasors((cfg.nx, cfg.ny), traj.u_array(), traj.v_array(), cfg.spacing_wavelengths)
    geometry = plan_geometry(traj, cfg, interleave=sc.interleave)
    for strategy, ablation in VARIANTS:
        if ablation == "delayed_first":
            geometry = None
        yield _variant_row(sc, strategy, ablation, traj, geometry, phasors)


def _variant_row(
    sc: Scenario, strategy: str, ablation: str, traj: Trajectory, geometry: PlanGeometry | None, phasors
) -> CompareRow:
    sc = replace(sc, strategy=strategy, no_sync=ablation == "no_sync", delayed_first=ablation == "delayed_first")
    built = build_beam(sc, traj, geometry)
    result = sweep_trajectory(built.awv, traj, sc.link, sc.array.spacing_wavelengths, sc.mcs_table, phasors)
    return CompareRow(strategy, ablation, built.plan.n_beams if built.plan is not None else 1, result)


def compare_strategies(sc: Scenario) -> list[CompareRow]:
    """Run every strategy plus both ablations on one scenario's trajectory."""
    return list(iter_strategies(sc))
