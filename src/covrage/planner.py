"""Beam planning: cover a sampled gaze trajectory with steered sub-beams.

The planner splits the aperture into interleaved groups (full-width beams),
subdivides them into quadrant blocks when the path is too long for the group
budget, walks the sampled path placing beam centers greedily so that every
sample sits within half a beamwidth of some center, assigns groups to beams
(reinforcing with spares), aligns the phases of adjacent beams where their
coverage discs meet, and composes the per-group weights into one full-array
weight vector. The steps up to the assignment (plan_geometry) depend only on
the path and give a BeamPlan with no weights; synthesize_plan steers, syncs
and composes, so plans that differ only in their shifts share one BeamPlan.

Phase alignment compares group coefficients in group-local coordinates; the
physical origin offset of each group is cancelled separately by a per-group
correction phasor at composition time, which is what makes several groups
aimed at one direction add up exactly like the undivided aperture.

Everything here is deterministic and pure; plans for independent inputs can be
computed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .array_model import (
    ArrayConfig,
    Awv,
    SubArrayLayout,
    array_coefficient,
    compose_full_awv,
    origin_phase_correction,
    partition_interleaved,
    partition_localized,
    steering_weights,
)
from .errors import ConfigError
from .geometry import (
    Quaternion,
    Trajectory,
    UvPoint,
    sample_trajectory,
    trajectory_length,
)

# Closed-disc slack: a sample exactly on the coverage boundary counts as covered.
COVERAGE_SLACK = 1e-12

# Sampling defaults: consecutive UV spacing at most a tenth of the beam width,
# never fewer than 64 samples.
MIN_TRAJECTORY_SAMPLES = 64
SAMPLES_PER_BEAMWIDTH = 10

# Most samples a path may take, fixed or automatic: 2**20 samples are 16 MiB of
# (u, v) pairs, far above any plan a head turn needs (thousands at 1024x1024).
MAX_TRAJECTORY_SAMPLES = 2**20

# Tail extension is bounded by this multiple of the original sample count.
EXTRAPOLATION_CAP_FACTOR = 4

# Below this coefficient magnitude a beam's phase is numerically meaningless.
SYNC_MAGNITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class BeamPlan:
    """A plan's decisions, no weights: centers, overlap points, per-beam shifts, group layout."""

    beam_centers: tuple[UvPoint, ...]
    overlap_points: tuple[UvPoint, ...]
    sync_shifts: tuple[complex, ...]
    layout: SubArrayLayout
    assignment: tuple[tuple[int, ...], ...]
    trajectory: Trajectory
    extrapolated: bool
    sync_skipped: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.beam_centers)
        if n == 0:
            raise ValueError("a plan needs at least one beam")
        if len(self.sync_shifts) != n:
            raise ValueError("one sync shift per beam required")
        if len(self.overlap_points) != n - 1:
            raise ValueError("expected one overlap point between adjacent beams")
        if len(self.assignment) != n:
            raise ValueError("one group set per beam required")

    @property
    def n_beams(self) -> int:
        return len(self.beam_centers)

    @property
    def coverage(self) -> SubArrayLayout:
        """``layout`` under a second name: the layout alone fixes sub-beam width and depth.

        ``tests/test_acceptance.py`` reads ``plan.coverage.half_width`` and
        ``perfbench/checks.py`` reads ``plan.coverage.subdivisions``.
        """
        return self.layout


class CoverResult(NamedTuple):
    centers: tuple[UvPoint, ...]
    overlaps: tuple[UvPoint, ...]
    extrapolated: bool


def subdivision_level(path_length: float, beam_width: float, n_groups: int) -> int:
    """Smallest quadrant-split depth whose beam budget covers the path.

    Each split quadruples the group count and doubles every beam's width, so
    capacity grows eightfold per level and the loop always terminates.
    """
    if path_length < 0.0 or beam_width <= 0.0 or n_groups < 1:
        raise ValueError("invalid coverage inputs")
    s = 0
    while path_length + 2.0 ** (s - 1) * beam_width > 4.0**s * n_groups * 2.0**s * beam_width:
        s += 1
    return s


def allocate_sub_arrays(n_beams: int, n_groups: int) -> tuple[tuple[int, ...], ...]:
    """Assign groups to beams, spending spare groups on reinforcement.

    The four-group arrangement keeps its special pairings: spares reinforce
    diagonally opposite partners (group offsets (0,0)+(1,1) and (1,0)+(0,1)),
    which keeps the reinforced pattern symmetric. Larger budgets hand out one
    group per beam in order and spread the leftovers round-robin from beam 0.
    """
    if n_beams < 1:
        raise ValueError("at least one beam required")
    if n_beams > n_groups:
        raise ValueError(f"{n_beams} beams exceed the {n_groups} available groups; subdivide first")
    if n_groups == 4:
        return {
            1: ((0, 1, 2, 3),),
            2: ((0, 3), (1, 2)),
            3: ((0, 3), (1,), (2,)),
            4: ((0,), (1,), (2,), (3,)),
        }[n_beams]
    groups = [[k] for k in range(n_beams)]
    for spare in range(n_beams, n_groups):
        groups[(spare - n_beams) % n_beams].append(spare)
    return tuple(tuple(g) for g in groups)


def cover_points(trajectory: Trajectory, half_width: float, *, delayed_first: bool = False) -> CoverResult:
    """Place beam centers so every trajectory sample lies within half_width of one.

    Walks the samples in order. The first beam sits on the first sample (or,
    with delayed_first, on the farthest sample still covering it). When a
    sample falls outside every placed beam, a candidate center advances along
    the remaining samples and is locked at the last position that still covers
    both the pending uncovered samples and an overlap anchor: the most recent
    sample covered by the previous beam. Each recorded overlap point is
    therefore inside both adjacent beams' discs.

    If the candidate walk runs off the end of the samples, the path is
    extended by repeating the final step vector, so the last beam can land
    ahead of the sampled motion. The extension stops at the lock condition,
    the unit disc, or EXTRAPOLATION_CAP_FACTOR times the sample count,
    whichever comes first.
    """
    pts = trajectory.uv.tolist()
    n = len(pts)
    if half_width <= 0.0:
        raise ValueError("half_width must be positive")
    # No two points of the unit disc are more than 2 apart, so a wider radius
    # covers the same points; the cap keeps the square finite.
    h2 = (min(half_width, 2.0) + COVERAGE_SLACK) ** 2

    def near(a: Sequence[float], b: Sequence[float]) -> bool:
        dx = a[0] - b[0]
        dy = a[1] - b[1]
        return dx * dx + dy * dy <= h2

    for k in range(1, n):
        dx = pts[k][0] - pts[k - 1][0]
        dy = pts[k][1] - pts[k - 1][1]
        if dx * dx + dy * dy >= half_width * half_width:
            raise ValueError(f"sample spacing at index {k} is not below the coverage half-width")

    def extended(j: int) -> Sequence[float] | None:
        """Sample j >= n of the path extended by its final step; None where the extension stops."""
        k = j - n + 1
        step_x = pts[-1][0] - pts[-2][0]
        step_y = pts[-1][1] - pts[-2][1]
        if k > EXTRAPOLATION_CAP_FACTOR * n or step_x * step_x + step_y * step_y <= 1e-30:
            return None
        x = pts[-1][0] + k * step_x
        y = pts[-1][1] + k * step_y
        return (x, y) if x * x + y * y <= 1.0 + COVERAGE_SLACK else None

    start = 0
    if delayed_first:
        for j in range(n - 1, -1, -1):
            if near(pts[j], pts[0]):
                start = j
                break
    centers = [pts[start]]
    overlaps: list[Sequence[float]] = []
    extrapolated = False

    anchor = pts[0]
    i = 1
    while i < n:
        p = pts[i]
        if near(p, centers[-1]):
            anchor = p
            i += 1
            continue
        if any(near(p, c) for c in centers[:-1]):
            i += 1
            continue
        if not near(p, anchor):
            # The anchor went stale behind an older beam; the immediate
            # predecessor is always covered and always within spacing of p.
            anchor = pts[i - 1]
        pending = [p]
        lock = p
        j = i + 1
        while True:
            cand = pts[j] if j < n else extended(j)
            if cand is None or not near(cand, anchor) or not all(near(cand, q) for q in pending):
                break
            lock = cand
            if j < n and not any(near(cand, c) for c in centers):
                pending.append(cand)
            j += 1
        centers.append(lock)
        overlaps.append(anchor)
        extrapolated = j > n
        anchor = lock
        i = min(j, n)
    return CoverResult(
        tuple(UvPoint(c[0], c[1]) for c in centers),
        tuple(UvPoint(o[0], o[1]) for o in overlaps),
        extrapolated,
    )


def phase_sync(
    awvs: Sequence[Awv],
    overlap_points: Sequence[UvPoint],
    layout: SubArrayLayout,
) -> tuple[tuple[complex, ...], tuple[int, ...]]:
    """Unit shifts aligning each beam's phase with its predecessor at the overlap.

    ``awvs`` holds each beam's group-local weights, in beam order.

    Coefficients are evaluated in group-local coordinates at the layout's
    effective pitch, so reinforced beams (several groups, identical local
    weights) and single-group beams sync identically. Shifts accumulate down
    the chain: beam k+1 is compared against the already-shifted beam k. The
    first beam is never shifted. Pairs whose coefficient magnitude vanishes at
    the overlap have no usable phase; they keep a unit shift and are reported
    in the second return value.
    """
    if len(overlap_points) != max(len(awvs) - 1, 0):
        raise ValueError("expected exactly one overlap point between adjacent beams")
    shifts: list[complex] = [complex(1.0, 0.0)]
    skipped: list[int] = []
    for k, overlap in enumerate(overlap_points):
        prev = shifts[k] * array_coefficient(awvs[k], overlap, layout.spacing_wl)
        nxt = array_coefficient(awvs[k + 1], overlap, layout.spacing_wl)
        if abs(prev) < SYNC_MAGNITUDE_FLOOR or abs(nxt) < SYNC_MAGNITUDE_FLOOR:
            shifts.append(complex(1.0, 0.0))
            skipped.append(k)
            continue
        shifts.append((prev / abs(prev)) * (abs(nxt) / nxt))
    return tuple(shifts), tuple(skipped)


def sample_count_error() -> ConfigError:
    return ConfigError(f"n_samples must be between 2 and {MAX_TRAJECTORY_SAMPLES}")


def plan_trajectory(
    q1: Quaternion,
    q2: Quaternion,
    ap_dir: UvPoint,
    cfg: ArrayConfig,
    interleave: int = 4,
    n_samples: int | None = None,
) -> Trajectory:
    """Sample the apparent AP path densely enough for coverage planning.

    A fixed ``n_samples`` is taken as given. Otherwise a 64-sample probe
    estimates the path length and the quadrant-split depth; if a tenth of the
    resulting beam width needs finer spacing, the path is resampled at that
    density. Either count is a config error beyond ``MAX_TRAJECTORY_SAMPLES``.
    """
    if n_samples is not None:
        if n_samples > MAX_TRAJECTORY_SAMPLES:
            raise sample_count_error()
        return sample_trajectory(q1, q2, ap_dir, n_samples)
    width = partition_interleaved(cfg, interleave).beam_width
    probe = sample_trajectory(q1, q2, ap_dir, MIN_TRAJECTORY_SAMPLES)
    length = trajectory_length(probe)
    s = subdivision_level(length, width, interleave)
    steps = length / (width * 2.0**s / SAMPLES_PER_BEAMWIDTH)
    if steps > MAX_TRAJECTORY_SAMPLES - 1:
        raise ConfigError(
            f"the path needs more than {MAX_TRAJECTORY_SAMPLES} samples at a tenth of the beam width;"
            " use a smaller array or array.spacing_wavelengths"
        )
    n = max(MIN_TRAJECTORY_SAMPLES, math.ceil(steps) + 1)
    if n == MIN_TRAJECTORY_SAMPLES:
        return probe
    return sample_trajectory(q1, q2, ap_dir, n)


def plan_geometry(
    traj: Trajectory, cfg: ArrayConfig, *, interleave: int = 4, delayed_first: bool = False
) -> BeamPlan:
    """Cover a sampled path: split depth, beam centers, group allocation; no weights.

    The split depth starts from the path length. The placed beam count is
    authoritative: if it exceeds the group budget the split depth is raised
    and coverage rerun. Every shift stays 1 until synthesize_plan.
    """
    layout = partition_interleaved(cfg, interleave)
    length = trajectory_length(traj)
    for _ in range(subdivision_level(length, layout.beam_width, interleave)):
        layout = partition_localized(layout)
    while True:
        cover = cover_points(traj, layout.half_width, delayed_first=delayed_first)
        if len(cover.centers) <= layout.n_sub:
            break
        layout = partition_localized(layout)
    return BeamPlan(
        beam_centers=cover.centers,
        overlap_points=cover.overlaps,
        sync_shifts=(complex(1.0, 0.0),) * len(cover.centers),
        layout=layout,
        assignment=allocate_sub_arrays(len(cover.centers), layout.n_sub),
        trajectory=traj,
        extrapolated=cover.extrapolated,
        sync_skipped=(),
    )


def synthesize_plan(
    plan: BeamPlan, sync_override: Callable[[int], Sequence[complex]] | None = None
) -> tuple[Awv, BeamPlan]:
    """Steer a plan's beams, sync them and compose one full-array weight vector.

    The plan's own shifts are never read; the returned plan carries the ones
    composed with. sync_override, called with the beam count, replaces the
    computed shifts with one unit phasor per beam, the first included.
    """
    layout = plan.layout
    shape = (layout.side_x, layout.side_y)
    awvs = [steering_weights(shape, layout.spacing_wl, center) for center in plan.beam_centers]
    if sync_override is not None:
        shifts = tuple(complex(v) for v in sync_override(len(awvs)))
        if len(shifts) != len(awvs):
            raise ValueError(f"expected {len(awvs)} shift overrides, got {len(shifts)}")
        if any(abs(abs(v) - 1.0) > 1e-9 for v in shifts):
            raise ValueError("shift overrides must be unit phasors")
        skipped: tuple[int, ...] = ()
    else:
        shifts, skipped = phase_sync(awvs, plan.overlap_points, layout)

    sub_awvs: list[Awv | None] = [None] * layout.n_sub
    sub_shifts = np.zeros(layout.n_sub, dtype=complex)
    for subs, center, weights, shift in zip(plan.assignment, plan.beam_centers, awvs, shifts):
        for sidx in subs:
            sub_awvs[sidx] = weights
            sub_shifts[sidx] = shift * origin_phase_correction(layout, sidx, center)
    awv = compose_full_awv(sub_awvs, sub_shifts, layout)
    return awv, replace(plan, sync_shifts=shifts, sync_skipped=skipped)


def covrage_plan(
    q1: Quaternion,
    q2: Quaternion,
    ap_dir: UvPoint,
    cfg: ArrayConfig,
    *,
    interleave: int = 4,
    n_samples: int | None = None,
    delayed_first: bool = False,
    sync_override: Callable[[int], Sequence[complex]] | None = None,
) -> tuple[Awv, BeamPlan]:
    """Full pipeline from an orientation pair to a composed weight vector.

    Samples the apparent AP trajectory, covers it (plan_geometry), then
    synchronizes adjacent beams and composes everything into one full-array
    weight vector (synthesize_plan).
    """
    traj = plan_trajectory(q1, q2, ap_dir, cfg, interleave, n_samples)
    plan = plan_geometry(traj, cfg, interleave=interleave, delayed_first=delayed_first)
    return synthesize_plan(plan, sync_override)
