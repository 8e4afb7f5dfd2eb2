"""Beam planning: cover a sampled gaze trajectory with steered sub-beams.

The planner splits the aperture into interleaved groups (full-width beams),
subdivides them into quadrant blocks when the path is too long for the group
budget, walks the sampled path placing beam centers greedily so that every
sample lies in the closed disc of half a beamwidth around a center, assigns
groups to beams (reinforcing with spares), aligns the phases of adjacent beams
with one steering per overlap point, and composes the per-group weights into
one full-array weight vector. plan_geometry (up to the assignment) depends only
on the path and gives a BeamPlan with no weights; synthesize_plan steers, syncs
and composes, so plans that differ only in their shifts share one BeamPlan.
Each of those three steps is one array pass over all beams: the beam centres
are steered as one stack ``[beam, x, y]``, the overlap points as a second stack
that lives only for the sync, and composition indexes the first stack per group.

Phase alignment compares group coefficients in group-local coordinates;
``array_model.compose_full_awv`` cancels each group's origin offset at its
beam's centre, so groups aimed at one direction add up like the full aperture.

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
    partition_interleaved,
    partition_localized,
    steering_stack,
)
from .errors import ConfigError, SampleSpacingError
from .geometry import (
    DISC_SLACK,
    Quaternion,
    Trajectory,
    UvPoint,
    sample_trajectory,
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

    Beam b takes groups b, b + n_beams, b + 2 n_beams, ...: one group per beam
    in order, the spares dealt round-robin from beam 0. Two beams on four
    groups instead pair diagonally opposite partners (group offsets (0,0)+(1,1)
    and (1,0)+(0,1)), which keeps each reinforced pattern symmetric.
    """
    if n_beams < 1:
        raise ValueError("at least one beam required")
    if n_beams > n_groups:
        raise ValueError(f"{n_beams} beams exceed the {n_groups} available groups; subdivide first")
    if (n_beams, n_groups) == (2, 4):
        return ((0, 3), (1, 2))
    return tuple(tuple(range(b, n_groups, n_beams)) for b in range(n_beams))


def _radius2(half_width: float) -> float:
    # Squared closed-disc radius. No two points of the unit disc are more than 2
    # apart, so a wider radius covers the same points; the cap keeps the square finite.
    return (min(half_width, 2.0) + COVERAGE_SLACK) ** 2


def last_covering(trajectory: Trajectory, half_width: float) -> int:
    """Index of the last sample inside the closed coverage disc around the first sample."""
    d = trajectory.uv - trajectory.uv[0]
    return int(np.flatnonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= _radius2(half_width))[-1])


def _all_within(x: float, y: float, points: list[tuple[float, float]], h2: float) -> bool:
    """Whether every point lies in the closed disc of squared radius h2 around (x, y).

    The cover walk's fallback scan of its pending samples.
    """
    for px, py in points:
        dx = x - px
        dy = y - py
        if not dx * dx + dy * dy <= h2:
            return False
    return True


def _any_within(x: float, y: float, points: Sequence[Sequence[float]], h2: float) -> bool:
    """Whether some point lies in the closed disc of squared radius h2 around (x, y)."""
    for px, py in points:
        dx = x - px
        dy = y - py
        if dx * dx + dy * dy <= h2:
            return True
    return False


def cover_points(trajectory: Trajectory, half_width: float, *, delayed_first: bool = False) -> CoverResult:
    """Place beam centers so every trajectory sample lies within half_width of one.

    Walks the samples in order. The first beam sits on the first sample (or,
    with delayed_first, on the one last_covering picks). When a
    sample falls outside every placed beam, a candidate center advances along
    the remaining samples and is locked at the last position that still covers
    both the pending uncovered samples and an overlap anchor: the most recent
    sample covered by the previous beam. Each recorded overlap point is
    therefore inside both adjacent beams' discs.

    The pending test is linear per candidate at worst and usually constant: a
    candidate whose farthest corner of the pending samples' bounding box lies
    in its disc covers them all, and only a candidate that fails this test
    scans the samples one by one. The accept is exact, not an approximation:
    rounding to nearest is monotone and fl(b - a) = -fl(a - b), so no pending
    sample's rounded squared distance exceeds the corner's, given the finite
    coordinates a Trajectory holds (see the comment at the test).

    If the candidate walk runs off the end of the samples, the path is
    extended by repeating the final step vector, so the last beam can land
    ahead of the sampled motion. The extension stops at the lock condition,
    the unit disc, or EXTRAPOLATION_CAP_FACTOR times the sample count,
    whichever comes first.
    """
    if half_width <= 0.0:
        raise ValueError("half_width must be positive")
    h2 = _radius2(half_width)
    step = np.diff(trajectory.uv, axis=0)
    wide = np.flatnonzero(step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1] >= half_width * half_width)
    if wide.size:
        raise SampleSpacingError(
            f"sample spacing at index {wide[0] + 1} is not below the coverage half-width; use a larger n_samples"
        )
    pts = trajectory.uv.tolist()
    n = len(pts)

    # Extension sample k = 1, 2, ... is the last sample plus k final steps; a
    # zero step extends nothing.
    lx, ly = pts[-1]
    sx, sy = (lx - pts[-2][0], ly - pts[-2][1]) if n > 1 else (0.0, 0.0)
    reach = EXTRAPOLATION_CAP_FACTOR * n if sx * sx + sy * sy > 1e-30 else 0

    centers = [pts[last_covering(trajectory, half_width) if delayed_first else 0]]
    overlaps: list[Sequence[float]] = []
    extrapolated = False

    ax, ay = pts[0]
    i = 1
    while i < n:
        px, py = pts[i]
        cx, cy = centers[-1]
        dx = px - cx
        dy = py - cy
        if dx * dx + dy * dy <= h2:
            ax, ay = px, py
            i += 1
            continue
        if _any_within(px, py, centers[:-1], h2):
            i += 1
            continue
        dx = px - ax
        dy = py - ay
        if not dx * dx + dy * dy <= h2:
            # The anchor went stale behind an older beam; the immediate
            # predecessor is always covered and always within spacing of p.
            ax, ay = pts[i - 1]
        pending = [(px, py)]
        bx0 = bx1 = lock_x = px
        by0 = by1 = lock_y = py
        j = i + 1
        while True:
            if j < n:
                x, y = pts[j]
            else:
                k = j - n + 1
                x = lx + k * sx
                y = ly + k * sy
                if k > reach or not x * x + y * y <= 1.0 + DISC_SLACK:
                    break
            dx = x - ax
            dy = y - ay
            if not dx * dx + dy * dy <= h2:
                break
            # Box accept: the pending samples lie in [bx0, bx1] x [by0, by1], and
            # (ex, ey) reaches the box corner farthest from (x, y). Rounding to
            # nearest is monotone and fl(b - a) = -fl(a - b), so for finite
            # coordinates every pending (px, py) has |fl(x - px)| <= ex and
            # |fl(y - py)| <= ey; squaring and adding keep that order, so no
            # pending sample's rounded squared distance exceeds the corner's.
            # Passing here is passing the scan; failing it runs the scan.
            ex = x - bx0
            if ex < bx1 - x:
                ex = bx1 - x
            ey = y - by0
            if ey < by1 - y:
                ey = by1 - y
            if not ex * ex + ey * ey <= h2 and not _all_within(x, y, pending, h2):
                break
            lock_x, lock_y = x, y
            if j < n and not _any_within(x, y, centers, h2):
                pending.append((x, y))
                if x < bx0:
                    bx0 = x
                elif x > bx1:
                    bx1 = x
                if y < by0:
                    by0 = y
                elif y > by1:
                    by1 = y
            j += 1
        centers.append((lock_x, lock_y))
        overlaps.append((ax, ay))
        extrapolated = j > n
        ax, ay = lock_x, lock_y
        i = min(j, n)
    return CoverResult(
        tuple(UvPoint(c[0], c[1]) for c in centers),
        tuple(UvPoint(o[0], o[1]) for o in overlaps),
        extrapolated,
    )


def phase_sync(
    beams: np.ndarray,
    overlap_points: Sequence[UvPoint],
    layout: SubArrayLayout,
) -> tuple[tuple[complex, ...], tuple[int, ...]]:
    """Unit shifts aligning each beam's phase with its predecessor at the overlap.

    ``beams`` stacks each beam's group-local weights ``[b, x, y]``, in beam order.

    Coefficients are evaluated in group-local coordinates at the layout's
    effective pitch, so reinforced beams (several groups, identical local
    weights) and single-group beams sync identically. The overlap points are
    steered as one stack, which lives only for this call, and each side of
    every overlap is one contraction: beams ``[:-1]`` and ``[1:]`` against that
    stack. Shifts accumulate down the chain: beam k+1 is compared against the
    already-shifted beam k. The first beam is never shifted. Pairs whose
    coefficient magnitude vanishes at the overlap have no usable phase; they
    keep a unit shift and are reported in the second return value.
    """
    if len(overlap_points) != max(len(beams) - 1, 0):
        raise ValueError("expected exactly one overlap point between adjacent beams")
    shifts: list[complex] = [complex(1.0, 0.0)]
    skipped: list[int] = []
    if not overlap_points:
        return tuple(shifts), ()
    toward = steering_stack(beams.shape[1:], layout.spacing_wl, overlap_points)
    before = array_coefficient(beams[:-1], toward).tolist()
    after = array_coefficient(beams[1:], toward).tolist()
    for k, (coefficient, nxt) in enumerate(zip(before, after)):
        prev = shifts[k] * coefficient
        if abs(prev) < SYNC_MAGNITUDE_FLOOR or abs(nxt) < SYNC_MAGNITUDE_FLOOR:
            shifts.append(complex(1.0, 0.0))
            skipped.append(k)
            continue
        shifts.append((prev / abs(prev)) * (abs(nxt) / nxt))
    return tuple(shifts), tuple(skipped)


def check_sample_count(n_samples: int | None) -> None:
    if n_samples is not None and not 2 <= n_samples <= MAX_TRAJECTORY_SAMPLES:
        raise ConfigError(f"n_samples must be between 2 and {MAX_TRAJECTORY_SAMPLES}")


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
    density. A fixed count below 2, or either count beyond
    ``MAX_TRAJECTORY_SAMPLES``, is a config error.
    """
    check_sample_count(n_samples)
    if n_samples is not None:
        return sample_trajectory(q1, q2, ap_dir, n_samples)
    width = partition_interleaved(cfg, interleave).beam_width
    probe = sample_trajectory(q1, q2, ap_dir, MIN_TRAJECTORY_SAMPLES)
    s = subdivision_level(probe.length, width, interleave)
    steps = probe.length / (width * 2.0**s / SAMPLES_PER_BEAMWIDTH)
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
    if depth := subdivision_level(traj.length, layout.beam_width, interleave):
        layout = SubArrayLayout(cfg, interleave, depth)
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


def synthesize_plan(plan: BeamPlan, shifts: Sequence[complex] | None = None) -> tuple[Awv, BeamPlan]:
    """Steer a plan's beams, sync them and compose one full-array weight vector.

    The plan's own shifts are never read; the returned plan carries the ones
    composed with. ``shifts``, one unit phasor per beam, the first included,
    replaces the computed sync (compose_full_awv checks their count and units).
    """
    layout = plan.layout
    beams = steering_stack((layout.side_x, layout.side_y), layout.spacing_wl, plan.beam_centers)
    if shifts is not None:
        shifts = tuple(complex(v) for v in shifts)
        skipped: tuple[int, ...] = ()
    else:
        shifts, skipped = phase_sync(beams, plan.overlap_points, layout)
    awv = compose_full_awv(beams, plan.assignment, plan.beam_centers, shifts, layout)
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

    Samples the apparent AP trajectory, covers it (plan_geometry), then syncs
    adjacent beams, or takes sync_override(beam count) as the shifts, and
    composes one full-array weight vector (synthesize_plan).
    """
    traj = plan_trajectory(q1, q2, ap_dir, cfg, interleave, n_samples)
    plan = plan_geometry(traj, cfg, interleave=interleave, delayed_first=delayed_first)
    return synthesize_plan(plan, None if sync_override is None else sync_override(plan.n_beams))
