"""Coverage planning against index-arithmetic and scatter oracles."""

import cmath
import dataclasses
import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covrage import array_model, planner
from covrage.array_model import (
    ArrayConfig,
    array_coefficient,
    beamwidth_uv,
    coefficient_points,
    partition_interleaved,
    partition_localized,
    steering_stack,
    steering_weights,
)
from covrage.errors import ConfigError
from covrage.geometry import DISC_SLACK, Quaternion, Trajectory, UvPoint, hamilton_product, sample_trajectory
from covrage.planner import (
    COVERAGE_SLACK,
    EXTRAPOLATION_CAP_FACTOR,
    MAX_TRAJECTORY_SAMPLES,
    SYNC_MAGNITUDE_FLOOR,
    BeamPlan,
    CoverResult,
    allocate_sub_arrays,
    cover_points,
    covrage_plan,
    phase_sync,
    plan_geometry,
    plan_trajectory,
    subdivision_level,
    synthesize_plan,
)
from test_array_model import element_images, origin_phase_correction
from test_geometry import reference_sample_trajectory

W16 = beamwidth_uv(16, 0.5)  # 0.11075

# ---------------------------------------------------------------------------
# Oracle: coverage of evenly spaced samples on a straight line reduces to
# integer arithmetic. With r = floor(half_width / step) samples per radius,
# beam k sits at sample index 2kr, the overlap with its successor at (2k+1)r,
# and beams keep landing every 2r indices (virtually, past the end) until the
# last real sample is within r of a beam.


def line_cover_indices(n: int, r: int, delayed: bool = False) -> tuple[list[int], list[int], bool]:
    centers = [r if delayed else 0]
    overlaps = []
    while centers[-1] + r < n - 1:
        overlaps.append(centers[-1] + r)
        centers.append(centers[-1] + 2 * r)
    return centers, overlaps, centers[-1] > n - 1


def line_points(n: int, length: float) -> Trajectory:
    return Trajectory([(length * k / (n - 1), 0.0) for k in range(n)])


def beams_needed(path_length: float, beam_width: float) -> int:
    """Beams covering a straight path: one extra half-width pads the start."""
    return math.ceil((path_length + 0.5 * beam_width) / beam_width)


# ---------------------------------------------------------------------------
# Beam counts and split depth


def test_subdivision_level_examples():
    assert subdivision_level(0.3, W16, 4) == 0
    assert subdivision_level(3.0, W16, 4) == 1
    assert subdivision_level(20.0, W16, 4) == 2


def test_subdivision_level_boundary():
    # Capacity at depth 0 is exactly (4 - 0.5) widths.
    assert subdivision_level(3.5 * W16, W16, 4) == 0
    assert subdivision_level(3.5 * W16 + 1e-9, W16, 4) == 1


@given(st.floats(0.0, 5.0))
def test_subdivision_capacity_is_sufficient(length):
    s = subdivision_level(length, W16, 4)
    width = W16 * 2.0**s
    assert beams_needed(length, width) <= 4 * 4.0**s
    if s > 0:
        assert beams_needed(length, W16 * 2.0 ** (s - 1)) > 4 * 4.0 ** (s - 1)


def test_allocate_four_group_table():
    assert allocate_sub_arrays(1, 4) == ((0, 1, 2, 3),)
    assert allocate_sub_arrays(2, 4) == ((0, 3), (1, 2))
    assert allocate_sub_arrays(3, 4) == ((0, 3), (1,), (2,))
    assert allocate_sub_arrays(4, 4) == ((0,), (1,), (2,), (3,))


def test_allocate_spreads_spares_round_robin():
    got = allocate_sub_arrays(3, 16)
    assert got == ((0, 3, 6, 9, 12, 15), (1, 4, 7, 10, 13), (2, 5, 8, 11, 14))
    flat = sorted(g for beam in got for g in beam)
    assert flat == list(range(16))


def test_allocate_validation():
    with pytest.raises(ValueError):
        allocate_sub_arrays(5, 4)
    with pytest.raises(ValueError):
        allocate_sub_arrays(0, 4)


def reference_allocate_sub_arrays(n_beams: int, n_groups: int) -> tuple[tuple[int, ...], ...]:
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


@pytest.mark.parametrize("n_groups", [1, 4, 16, 64, 256, 1024])
def test_allocate_equals_table_and_round_robin_reference(n_groups):
    # Every group count a layout of interleave 1, 4, 16 or 64 reaches within
    # two splits, with every beam count it can hold.
    for n_beams in range(1, n_groups + 1):
        assert allocate_sub_arrays(n_beams, n_groups) == reference_allocate_sub_arrays(n_beams, n_groups)


# ---------------------------------------------------------------------------
# cover_points


def test_cover_single_point():
    res = cover_points(Trajectory([[0.1, 0.2]]), 0.05)
    assert res.centers == (UvPoint(0.1, 0.2),)
    assert res.overlaps == ()
    assert not res.extrapolated


def test_cover_short_path_one_beam():
    pts = line_points(10, 0.04)
    res = cover_points(pts, 0.0554)
    assert res.centers == (pts[0],)
    assert res.overlaps == ()


def test_cover_collinear_64_frozen():
    # 64 samples over 0.3: 11 samples per beam radius, centers every 22.
    pts = line_points(64, 0.3)
    res = cover_points(pts, 0.0554)
    step = 0.3 / 63
    assert [p.u for p in res.centers] == pytest.approx(
        [0.0, 22 * step, 44 * step, 66 * step], abs=1e-12
    )
    assert [p.u for p in res.overlaps] == pytest.approx(
        [11 * step, 33 * step, 55 * step], abs=1e-12
    )
    assert all(p.v == 0.0 for p in res.centers)
    assert res.extrapolated  # index 66 lies past the last real sample (63)


def test_cover_collinear_dense_matches_continuum():
    # Fine sampling converges to centers one beamwidth apart, the last beyond
    # the path end, with overlaps at the half-width crossings.
    pts = line_points(601, 0.3)
    res = cover_points(pts, 0.0554)
    assert [p.u for p in res.centers] == pytest.approx([0.0, 0.11, 0.22, 0.33], abs=1e-12)
    assert [p.u for p in res.overlaps] == pytest.approx([0.055, 0.165, 0.275], abs=1e-12)
    assert [p.u for p in res.centers] == pytest.approx([0.0, 0.1106, 0.2212, 0.3318], abs=0.004)
    assert [p.u for p in res.overlaps] == pytest.approx([0.0554, 0.166, 0.277], abs=0.004)
    assert res.extrapolated


@pytest.mark.parametrize("n", [17, 50, 64, 128, 377])
@pytest.mark.parametrize("radius_samples", [3, 7, 11])
def test_cover_line_matches_index_oracle(n, radius_samples):
    length = 0.3
    step = length / (n - 1)
    half = (radius_samples + 0.37) * step  # keep floor() away from exact ties
    if half >= 2.0 * length:
        pytest.skip("single-beam case covered elsewhere")
    pts = line_points(n, length)
    res = cover_points(pts, half)
    r = radius_samples
    want_c, want_o, want_x = line_cover_indices(n, r)
    assert [p.u for p in res.centers] == pytest.approx([i * step for i in want_c], abs=1e-12)
    assert [p.u for p in res.overlaps] == pytest.approx([i * step for i in want_o], abs=1e-12)
    assert res.extrapolated == want_x


def test_cover_delayed_first_frozen():
    pts = line_points(64, 0.3)
    step = 0.3 / 63
    res = cover_points(pts, 0.0554, delayed_first=True)
    assert [p.u for p in res.centers] == pytest.approx([11 * step, 33 * step, 55 * step], abs=1e-12)
    # The start must still be covered by the (delayed) first beam.
    assert res.centers[0].u <= 0.0554 + 1e-9
    assert not res.extrapolated


def test_last_covering_is_the_last_sample_in_the_closed_disc():
    # Out past the disc, back inside it, then out again: the return counts. The
    # disc's radius is half_width plus COVERAGE_SLACK, boundary included.
    traj = Trajectory([[0.0, 0.0], [0.25, 0.0], [0.6, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0]])
    assert planner.last_covering(traj, 0.25) == 3
    assert (0.5 - COVERAGE_SLACK) + COVERAGE_SLACK == 0.5
    assert planner.last_covering(traj, 0.5 - COVERAGE_SLACK) == 4
    assert planner.last_covering(traj, 0.5 - 2 * COVERAGE_SLACK) == 3
    assert planner.last_covering(traj, 0.1) == 0
    assert planner.last_covering(traj, 1e300) == 5


def test_coverage_slack_absorbs_rounding_only():
    # A sample 1e-10 past the disc's rim is outside it: the slack absorbs rounding only.
    h = 0.05
    assert planner.last_covering(Trajectory([[0.0, 0.0], [h + 1e-10, 0.0]]), h) == 0


def test_tail_extension_stops_at_four_times_the_sample_count():
    # The beam after the first locks where the extended path leaves its anchor's
    # disc, about 0.4h past the last sample; the final step is 0.001h, so the cap of
    # 4 * 4 = 16 steps comes first.
    h = 0.05
    u = [0.0, 0.9 * h, 1.5 * h, 1.5 * h + 0.001 * h]
    res = cover_points(Trajectory([[x, 0.0] for x in u]), h)
    assert res.extrapolated
    assert len(res.centers) == 2
    assert (res.centers[-1].u - u[-1]) / (u[-1] - u[-2]) == pytest.approx(16.0, abs=1e-6)


def test_cover_delayed_first_matches_index_oracle():
    n, r = 101, 9
    step = 0.3 / (n - 1)
    half = (r + 0.4) * step
    res = cover_points(line_points(n, 0.3), half, delayed_first=True)
    want_c, want_o, want_x = line_cover_indices(n, r, delayed=True)
    assert [p.u for p in res.centers] == pytest.approx([i * step for i in want_c], abs=1e-12)
    assert [p.u for p in res.overlaps] == pytest.approx([i * step for i in want_o], abs=1e-12)
    assert res.extrapolated == want_x


def test_cover_tail_extension_covers_all_original_points():
    # A path whose tail ends just past a beam edge forces extrapolation: with
    # 15 samples per radius and 80 samples, the last lock lands at virtual
    # index 90, past the final real sample at 79.
    n, r = 80, 15
    step = 0.25 / (n - 1)
    half = (r + 0.37) * step
    pts = line_points(n, 0.25)
    res = cover_points(pts, half)
    assert res.extrapolated
    for p in pts:
        assert min(math.hypot(p.u - c.u, p.v - c.v) for c in res.centers) <= half + 1e-9
    # Extended centers continue the final step direction: along +u here.
    assert res.centers[-1].v == pytest.approx(0.0, abs=1e-12)
    assert res.centers[-1].u > pts[-1].u
    assert res.centers[-1].u == pytest.approx(90 * step, abs=1e-12)


def test_cover_spacing_precondition():
    pts = Trajectory([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]])
    with pytest.raises(ValueError, match="spacing"):
        cover_points(pts, 0.05)


def test_cover_empty_and_bad_width():
    with pytest.raises(ValueError):
        cover_points(Trajectory([]), 0.05)
    with pytest.raises(ValueError):
        cover_points(Trajectory([[0.0, 0.0]]), 0.0)


def test_cover_extension_stops_at_unit_disc():
    # Straight run toward the rim: extension may not place centers outside it.
    n = 120
    pts = Trajectory([(0.70 + 0.28 * k / (n - 1), 0.0) for k in range(n)])
    res = cover_points(pts, 0.012)
    for c in res.centers:
        assert c.u * c.u + c.v * c.v <= 1.0 + 1e-9


def test_cover_extension_stops_at_the_disc_uv_points_accept(monkeypatch):
    # The extension stop and UvPoint share one unit-disc slack, so a wider
    # coverage slack cannot let the walk lock a centre UvPoint rejects. This
    # radial path's last step is 1e-9, so its extension creeps past the rim.
    monkeypatch.setattr(planner, "COVERAGE_SLACK", 1e-6)
    u = [*np.linspace(0.96025, 1.0 - 2e-8, 400), 1.0 - 1.9e-8]
    res = cover_points(Trajectory([(x, 0.0) for x in u]), 0.02)
    assert res.extrapolated
    assert all(c.u * c.u + c.v * c.v <= 1.0 + DISC_SLACK for c in res.centers)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_cover_random_arcs_every_sample_covered(seed):
    rng = np.random.default_rng(seed)
    # Gentle random arc: random start, slowly turning heading.
    x, y = rng.uniform(-0.3, 0.3, size=2)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    turn = rng.uniform(-0.02, 0.02)
    step = rng.uniform(0.001, 0.004)
    rows = []
    for _ in range(rng.integers(2, 150)):
        rows.append((x, y))
        heading += turn
        x += step * math.cos(heading)
        y += step * math.sin(heading)
    pts = Trajectory(rows)
    half = rng.uniform(0.02, 0.08)
    res = cover_points(pts, half)
    for p in pts:
        assert min(math.hypot(p.u - c.u, p.v - c.v) for c in res.centers) <= half + 1e-9
    # Overlap points must sit inside both adjacent beams' discs.
    for k, o in enumerate(res.overlaps):
        for c in (res.centers[k], res.centers[k + 1]):
            assert math.hypot(o.u - c.u, o.v - c.v) <= half + 1e-9


def axis_pattern_db(n: int, spacing_wl: float, delta: np.ndarray) -> np.ndarray:
    """One axis of a uniform n-element group's power pattern, delta off its aim, relative to its peak."""
    x = np.pi * spacing_wl * delta
    s = np.sin(x)
    away = np.abs(s) > 1e-12
    r = np.where(away, np.sin(n * x) / np.where(away, n * s, 1.0), 1.0)
    return 10.0 * np.log10(np.maximum(r * r, 1e-30))


# HALF_POWER_CONSTANT rounds a long group's half-power width, 0.8859, up to
# 0.886, so a sample on the coverage rim along one axis reads down to -3.0112 dB
# on its beam; a shorter group has a wider beam and reads higher.
HALF_POWER_TOLERANCE_DB = 0.01


@settings(max_examples=40)
@given(
    sides=st.lists(st.sampled_from(range(16, 65, 8)), min_size=2, max_size=2, unique=True),
    interleave=st.sampled_from([4, 16]),
    axis=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
        lambda a: math.hypot(*a) > 0.1
    ),
    angle=st.floats(0.05, 0.6),
    ap=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
)
def test_non_square_coverage_stays_inside_the_half_power_contour(sides, interleave, axis, angle, ap):
    # A group's narrower axis beam comes from its longer side. A disc sized by
    # the wider one leaves samples many nulls off their beam along the long axis.
    cfg = ArrayConfig(*sides)
    q2 = Quaternion.from_axis_angle(axis, angle)
    traj = plan_trajectory(Quaternion.identity(), q2, UvPoint(*ap), cfg, interleave)
    plan = plan_geometry(traj, cfg, interleave=interleave)
    layout = plan.layout
    delta = np.array([(c.u, c.v) for c in plan.beam_centers])[None, :, :] - traj.uv[:, None, :]
    covering = (delta**2).sum(axis=2) <= (layout.half_width + COVERAGE_SLACK) ** 2
    db = axis_pattern_db(layout.side_x, layout.spacing_wl, delta[..., 0])
    db += axis_pattern_db(layout.side_y, layout.spacing_wl, delta[..., 1])
    best = np.where(covering, db, -np.inf).max(axis=1)
    assert best.min() >= 10.0 * math.log10(0.5) - HALF_POWER_TOLERANCE_DB


# ---------------------------------------------------------------------------
# Oracle: the walk as it stood before it became one candidate loop over the
# extended path, kept verbatim. Every input must give the same CoverResult or
# the same ValueError message.


def reference_cover_points(trajectory: Trajectory, half_width: float, *, delayed_first: bool = False) -> CoverResult:
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
            raise ValueError(
                f"sample spacing at index {k} is not below the coverage half-width; use a larger n_samples"
            )

    start = 0
    if delayed_first:
        for j in range(n - 1, -1, -1):
            if near(pts[j], pts[0]):
                start = j
                break
    centers = [pts[start]]
    overlaps: list[Sequence[float]] = []
    extrapolated = False

    if n >= 2:
        step_x = pts[-1][0] - pts[-2][0]
        step_y = pts[-1][1] - pts[-2][1]
    else:
        step_x = step_y = 0.0
    has_step = step_x * step_x + step_y * step_y > 1e-30
    max_extension = EXTRAPOLATION_CAP_FACTOR * n

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
        pending: list[Sequence[float]] = []
        lock: Sequence[float] | None = None
        lock_is_extension = False
        consumed = i
        j = i
        while True:
            if j < n:
                cand = pts[j]
                is_extension = False
            else:
                k = j - n
                if not has_step or k >= max_extension:
                    break
                cand = (pts[-1][0] + (k + 1) * step_x, pts[-1][1] + (k + 1) * step_y)
                if cand[0] * cand[0] + cand[1] * cand[1] > 1.0 + DISC_SLACK:
                    break
                is_extension = True
            if not near(cand, anchor):
                break
            if not all(near(cand, q) for q in pending):
                break
            lock = cand
            lock_is_extension = is_extension
            if not is_extension:
                if not any(near(cand, c) for c in centers):
                    pending.append(cand)
                consumed = j + 1
            j += 1
        assert lock is not None  # the first candidate always satisfies both checks
        centers.append(lock)
        overlaps.append(anchor)
        if lock_is_extension:
            extrapolated = True
        anchor = lock
        i = consumed
    return CoverResult(
        tuple(UvPoint(c[0], c[1]) for c in centers),
        tuple(UvPoint(o[0], o[1]) for o in overlaps),
        extrapolated,
    )


@st.composite
def cover_inputs(draw):
    """A curved or looping walk, grown backwards from a chosen final sample and step.

    The tail kind fixes the final step: a free turn, one pointing straight out
    at the unit disc, a tiny one that runs the extension into its cap, or a zero
    one. A walk turns back at the rim and stops early if it still leaves the disc.
    """
    half = draw(st.one_of(st.floats(0.002, 0.3), st.floats(0.3, 2.5)))
    n = 61 - draw(st.integers(1, 60))  # counted down: the simplest draw is the longest walk
    tail = draw(st.sampled_from(["free", "outward", "tiny", "zero"]))
    # An outward tail ends within a half-width of the rim, so the disc can stop it.
    r_end = 1.0 - draw(st.floats(1e-4, 1.0)) * (min(half, 1.0) if tail == "outward" else 1.0)
    phi_end = draw(st.floats(0.0, 2.0 * math.pi))
    heading = phi_end if tail == "outward" else draw(st.floats(0.0, 2.0 * math.pi))
    step = draw(st.floats(0.02, 1.02)) * min(half, 0.5)
    turn = draw(st.one_of(st.floats(-0.1, 0.1), st.floats(-1.5, 1.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    last = {"free": 1.0, "outward": 1.0, "tiny": draw(st.floats(1e-6, 1e-3)), "zero": 0.0}[tail]
    x, y = r_end * math.cos(phi_end), r_end * math.sin(phi_end)
    rows = [(x, y)]
    s = step * last
    for _ in range(n - 1):
        dx, dy = s * math.cos(heading), s * math.sin(heading)
        if (x - dx) ** 2 + (y - dy) ** 2 > 1.0:
            heading += math.pi  # turn back from the rim
            dx, dy = -dx, -dy
        x, y = x - dx, y - dy
        if x * x + y * y > 1.0:
            break
        rows.append((x, y))
        heading -= turn + rng.normal(0.0, 0.1)
        s = step * rng.uniform(0.5, 1.0)
    return Trajectory(rows[::-1]), half, draw(st.booleans())


def cover_outcome(cover, trajectory, half_width, delayed_first):
    try:
        return cover(trajectory, half_width, delayed_first=delayed_first)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=1000)
@given(cover_inputs())
def test_cover_matches_reference_walk(inputs):
    assert cover_outcome(cover_points, *inputs) == cover_outcome(reference_cover_points, *inputs)


def half_width_for_radius(r: float) -> float:
    """The half-width whose closed disc has radius exactly r (r < 2), slack included."""
    half = r - COVERAGE_SLACK
    while half + COVERAGE_SLACK < r:
        half = math.nextafter(half, math.inf)
    while half + COVERAGE_SLACK > r:
        half = math.nextafter(half, -math.inf)
    assert planner._radius2(half) == r * r
    return half


@st.composite
def long_cover_inputs(draw):
    """A walk of up to 400 short steps, so pending sets grow past what cover_inputs reaches.

    A snapped walk sits on a lattice of an eighth of a dyadic disc radius, on
    which every coordinate difference and square is exact: eight lattice steps
    along an axis are exactly the radius, so box corners fall on the rim.
    """
    snap = draw(st.booleans())
    half = draw(st.floats(0.005, 0.3))
    if snap:
        radius = max(round(half * 1024), 5) / 1024
        half = half_width_for_radius(radius)
    n = 401 - draw(st.integers(1, 400))  # counted down: the simplest draw is the longest walk
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = half * draw(st.floats(0.03, 0.4))
    wobble = draw(st.floats(0.0, 1.0))
    turn = draw(st.floats(-0.5, 0.5))
    heading = draw(st.floats(0.0, 2.0 * math.pi)) + np.cumsum(turn + rng.normal(0.0, wobble, n))
    steps = step * np.column_stack([np.cos(heading), np.sin(heading)])
    xy = rng.uniform(-0.5, 0.5, 2) + np.cumsum(steps, axis=0)
    outside = np.flatnonzero(xy[:, 0] * xy[:, 0] + xy[:, 1] * xy[:, 1] > 1.0)
    xy = xy[: outside[0] if outside.size else n]  # a walk that leaves the disc stops there
    if snap:
        grid = radius / 8
        xy = np.trunc(xy / grid) * grid  # toward zero, so no sample leaves the disc
    return Trajectory(xy if len(xy) else [[0.0, 0.0]]), half, draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(long_cover_inputs())
def test_cover_matches_reference_on_long_walks(inputs):
    assert cover_outcome(cover_points, *inputs) == cover_outcome(reference_cover_points, *inputs)


def recorded_scans(monkeypatch) -> list[bool]:
    """The results of the cover walk's fallback scans, in call order."""
    results: list[bool] = []
    scan = planner._all_within

    def record(*args):
        results.append(scan(*args))
        return results[-1]

    monkeypatch.setattr(planner, "_all_within", record)
    return results


G = 2.0**-8  # lattice step; the disc radius below is 8 * G, and all arithmetic on it is exact


def test_cover_box_accepts_a_tie_on_the_rim_without_a_scan(monkeypatch):
    # Out to 10 and back to 1 along u. The second beam's pending samples are
    # 9, 10 and 9 again; candidate 2 is exactly the radius from 10, the box's
    # far end, so the closed box test takes it. Candidate 1 fails the box and
    # then the scan, which ends the walk.
    traj = Trajectory([(k * G, 0.0) for k in [*range(11), *range(9, 0, -1)]])
    half = half_width_for_radius(8 * G)
    scans = recorded_scans(monkeypatch)
    res = cover_points(traj, half)
    assert res == reference_cover_points(traj, half)
    assert [c.u / G for c in res.centers] == [0, 2]
    assert scans == [False]


def test_cover_scan_accepts_what_the_box_refuses(monkeypatch):
    # An L of pending samples: along u from 9 to 12, up to (12, 4), back down
    # and on to the lower right. At (14, -3) the box's far corner (9, 4) is no
    # sample and lies outside the disc, while every sample is inside it: the
    # scan must accept. (15, -4) is out of the anchor's disc.
    rows = [(k, 0) for k in range(13)] + [(12, k) for k in [1, 2, 3, 4, 3, 2, 1, 0, -1]]
    rows += [(13, -2), (14, -3), (15, -4)]
    traj = Trajectory([(x * G, y * G) for x, y in rows])
    half = half_width_for_radius(8 * G)
    scans = recorded_scans(monkeypatch)
    res = cover_points(traj, half)
    assert res == reference_cover_points(traj, half)
    assert (res.centers[1].u / G, res.centers[1].v / G) == (14, -3)
    assert scans == [True]


def test_cover_straight_line_scans_at_most_once_per_beam(monkeypatch):
    # On a straight line the box corner farthest from a candidate is a sample,
    # so the box decides every candidate the scan would pass.
    traj = Trajectory([(-0.2 + 0.4 * k / 255, 0.1 - 0.25 * k / 255) for k in range(256)])
    scans = recorded_scans(monkeypatch)
    res = cover_points(traj, 0.02)
    assert len(res.centers) > 5
    assert len(scans) <= len(res.centers)


# ---------------------------------------------------------------------------
# phase_sync


def make_beam(center: UvPoint, layout):
    return steering_weights((layout.side_x, layout.side_y), layout.spacing_wl, center)


def test_phase_sync_identical_beams_unit_shift():
    layout = partition_interleaved(ArrayConfig(), 4)
    b = make_beam(UvPoint(0.2, 0.1), layout)
    shifts, skipped = phase_sync(np.stack([b.weights, b.weights]), [UvPoint(0.2, 0.1)], layout)
    assert shifts == (1.0 + 0.0j, 1.0 + 0.0j)
    assert skipped == ()


def test_phase_sync_aligns_phases_at_overlaps():
    layout = partition_interleaved(ArrayConfig(), 4)
    centers = [UvPoint(0.0, 0.0), UvPoint(0.1108, 0.0), UvPoint(0.2216, 0.0)]
    overlaps = [UvPoint(0.0554, 0.0), UvPoint(0.1662, 0.0)]
    beams = [make_beam(c, layout) for c in centers]
    shifts, skipped = phase_sync(np.stack([b.weights for b in beams]), overlaps, layout)
    assert skipped == ()
    assert shifts[0] == 1.0 + 0.0j
    for k, o in enumerate(overlaps):
        toward = steering_weights((layout.side_x, layout.side_y), layout.spacing_wl, o)
        prev = shifts[k] * array_coefficient(beams[k].weights[None], toward.weights[None])[0]
        nxt = shifts[k + 1] * array_coefficient(beams[k + 1].weights[None], toward.weights[None])[0]
        # Shifted coefficients agree in phase: their sum is fully constructive.
        assert abs(prev + nxt) == pytest.approx(abs(prev) + abs(nxt), abs=1e-6)
        assert cmath.phase(prev / nxt) == pytest.approx(0.0, abs=1e-9)
    for s in shifts:
        assert abs(s) == pytest.approx(1.0, abs=1e-12)


def test_phase_sync_skips_pattern_null():
    layout = partition_interleaved(ArrayConfig(), 4)
    # Broadside 16x16 at 0.5 pitch has a null at u = 0.125: no usable phase.
    beams = [make_beam(UvPoint(0.0, 0.0), layout), make_beam(UvPoint(0.25, 0.0), layout)]
    shifts, skipped = phase_sync(np.stack([b.weights for b in beams]), [UvPoint(0.125, 0.0)], layout)
    assert skipped == (0,)
    assert shifts == (1.0 + 0.0j, 1.0 + 0.0j)


@pytest.mark.parametrize("eps,skipped", [(1e-9, ()), (1e-13, (0,))])
def test_phase_sync_floor_is_a_rounding_level_magnitude(eps, skipped):
    # Two elements half a turn plus eps apart have a coefficient of magnitude
    # about eps at broadside: a phase is read down to 1e-12, not below it.
    layout = partition_interleaved(ArrayConfig(nx=2, ny=1), 1)
    ones = array_model.Awv(np.ones((2, 1)))
    near_null = array_model.Awv(np.array([[1.0], [cmath.exp(1j * (math.pi + eps))]]))
    assert phase_sync(np.stack([ones.weights, near_null.weights]), [UvPoint(0.0, 0.0)], layout)[1] == skipped


def test_phase_sync_overlap_count_validation():
    layout = partition_interleaved(ArrayConfig(), 4)
    b = make_beam(UvPoint(0.0, 0.0), layout)
    with pytest.raises(ValueError):
        phase_sync(np.stack([b.weights, b.weights]), [], layout)


# ---------------------------------------------------------------------------
# plan_trajectory sampling density


def test_plan_trajectory_short_path_uses_probe():
    q1 = Quaternion.identity()
    q2 = Quaternion.from_axis_angle((1.0, 0.0, 0.0), 0.3)
    traj = plan_trajectory(q1, q2, UvPoint(0.0, 0.0), ArrayConfig())
    assert len(traj) == 64


def test_plan_trajectory_long_path_resamples():
    # A near-half-circle sweep needs more than 64 samples at a tenth of the
    # (doubled, after one split) beam width.
    q1 = Quaternion.identity()
    q2 = Quaternion.from_axis_angle((0.0, 0.0, 1.0), 2.8)
    traj = plan_trajectory(q1, q2, UvPoint(0.62, 0.0), ArrayConfig())
    assert len(traj) > 64
    # Sample spacing stays below a tenth of the effective width.
    u, v = traj.u_array(), traj.v_array()
    spacing = np.hypot(np.diff(u), np.diff(v)).max()
    assert spacing <= 2.0 * W16 / 10.0 + 1e-9


def test_plan_trajectory_ceiling_is_the_last_count_allowed(monkeypatch):
    # The automatic count may equal the ceiling; one sample more is a config error.
    q1, q2 = Quaternion.identity(), Quaternion.from_axis_angle((0.0, 0.0, 1.0), 2.8)
    args = (q1, q2, UvPoint(0.62, 0.0), ArrayConfig())
    n = len(plan_trajectory(*args))
    monkeypatch.setattr(planner, "MAX_TRAJECTORY_SAMPLES", n)
    assert len(plan_trajectory(*args)) == n
    monkeypatch.setattr(planner, "MAX_TRAJECTORY_SAMPLES", n - 1)
    with pytest.raises(ConfigError, match=f"the path needs more than {n - 1} samples"):
        plan_trajectory(*args)


# ---------------------------------------------------------------------------
# covrage_plan end to end


def collinear_pair(length: float) -> tuple[Quaternion, Quaternion, UvPoint]:
    # Head pitch about the device x axis drags a broadside AP along the u axis.
    q1 = Quaternion.identity()
    q2 = Quaternion.from_axis_angle((1.0, 0.0, 0.0), 2.0 * math.asin(length / 2.0))
    return q1, q2, UvPoint(0.0, 0.0)


def test_covrage_plan_static_head():
    cfg = ArrayConfig()
    ap = UvPoint(0.2, -0.1)
    q = Quaternion.from_axis_angle((0.3, 0.2, 0.9), 0.4)
    awv, plan = covrage_plan(q, q, ap, cfg)
    assert plan.n_beams == 1
    assert plan.assignment == ((0, 1, 2, 3),)
    assert not plan.extrapolated
    assert plan.overlap_points == ()
    # All four groups reinforce one beam: the full aperture steered as one.
    want = steering_weights((cfg.nx, cfg.ny), cfg.spacing_wavelengths, ap)
    np.testing.assert_allclose(awv.weights, want.weights, atol=1e-9)
    c = coefficient_points(awv, ap.u, ap.v, cfg.spacing_wavelengths)[0]
    assert 20.0 * math.log10(abs(c)) == pytest.approx(60.21, abs=0.1)


def test_covrage_plan_length_03_uses_four_single_beams():
    q1, q2, ap = collinear_pair(0.3)
    awv, plan = covrage_plan(q1, q2, ap, ArrayConfig())
    assert plan.n_beams == 4
    assert [len(groups) for groups in plan.assignment] == [1, 1, 1, 1]
    assert plan.coverage is plan.layout
    assert plan.layout.subdivisions == 0
    assert plan.layout.interleave_factor == 4
    assert plan.layout.beam_width == pytest.approx(W16, abs=1e-12)
    assert awv.shape == (32, 32)
    assert len(plan.sync_shifts) == 4
    assert plan.sync_shifts[0] == 1.0 + 0.0j


def test_covrage_plan_covers_every_sample():
    q1, q2, ap = collinear_pair(0.33)
    awv, plan = covrage_plan(q1, q2, ap, ArrayConfig())
    half = plan.layout.half_width
    for p in plan.trajectory:
        assert min(math.hypot(p.u - c.u, p.v - c.v) for c in plan.beam_centers) <= half + 1e-9


def test_covrage_plan_composition_scatter_oracle():
    # Rebuild the composed weights by hand from the plan's own fields.
    cfg = ArrayConfig()
    q1, q2, ap = collinear_pair(0.3)
    awv, plan = covrage_plan(q1, q2, ap, cfg, n_samples=64)
    layout = plan.layout
    group_shift = {}
    group_beam = {}
    for b, groups in enumerate(plan.assignment):
        d = plan.beam_centers[b]
        weights = steering_weights((layout.side_x, layout.side_y), layout.spacing_wl, d)
        for g in groups:
            group_shift[g] = plan.sync_shifts[b] * origin_phase_correction(layout, g, d)
            group_beam[g] = weights
    sub_index, local_x, local_y, _ = element_images(layout)
    expected = np.empty((cfg.nx, cfg.ny), dtype=complex)
    for x in range(cfg.nx):
        for y in range(cfg.ny):
            g = sub_index[x, y]
            lx, ly = local_x[x, y], local_y[x, y]
            expected[x, y] = group_shift[g] * group_beam[g].weights[lx, ly]
    np.testing.assert_allclose(awv.weights, expected, atol=1e-12)


def test_covrage_plan_steers_at_its_own_centers_bit_for_bit():
    # The weights are a closed form of the plan alone: every group steered at
    # its beam's centre, times its beam's sync shift and its origin phasor.
    cfg = ArrayConfig(64, 64)
    rng = np.random.default_rng(41)
    for length in np.linspace(0.1, 0.37, 40):
        a = rng.uniform(0.0, 2.0 * math.pi)
        q2 = Quaternion.from_axis_angle((math.cos(a), math.sin(a), 0.0), 2.0 * math.asin(length / 2.0))
        ap = UvPoint(*rng.uniform(-0.2, 0.2, size=2))
        awv, plan = covrage_plan(Quaternion.identity(), q2, ap, cfg)
        layout = plan.layout
        m = layout.stride
        lx = np.arange(layout.side_x)[:, None]
        ly = np.arange(layout.side_y)[None, :]
        groups = np.empty((layout.n_sub, layout.side_x, layout.side_y), dtype=complex)
        shift = np.empty(layout.n_sub, dtype=complex)
        for c, sync, members in zip(plan.beam_centers, plan.sync_shifts, plan.assignment):
            arg = 2.0 * np.pi * layout.spacing_wl * (lx * c.u + ly * c.v)
            for g in members:
                groups[g] = np.cos(arg) + 1j * np.sin(arg)
                ox, oy = layout.origin(g)
                origin_arg = 2.0 * math.pi * cfg.spacing_wavelengths * (float(ox) * c.u + float(oy) * c.v)
                shift[g] = sync * complex(math.cos(origin_arg), math.sin(origin_arg))
        composed = shift[:, None, None] * groups
        want = np.empty((cfg.nx, cfg.ny), dtype=complex)
        for g in range(layout.n_sub):
            ox, oy = layout.origin(g)
            want[ox + m * lx, oy + m * ly] = composed[g]
        np.testing.assert_array_equal(awv.weights, want)


def test_covrage_plan_sync_override_callable():
    q1, q2, ap = collinear_pair(0.3)
    given_shifts = tuple(cmath.exp(1j * t) for t in (0.0, 0.4, -1.1, 2.2))
    counts = []

    def override(count):
        counts.append(count)
        return given_shifts[:count]

    _, plan = covrage_plan(q1, q2, ap, ArrayConfig(), sync_override=override)
    assert counts == [4]
    assert plan.sync_shifts == pytest.approx(given_shifts)
    assert plan.sync_skipped == ()


def test_covrage_plan_sync_override_validation():
    q1, q2, ap = collinear_pair(0.3)
    with pytest.raises(ValueError, match="expected 4"):
        covrage_plan(q1, q2, ap, ArrayConfig(), sync_override=lambda count: (1.0, 1.0))
    with pytest.raises(ValueError, match="unit"):
        covrage_plan(q1, q2, ap, ArrayConfig(), sync_override=lambda count: (1.0, 1.0, 1.0, 0.5))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="unit"):
            covrage_plan(q1, q2, ap, ArrayConfig(), sync_override=lambda count: (1.0, bad, 1.0, 1.0))


def test_covrage_plan_subdivides_long_trajectory():
    q1, q2, ap = collinear_pair(0.5)
    awv, plan = covrage_plan(q1, q2, ap, ArrayConfig())
    assert plan.layout.subdivisions == 1
    assert plan.layout.n_sub == 16
    assert plan.layout.beam_width == pytest.approx(2.0 * W16, abs=1e-12)
    assert plan.n_beams <= 16
    half = plan.layout.half_width
    for p in plan.trajectory:
        assert min(math.hypot(p.u - c.u, p.v - c.v) for c in plan.beam_centers) <= half + 1e-9


def test_covrage_plan_retry_splits_the_current_layout(monkeypatch):
    # With the depth estimate forced to 0, the cover walk drives every split:
    # 9 beams for 1 group, then 5 for 4, then 3 for 16, so two retries.
    monkeypatch.setattr(planner, "subdivision_level", lambda *args: 0)
    q1, q2, ap = collinear_pair(1.0)
    cfg = ArrayConfig()
    _, plan = covrage_plan(q1, q2, ap, cfg, interleave=1, n_samples=128)
    assert plan.layout.beam_width == pytest.approx(4.0 * beamwidth_uv(32, 0.25), abs=1e-12)
    chained = partition_localized(partition_localized(partition_interleaved(cfg, 1)))
    assert plan.layout.subdivisions == chained.subdivisions == 2
    for got, want in zip(element_images(plan.layout), element_images(chained)):
        np.testing.assert_array_equal(got, want)


def test_covrage_plan_delayed_first_moves_first_center():
    q1, q2, ap = collinear_pair(0.3)
    _, normal = covrage_plan(q1, q2, ap, ArrayConfig(), n_samples=64)
    _, delayed = covrage_plan(q1, q2, ap, ArrayConfig(), n_samples=64, delayed_first=True)
    p0 = normal.trajectory[0]
    d_normal = math.hypot(normal.beam_centers[0].u - p0.u, normal.beam_centers[0].v - p0.v)
    d_delayed = math.hypot(delayed.beam_centers[0].u - p0.u, delayed.beam_centers[0].v - p0.v)
    assert d_normal == pytest.approx(0.0, abs=1e-12)
    assert d_delayed > d_normal
    assert d_delayed <= delayed.layout.half_width + 1e-9


def test_covrage_plan_rejects_tiny_sample_count():
    # The same error as a count past the ceiling, and as Scenario gives.
    q1, q2, ap = collinear_pair(0.3)
    for n in (1, 0, -5):
        with pytest.raises(ConfigError, match=f"^n_samples must be between 2 and {MAX_TRAJECTORY_SAMPLES}$"):
            covrage_plan(q1, q2, ap, ArrayConfig(), n_samples=n)


def test_fixed_sample_count_past_the_ceiling_is_a_config_error(monkeypatch):
    # Refused before sampling, so nothing is allocated for the 2**20 + 1 points.
    def no_sampling(*args):
        raise AssertionError("sampled a path past the ceiling")

    monkeypatch.setattr(planner, "sample_trajectory", no_sampling)
    q1, q2, ap = collinear_pair(0.3)
    message = f"n_samples must be between 2 and {MAX_TRAJECTORY_SAMPLES}"
    with pytest.raises(ConfigError, match=message):
        plan_trajectory(q1, q2, ap, ArrayConfig(), n_samples=MAX_TRAJECTORY_SAMPLES + 1)
    with pytest.raises(ConfigError, match=message):
        covrage_plan(q1, q2, ap, ArrayConfig(), n_samples=MAX_TRAJECTORY_SAMPLES + 1)


# ---------------------------------------------------------------------------
# One plan record: plan_geometry decides, synthesize_plan makes the weights


def counted_steering(monkeypatch) -> list[list[UvPoint]]:
    """The points of each steering_stack call, in planner or array_model, in call order."""
    calls = []

    def counting(shape, spacing_wl, points):
        calls.append(list(points))
        return steering_stack(shape, spacing_wl, points)

    monkeypatch.setattr(planner, "steering_stack", counting)
    monkeypatch.setattr(array_model, "steering_stack", counting)
    return calls


@pytest.mark.parametrize("no_sync", [False, True], ids=["synced", "override"])
def test_only_synthesize_plan_steers(monkeypatch, no_sync):
    calls = counted_steering(monkeypatch)
    q1, q2, ap = collinear_pair(0.5)
    plan = plan_geometry(plan_trajectory(q1, q2, ap, ArrayConfig()), ArrayConfig())
    assert calls == []
    assert plan.sync_shifts == (complex(1.0, 0.0),) * plan.n_beams
    assert plan.sync_skipped == ()
    _, synced = synthesize_plan(plan, np.exp(1j * np.arange(plan.n_beams)) if no_sync else None)
    assert synced.beam_centers == plan.beam_centers
    if no_sync:
        assert calls == [list(plan.beam_centers)]  # once per beam, in beam order, in one pass
    else:
        # Then once per overlap, shared by the two beams that meet there, in a
        # second pass: 2B - 1 points in all.
        assert calls == [list(plan.beam_centers), list(plan.overlap_points)]
        assert plan.n_beams > 1 and sum(map(len, calls)) == 2 * plan.n_beams - 1


# ---------------------------------------------------------------------------
# Batched synthesis against the per-beam reference


def reference_steering(shape: tuple[int, int], spacing_wl: float, direction: UvPoint) -> np.ndarray:
    """One point's steering weights, as synthesis steered each point before it steered stacks."""
    nx, ny = shape
    arg = 2.0 * np.pi * spacing_wl * (
        np.arange(nx)[:, None] * direction.u + np.arange(ny)[None, :] * direction.v
    )
    w = np.empty((nx, ny), dtype=complex)
    np.cos(arg, out=w.real)
    np.sin(arg, out=w.imag)
    w.imag += 0.0
    return w


def reference_coefficient(weights: np.ndarray, toward: np.ndarray) -> complex:
    offset = np.conj(toward)  # named: numpy multiplies an unnamed temporary in place
    return complex((weights * offset).sum())


def reference_synthesize_plan(plan: BeamPlan, shifts=None):
    """synthesize_plan one beam and one overlap at a time, composed from a per-group list.

    Returns the weight grid, the shifts and the skipped overlaps.
    """
    layout = plan.layout
    shape = (layout.side_x, layout.side_y)
    beams = [reference_steering(shape, layout.spacing_wl, c) for c in plan.beam_centers]
    skipped = []
    if shifts is None:
        shifts = [complex(1.0, 0.0)]
        for k, overlap in enumerate(plan.overlap_points):
            toward = reference_steering(shape, layout.spacing_wl, overlap)
            prev = shifts[k] * reference_coefficient(beams[k], toward)
            nxt = reference_coefficient(beams[k + 1], toward)
            if abs(prev) < SYNC_MAGNITUDE_FLOOR or abs(nxt) < SYNC_MAGNITUDE_FLOOR:
                shifts.append(complex(1.0, 0.0))
                skipped.append(k)
                continue
            shifts.append((prev / abs(prev)) * (abs(nxt) / nxt))
    shifts = [complex(z) for z in shifts]
    groups = [None] * layout.n_sub
    group_shifts = np.zeros(layout.n_sub, dtype=complex)
    for subs, center, weights, shift in zip(plan.assignment, plan.beam_centers, beams, shifts):
        for g in subs:
            groups[g] = weights
            group_shifts[g] = shift * origin_phase_correction(layout, g, center)
    stacked = np.stack(groups)
    np.multiply(group_shifts[:, None, None], stacked, out=stacked)
    return layout.scatter(stacked), tuple(shifts), tuple(skipped)


def null_of(center: UvPoint, layout) -> UvPoint | None:
    """A point where a group steered at ``center`` has a null on both axes, if one lies in the disc."""
    du = 1.0 / (layout.side_x * layout.spacing_wl)
    dv = 1.0 / (layout.side_y * layout.spacing_wl)
    for su, sv in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        u, v = center.u + su * du, center.v + sv * dv
        if u * u + v * v <= 1.0:
            return UvPoint(u, v)
    return None


def beams_along(traj: Trajectory, layout, n_beams: int, nulls: bool) -> BeamPlan:
    """A plan of ``n_beams`` centres spread along the path; overlaps at midpoints or at nulls of the earlier beam."""
    centers = tuple(traj[int(i)] for i in np.linspace(0, len(traj) - 1, n_beams).round())
    overlaps = []
    for a, b in zip(centers, centers[1:]):
        null = null_of(a, layout) if nulls else None
        overlaps.append(null or UvPoint((a.u + b.u) / 2.0, (a.v + b.v) / 2.0))
    return BeamPlan(
        beam_centers=centers,
        overlap_points=tuple(overlaps),
        sync_shifts=(complex(1.0, 0.0),) * n_beams,
        layout=layout,
        assignment=allocate_sub_arrays(n_beams, layout.n_sub),
        trajectory=traj,
        extrapolated=False,
        sync_skipped=(),
    )


def assert_synthesis_matches_reference(plan: BeamPlan, shifts) -> BeamPlan:
    awv, synced = synthesize_plan(plan, shifts)
    want, want_shifts, want_skipped = reference_synthesize_plan(plan, shifts)
    assert awv.weights.tobytes() == want.tobytes()
    assert np.array(synced.sync_shifts).tobytes() == np.array(want_shifts).tobytes()
    assert synced.sync_skipped == want_skipped
    return synced


@st.composite
def synthesis_inputs(draw):
    interleave = draw(st.sampled_from([4, 16]))
    depth = draw(st.integers(0, 2))
    unit = math.isqrt(interleave) << depth
    nx, ny = (unit * draw(st.integers(-(-32 // unit), 256 // unit)) for _ in range(2))
    layout = partition_interleaved(ArrayConfig(nx, ny), interleave)
    for _ in range(depth):
        layout = partition_localized(layout)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q1 = Quaternion(*rng.normal(size=4))
    turn = Quaternion.from_axis_angle(rng.normal(size=3), rng.uniform(0.0, 0.6))
    ap = UvPoint(*rng.uniform(-0.2, 0.2, size=2))
    n_samples = draw(st.integers(2, 300))
    n_beams = draw(st.integers(1, min(layout.n_sub, 12)))
    nulls = draw(st.booleans())
    override = draw(st.booleans())
    shifts = np.exp(2j * np.pi * rng.uniform(size=n_beams)) if override else None
    return q1, hamilton_product(turn, q1), ap, n_samples, layout, n_beams, nulls, shifts


@settings(max_examples=200)
@given(synthesis_inputs())
def test_batched_synthesis_bit_equal_reference(inputs):
    # Weights, shifts, skips and the sampled path carry the same bits as the
    # per-beam synthesis and the np.cross trajectory they replaced.
    q1, q2, ap, n_samples, layout, n_beams, nulls, shifts = inputs
    traj = sample_trajectory(q1, q2, ap, n_samples)
    assert traj.uv.tobytes() == reference_sample_trajectory(q1, q2, ap, n_samples).uv.tobytes()
    plan = beams_along(traj, layout, n_beams, nulls)
    assert_synthesis_matches_reference(plan, shifts)


def test_batched_synthesis_reaches_the_skip_branch():
    # On 16 x 16 groups the rounding left at a null stays below the sync's
    # floor; on groups of thousands of elements it can exceed it.
    layout = partition_interleaved(ArrayConfig(), 4)
    traj = sample_trajectory(*collinear_pair(0.3), 64)
    synced = assert_synthesis_matches_reference(beams_along(traj, layout, 4, nulls=True), None)
    assert synced.sync_skipped == (0, 1, 2)
    assert synced.sync_shifts == (complex(1.0, 0.0),) * 4


@pytest.mark.parametrize(
    "interleave,no_sync",
    [
        pytest.param(4, False, id="synced"),
        pytest.param(4, True, id="override"),
        pytest.param(64, False, id="1024-groups-synced"),
        pytest.param(64, True, id="1024-groups-override"),
    ],
)
def test_batched_synthesis_bit_equal_reference_at_1024(interleave, no_sync):
    # Interleave 4 gives 64 groups of 128 x 128: from 256 KiB up numpy
    # multiplies an unnamed temporary in place, and no golden plan is this
    # large. Interleave 64 gives 1024 groups of 32 x 32, so the origin phasors
    # run over group indices up to 1023 and origins up to (775, 775).
    layout = partition_localized(partition_localized(partition_interleaved(ArrayConfig(1024, 1024), interleave)))
    n_sub, side, last_origin = {4: (64, 128, 769), 64: (1024, 32, 775)}[interleave]
    assert (layout.n_sub, layout.side_x, layout.side_y) == (n_sub, side, side)
    assert layout.origin(n_sub - 1) == (last_origin, last_origin)
    q1, q2, ap = collinear_pair(0.4)
    plan = beams_along(sample_trajectory(q1, q2, ap, 256), layout, 48, nulls=False)
    shifts = np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=48)) if no_sync else None
    assert_synthesis_matches_reference(plan, shifts)


@pytest.mark.parametrize("no_sync", [False, True], ids=["synced", "override"])
def test_synthesize_plan_peaks_at_the_beam_stack_plus_two_dense_grids(no_sync):
    # One beam per group, so the overlap stack of the sync is as large as it gets.
    # The sync holds the beams, the overlap steerings and one product at a
    # time; composition holds the beams, the per-group stack and the scattered
    # grid. Holding the overlap stack past the sync, or a third stack in it,
    # goes past this bound. Bookkeeping (shift lists, index arrays, the plan
    # record) gets 1 KiB per group.
    n = 512
    layout = partition_localized(partition_localized(partition_interleaved(ArrayConfig(n, n), 4)))
    q1, q2, ap = collinear_pair(0.4)
    plan = beams_along(sample_trajectory(q1, q2, ap, 256), layout, layout.n_sub, nulls=False)
    shifts = np.exp(1j * np.arange(plan.n_beams)) if no_sync else None
    synthesize_plan(plan, shifts)
    beams = plan.n_beams * layout.side_x * layout.side_y * 16
    dense = n * n * 16
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        synthesize_plan(plan, shifts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= beams + 2 * dense + 1024 * layout.n_sub


@pytest.mark.parametrize("no_sync", [False, True], ids=["synced", "override"])
def test_synthesize_plan_never_reads_incoming_shifts(no_sync):
    q1, q2, ap = collinear_pair(0.5)
    plan = plan_geometry(plan_trajectory(q1, q2, ap, ArrayConfig()), ArrayConfig())
    rng = np.random.default_rng(17)
    scrambled = dataclasses.replace(
        plan, sync_shifts=tuple(complex(z) for z in np.exp(2j * np.pi * rng.uniform(size=plan.n_beams)))
    )
    shifts = np.exp(1j * np.arange(plan.n_beams)) if no_sync else None
    awv, synced = synthesize_plan(plan, shifts)
    awv_scrambled, synced_scrambled = synthesize_plan(scrambled, shifts)
    assert np.array_equal(awv.weights, awv_scrambled.weights)
    assert synced.sync_shifts == synced_scrambled.sync_shifts
    assert synced.sync_skipped == synced_scrambled.sync_skipped
    assert synced == dataclasses.replace(plan, sync_shifts=synced.sync_shifts, sync_skipped=synced.sync_skipped)


def test_beam_plan_validation():
    cfg = ArrayConfig()
    layout = partition_interleaved(cfg, 4)
    traj = Trajectory([[0.0, 0.0]])
    with pytest.raises(ValueError):
        BeamPlan(
            beam_centers=(UvPoint(0.0, 0.0),),
            overlap_points=(UvPoint(0.05, 0.0),),  # one beam cannot have overlaps
            sync_shifts=(1.0 + 0.0j,),
            layout=layout,
            assignment=((0, 1, 2, 3),),
            trajectory=traj,
            extrapolated=False,
            sync_skipped=(),
        )


@settings(max_examples=10)
@given(st.integers(0, 1000))
def test_covrage_plan_random_rotations_cover(seed):
    from covrage.harness import random_head_rotation

    q1, q2 = random_head_rotation(seed, 0.25)
    awv, plan = covrage_plan(q1, q2, UvPoint(0.0, 0.0), ArrayConfig())
    half = plan.layout.half_width
    for p in plan.trajectory:
        assert min(math.hypot(p.u - c.u, p.v - c.v) for c in plan.beam_centers) <= half + 1e-9
