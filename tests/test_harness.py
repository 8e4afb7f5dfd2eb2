"""Strategy comparison harness: baselines, ablations, maps, references."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from covrage import array_model, harness
from covrage.array_model import (
    ArrayConfig,
    beamwidth_uv,
    coefficient_points,
    peak_gain,
    quantize_phases,
    steering_weights,
)
from covrage.errors import ConfigError
from covrage.geometry import Quaternion, UvPoint, sample_trajectory, trajectory_length
from covrage.harness import (
    DISPLAY_CLAMP_DBI,
    STRATEGIES,
    VARIANTS,
    Scenario,
    build_beam,
    compare_strategies,
    gain_map,
    iter_strategies,
    random_head_rotation,
    reference_scenario,
    sweep_trajectory,
)
from covrage.link_budget import LinkParams
from covrage.planner import covrage_plan, plan_geometry, plan_trajectory

W16 = beamwidth_uv(16, 0.5)


def collinear_scenario(length: float = 0.35, **kw) -> Scenario:
    angle = 2.0 * math.asin(length / 2.0)
    return Scenario(
        orientation_start=Quaternion.identity(),
        orientation_end=Quaternion.from_axis_angle((1.0, 0.0, 0.0), angle),
        ap_direction=UvPoint(0.0, 0.0),
        n_samples=128,
        **kw,
    )


def min_gain_of(sc: Scenario) -> float:
    built = build_beam(sc)
    c = coefficient_points(
        built.awv,
        built.trajectory.u_array(),
        built.trajectory.v_array(),
        sc.array.spacing_wavelengths,
    )
    power = np.abs(c) ** 2
    return float(10.0 * np.log10(power.min() + 1e-300))


# ---------------------------------------------------------------------------
# Scenario validation


def test_scenario_rejects_unknown_strategy():
    with pytest.raises(ConfigError, match="strategy"):
        Scenario(strategy="nearest")


def test_scenario_rejects_ablation_on_baselines():
    with pytest.raises(ConfigError, match="ablation"):
        Scenario(strategy="baseline-start", no_sync=True)
    with pytest.raises(ConfigError, match="ablation"):
        Scenario(strategy="baseline-mid", delayed_first=True)


def test_scenario_ablation_label_follows_ablations_order():
    assert Scenario().ablation == ""
    assert Scenario(delayed_first=True).ablation == "delayed_first"
    assert Scenario(delayed_first=True, no_sync=True).ablation == "no_sync,delayed_first"


def test_scenario_rejects_bad_counts():
    with pytest.raises(ConfigError):
        Scenario(n_samples=1)
    with pytest.raises(ConfigError):
        Scenario(phase_bits=0)


# ---------------------------------------------------------------------------
# Baseline strategies


def test_baseline_start_steers_at_first_sample():
    sc = collinear_scenario(strategy="baseline-start")
    built = build_beam(sc)
    assert built.plan is None
    want = steering_weights((32, 32), 0.25, built.trajectory[0])
    np.testing.assert_array_equal(built.awv.weights, want.weights)


def test_baseline_mid_steers_at_arc_midpoint():
    sc = collinear_scenario(strategy="baseline-mid")
    built = build_beam(sc)
    traj = built.trajectory
    u, v = traj.u_array(), traj.v_array()
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(u), np.diff(v)))])
    target = traj[int(np.argmin(np.abs(cum - cum[-1] / 2.0)))]
    want = steering_weights((32, 32), 0.25, target)
    np.testing.assert_array_equal(built.awv.weights, want.weights)


def test_baseline_edge_steers_inside_full_beam_of_start():
    sc = collinear_scenario(strategy="baseline-edge")
    built = build_beam(sc)
    # The target is the farthest sample still inside the full-array beam
    # around the start: full 32x32 aperture width at 0.25 pitch.
    full_half = beamwidth_uv(32, 0.25) / 2.0
    traj = built.trajectory
    dist = np.hypot(traj.u_array() - traj[0].u, traj.v_array() - traj[0].v)
    inside = np.nonzero(dist <= full_half + 1e-12)[0]
    target = traj[int(inside[-1])]
    want = steering_weights((32, 32), 0.25, target)
    np.testing.assert_array_equal(built.awv.weights, want.weights)


def assert_delayed_first_starts_at_edge_target(sc: Scenario) -> None:
    # At split depth 0 with interleave 4, a group's beam is as wide as the full
    # aperture's, bit for bit, so delayed_first and baseline-edge find the same
    # last sample inside the closed disc around the start.
    delayed = build_beam(dataclasses.replace(sc, delayed_first=True))
    layout = delayed.plan.layout
    assert (layout.interleave_factor, layout.subdivisions) == (4, 0)
    assert layout.half_width == array_model.partition_interleaved(sc.array, 1).half_width
    edge = dataclasses.replace(sc, strategy="baseline-edge")
    assert harness._baseline_target(edge, delayed.trajectory) == delayed.plan.beam_centers[0]


@pytest.mark.parametrize("name", ["a", "b"])
def test_delayed_first_starts_at_baseline_edge_target(name):
    assert_delayed_first_starts_at_edge_target(reference_scenario(name))


@settings(max_examples=30)
@given(
    n=st.sampled_from((16, 32, 64)),
    n_samples=st.sampled_from((None, 64, 97)),
    turn_seed=st.integers(0, 2**16),
    length=st.floats(0.01, 0.3),
)
def test_delayed_first_starts_at_baseline_edge_target_on_head_turns(n, n_samples, turn_seed, length):
    ap = UvPoint(0.1, -0.05)
    q1, q2 = random_head_rotation(turn_seed, length, ap)
    sc = Scenario(
        array=ArrayConfig(n, n), orientation_start=q1, orientation_end=q2, ap_direction=ap, n_samples=n_samples
    )
    traj = plan_trajectory(q1, q2, ap, sc.array, sc.interleave, n_samples)
    assume(plan_geometry(traj, sc.array, delayed_first=True).layout.subdivisions == 0)
    assert_delayed_first_starts_at_edge_target(sc)


def test_covrage_build_carries_plan():
    sc = collinear_scenario()
    built = build_beam(sc)
    assert built.plan is not None
    assert built.plan.n_beams == 4
    assert len(built.trajectory) == 128


def test_phase_bits_quantize_the_weights():
    sc = collinear_scenario(phase_bits=2)
    built = build_beam(sc)
    steps = np.angle(built.awv.weights) / (math.pi / 2.0)
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)


# ---------------------------------------------------------------------------
# Ablations


def test_no_sync_is_deterministic_per_seed():
    a = build_beam(collinear_scenario(no_sync=True, seed=7))
    b = build_beam(collinear_scenario(no_sync=True, seed=7))
    c = build_beam(collinear_scenario(no_sync=True, seed=8))
    np.testing.assert_array_equal(a.awv.weights, b.awv.weights)
    assert not np.allclose(a.awv.weights, c.awv.weights)


def test_no_sync_keeps_plan_geometry():
    synced = build_beam(collinear_scenario())
    unsynced = build_beam(collinear_scenario(no_sync=True, seed=3))
    assert synced.plan.beam_centers == unsynced.plan.beam_centers
    assert synced.plan.overlap_points == unsynced.plan.overlap_points
    # All shifts randomized, the first included.
    assert unsynced.plan.sync_shifts[0] != 1.0 + 0.0j
    for s in unsynced.plan.sync_shifts:
        assert abs(s) == pytest.approx(1.0, abs=1e-9)


def test_delayed_first_shifts_only_the_first_center():
    normal = build_beam(collinear_scenario())
    delayed = build_beam(collinear_scenario(delayed_first=True))
    p0 = normal.trajectory[0]
    d0 = math.hypot(delayed.plan.beam_centers[0].u - p0.u, delayed.plan.beam_centers[0].v - p0.v)
    assert d0 > 0.0
    assert d0 <= delayed.plan.layout.half_width + 1e-9


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_static_beam_constant_series():
    sc = Scenario(strategy="baseline-start", n_samples=16)
    built = build_beam(sc)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, 0.25)
    assert res.gain_dbi.shape == (16,)
    np.testing.assert_allclose(res.gain_dbi, res.gain_dbi[0], atol=1e-9)
    np.testing.assert_allclose(res.noise_penalty_db, res.noise_penalty_db[0], atol=1e-9)
    assert len(res.mcs) == 16


def test_sweep_result_metrics_are_consistent():
    sc = collinear_scenario()
    built = build_beam(sc)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths)
    assert res.gain_range_db == pytest.approx(res.max_gain_dbi - res.min_gain_dbi, abs=1e-12)
    assert res.min_gain_dbi == res.gain_dbi.min()
    assert res.min_datarate_mbps == min(e.datarate_mbps for e in res.mcs)
    # Received power is eirp - loss + gain, elementwise.
    loss = 68.0 + 20.0 * math.log10(sc.link.distance_m)
    np.testing.assert_allclose(
        res.rx_power_dbm, sc.link.eirp_dbm - loss + res.gain_dbi, atol=1e-9
    )
    assert res.peak_gain_dbi >= res.max_gain_dbi - 1e-9


@pytest.mark.parametrize("n,peak_grid", [(32, 512), (64, 16)])
def test_sweep_peak_never_below_a_sample(monkeypatch, n, peak_grid):
    # Baseline-start peaks exactly on sample 0, which no grid point hits; a
    # 16-point grid is far coarser than the 64x64 beam.
    monkeypatch.setattr(array_model, "PEAK_GRID", peak_grid)
    scanned = []
    grid = array_model.coefficient_grid
    monkeypatch.setattr(array_model, "coefficient_grid", lambda awv, u, *rest: scanned.append(len(u)) or grid(awv, u, *rest))
    sc = Scenario(
        array=ArrayConfig(n, n),
        orientation_end=Quaternion.from_axis_angle((0.0, 1.0, 0.0), 0.1),
        ap_direction=UvPoint(0.13, 0.07),
        n_samples=32,
        strategy="baseline-start",
    )
    built = build_beam(sc)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths)
    assert res.noise_penalty_db.min() >= 0.0
    assert res.peak_gain_dbi >= res.max_gain_dbi
    assert res.peak_gain_dbi == pytest.approx(20.0 * math.log10(n * n), abs=1e-9)
    assert res.peak_uv == built.trajectory[0]
    assert scanned[0] == peak_grid  # the coarse scan ran on the patched grid


@pytest.mark.parametrize("name", ["a", "b"])
def test_sweep_peak_searched_once_on_first_read(monkeypatch, name):
    sc = reference_scenario(name)
    built = build_beam(sc)
    spacing = sc.array.spacing_wavelengths
    calls = []

    def counted(*args):
        calls.append(args)
        return peak_gain(*args)

    monkeypatch.setattr(harness, "peak_gain", counted)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, spacing)
    assert calls == []
    peak, peak_uv, penalty = res.peak_gain_dbi, res.peak_uv, res.noise_penalty_db
    assert res.noise_penalty_db is penalty
    assert len(calls) == 1
    # An eager search plus the best-sample rule.
    g_max, g_uv = peak_gain(built.awv, spacing)
    best = int(np.argmax(res.gain_dbi))
    if res.gain_dbi[best] > g_max:
        g_max, g_uv = float(res.gain_dbi[best]), built.trajectory[best]
    assert peak == g_max
    assert peak_uv == g_uv
    np.testing.assert_array_equal(penalty, g_max - res.gain_dbi)
    assert len(calls) == 1


def test_sweep_noise_penalty_is_read_only():
    sc = reference_scenario("a")
    built = build_beam(sc)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths)
    with pytest.raises(ValueError):
        res.noise_penalty_db[0] = 0.0
    with pytest.raises(AttributeError):
        res.noise_penalty_db = np.zeros(len(built.trajectory))


def test_sweep_collinear_covrage_range_within_six_db():
    sc = collinear_scenario(0.3)
    built = build_beam(sc)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, 0.25)
    assert res.gain_range_db <= 6.0


def test_sweep_baseline_start_collapses_at_far_end():
    sc = collinear_scenario(0.3, strategy="baseline-start")
    built = build_beam(sc)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, 0.25)
    assert res.peak_gain_dbi - res.gain_dbi[-1] >= 15.0


# ---------------------------------------------------------------------------
# Gain maps


def test_gain_map_broadside_peaks_at_origin():
    awv = steering_weights((32, 32), 0.25, UvPoint(0.0, 0.0))
    gm = gain_map(awv, 129, 0.25)
    assert gm.resolution == 129
    idx = np.unravel_index(np.nanargmax(gm.gain_dbi), gm.gain_dbi.shape)
    assert idx == (64, 64)
    assert gm.axis[64] == 0.0


def test_gain_map_marks_outside_disc():
    awv = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    gm = gain_map(awv, 33, 0.5)
    assert math.isnan(gm.gain_dbi[0, 0])  # corner (-1, -1) is outside
    assert not math.isnan(gm.gain_dbi[16, 16])


def test_gain_map_resolution_floor():
    awv = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    with pytest.raises(ConfigError):
        gain_map(awv, 8, 0.5)


@pytest.mark.parametrize("resolution", [15, 2049, 10**19])
def test_gain_map_resolution_ceiling_shares_the_floor_message(resolution):
    awv = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    with pytest.raises(ConfigError, match="^gain map resolution must be between 16 and 2048$"):
        gain_map(awv, resolution, 0.5)


def test_gain_map_each_sub_beam_peaks_at_its_center():
    # The composed four-beam pattern is a deliberately flat ridge, so the
    # constituent lobes are checked one beam at a time: each sub-array's own
    # map must peak within one grid cell of its planned center.
    sc = collinear_scenario(0.3)
    built = build_beam(sc)
    layout = built.plan.layout
    res = 256
    cell = 2.0 / (res - 1)
    for center in built.plan.beam_centers:
        sub = steering_weights((layout.side_x, layout.side_y), layout.spacing_wl, center)
        gm = gain_map(sub, res, layout.spacing_wl)
        idx = np.unravel_index(np.nanargmax(gm.gain_dbi), gm.gain_dbi.shape)
        assert abs(gm.axis[idx[0]] - center.u) <= cell
        assert abs(gm.axis[idx[1]] - center.v) <= cell
    assert built.plan.n_beams >= 4


def test_gain_map_composed_ridge_tracks_the_centers():
    # On the composed map every beam center sits near the top of the pattern,
    # and everything within 3 dB of the global peak hugs the center chain.
    sc = collinear_scenario(0.3)
    built = build_beam(sc)
    gm = gain_map(built.awv, 256, 0.25)
    g = gm.gain_dbi
    top = np.nanmax(g)
    width = built.plan.layout.beam_width
    for c in built.plan.beam_centers:
        i = int(np.argmin(np.abs(gm.axis - c.u)))
        j = int(np.argmin(np.abs(gm.axis - c.v)))
        assert g[i, j] >= top - 6.0
    with np.errstate(invalid="ignore"):
        hi_i, hi_j = np.nonzero(g >= top - 3.0)
    for i, j in zip(hi_i, hi_j):
        u, v = gm.axis[i], gm.axis[j]
        d = min(math.hypot(u - c.u, v - c.v) for c in built.plan.beam_centers)
        assert d <= width


def test_gain_map_mirror_symmetry_for_symmetric_weights():
    # Weights constant along y (any single steered beam, and the reinforced
    # static plan composes to exactly that) give a map symmetric in v.
    sc = Scenario(n_samples=8)  # static head: one reinforced beam at broadside
    built = build_beam(sc)
    assert built.plan.assignment == ((0, 1, 2, 3),)
    gm = gain_map(built.awv, 128, 0.25)
    np.testing.assert_allclose(gm.gain_dbi, gm.gain_dbi[:, ::-1], atol=1e-6, equal_nan=True)
    # Same property for a plain u-axis steered full-aperture beam.
    awv = steering_weights((32, 32), 0.25, UvPoint(0.3, 0.0))
    gm2 = gain_map(awv, 128, 0.25)
    np.testing.assert_allclose(gm2.gain_dbi, gm2.gain_dbi[:, ::-1], atol=1e-6, equal_nan=True)


def test_display_clamp_constant():
    assert DISPLAY_CLAMP_DBI == 30.0


# ---------------------------------------------------------------------------
# Random rotations


def test_random_head_rotation_deterministic():
    a1, a2 = random_head_rotation(5, 0.3)
    b1, b2 = random_head_rotation(5, 0.3)
    assert (a1.w, a1.x, a1.y, a1.z) == (b1.w, b1.x, b1.y, b1.z)
    assert (a2.w, a2.x, a2.y, a2.z) == (b2.w, b2.x, b2.y, b2.z)
    c1, _ = random_head_rotation(6, 0.3)
    assert (a1.w, a1.x, a1.y, a1.z) != (c1.w, c1.x, c1.y, c1.z)


def test_random_head_rotation_zero_target():
    q1, q2 = random_head_rotation(11, 0.0)
    assert q1 is q2


def test_random_head_rotation_hits_target_length():
    for seed in range(5):
        q1, q2 = random_head_rotation(seed, 0.3)
        traj = sample_trajectory(q1, q2, UvPoint(0.0, 0.0), 256)
        length = trajectory_length(traj)
        assert 0.285 <= length <= 0.315
    for target in (0.1, 0.38):
        q1, q2 = random_head_rotation(21, target)
        length = trajectory_length(sample_trajectory(q1, q2, UvPoint(0.0, 0.0), 256))
        assert abs(length - target) <= 0.05 * target


def test_random_head_rotation_keeps_the_length_within_half_a_percent():
    # Seed 1 draws an axis whose path leaves the front hemisphere at a length of
    # 1.177, 1.9% short of the target: it is rejected, and a later axis reaches 1.2.
    q1, q2 = random_head_rotation(1, 1.2)
    length = trajectory_length(sample_trajectory(q1, q2, UvPoint(0.0, 0.0), 64))
    assert length == pytest.approx(1.2, rel=0.005)


def test_random_head_rotation_rejects_bad_targets():
    with pytest.raises(ValueError):
        random_head_rotation(0, -0.1)
    with pytest.raises(ValueError):
        random_head_rotation(0, 3.5)


# ---------------------------------------------------------------------------
# Reference scenarios


def test_reference_scenario_a():
    sc = reference_scenario("a")
    built = build_beam(sc)
    assert built.plan.n_beams == 4
    assert built.plan.extrapolated
    length = trajectory_length(built.trajectory)
    assert length == pytest.approx(0.30, abs=0.01)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths)
    assert res.gain_range_db <= 6.0


def test_reference_scenario_b():
    sc = reference_scenario("b")
    assert sc.n_samples == 256
    built = build_beam(sc)
    assert built.plan.n_beams == 4
    length = trajectory_length(built.trajectory)
    assert length == pytest.approx(0.35, abs=0.35 * 0.005 + 1e-9)
    res = sweep_trajectory(built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths)
    assert res.gain_range_db <= 6.0


def test_reference_scenario_unknown_name():
    with pytest.raises(ConfigError):
        reference_scenario("c")


# ---------------------------------------------------------------------------
# Strategy comparison and harness-wide invariants


def test_compare_strategies_rows_and_winner():
    sc = reference_scenario("a")
    rows = compare_strategies(sc)
    assert len(rows) == 6
    assert [r.strategy for r in rows[:4]] == list(STRATEGIES)
    assert rows[0].ablation == ""
    assert {r.ablation for r in rows[4:]} == {"no_sync", "delayed_first"}
    covrage_min = rows[0].result.min_gain_dbi
    for row in rows[1:4]:
        assert covrage_min >= row.result.min_gain_dbi
    assert rows[0].beam_count == 4
    for row in rows[1:4]:
        assert row.beam_count == 1


def test_iter_strategies_yields_the_compare_rows():
    sc = reference_scenario("b")
    stats = ("min_gain_dbi", "max_gain_dbi", "gain_range_db", "min_mcs_index", "min_datarate_mbps")

    def table(rows):
        return [
            (r.strategy, r.ablation, r.beam_count, *(getattr(r.result, s) for s in stats), tuple(r.result.mcs))
            for r in rows
        ]

    listed = compare_strategies(sc)
    streamed = list(iter_strategies(sc))
    assert table(streamed) == table(listed)
    for a, b in zip(listed, streamed):
        np.testing.assert_array_equal(a.result.gain_dbi, b.result.gain_dbi)
        np.testing.assert_array_equal(a.result.rx_power_dbm, b.result.rx_power_dbm)


def seeded_override(seed: int):
    rng = np.random.default_rng(seed)
    return lambda count: np.exp(2j * np.pi * rng.uniform(size=count))


@pytest.mark.parametrize("phase_bits", [None, 2])
@pytest.mark.parametrize(
    "no_sync,delayed_first", [(False, False), (True, False), (False, True), (True, True)],
    ids=["plain", "no_sync", "delayed_first", "both"],
)
def test_build_beam_equals_covrage_plan(no_sync, delayed_first, phase_bits):
    # build_beam composes the planner's steps itself; covrage_plan is the
    # same pipeline behind one call, and the two must give the same bits.
    # Handed the path and the plain plan, as a comparison does, build_beam
    # reuses that plan unless delayed_first needs its own.
    sc = dataclasses.replace(
        reference_scenario("b"), no_sync=no_sync, delayed_first=delayed_first, phase_bits=phase_bits, seed=29
    )
    built = build_beam(sc)
    traj = plan_trajectory(sc.orientation_start, sc.orientation_end, sc.ap_direction, sc.array, n_samples=256)
    shared = build_beam(sc, traj, plan_geometry(traj, sc.array))
    assert np.array_equal(shared.awv.weights, built.awv.weights)
    assert shared.plan.beam_centers == built.plan.beam_centers
    awv, plan = covrage_plan(
        sc.orientation_start, sc.orientation_end, sc.ap_direction, sc.array,
        interleave=sc.interleave, n_samples=sc.n_samples, delayed_first=delayed_first,
        sync_override=seeded_override(sc.seed) if no_sync else None,
    )
    if phase_bits is not None:
        awv = quantize_phases(awv, phase_bits)
    assert np.array_equal(built.awv.weights, awv.weights)
    got = built.plan
    assert np.array_equal(got.trajectory.uv, plan.trajectory.uv)
    assert np.array_equal(built.trajectory.uv, plan.trajectory.uv)
    assert dataclasses.astuple(got.layout) == dataclasses.astuple(plan.layout)
    for field in ("beam_centers", "overlap_points", "sync_shifts", "assignment", "extrapolated", "sync_skipped"):
        assert getattr(got, field) == getattr(plan, field), field


def test_comparison_plans_once_plus_delayed_first(monkeypatch):
    # covrage and no_sync synthesize from one shared plan; delayed_first plans its own.
    calls = []

    def counting(traj, cfg, **kwargs):
        calls.append(kwargs.get("delayed_first", False))
        return plan_geometry(traj, cfg, **kwargs)

    monkeypatch.setattr(harness, "plan_geometry", counting)
    compare_strategies(reference_scenario("b"))
    assert calls == [False, True]


def oracle_rows(sc: Scenario):
    """Each variant on its own: build_beam plus sweep_trajectory, nothing shared."""
    for strategy, ablation in VARIANTS:
        variant = dataclasses.replace(
            sc, strategy=strategy, no_sync=ablation == "no_sync", delayed_first=ablation == "delayed_first"
        )
        built = build_beam(variant)
        result = sweep_trajectory(
            built.awv, built.trajectory, sc.link, sc.array.spacing_wavelengths, sc.mcs_table
        )
        yield strategy, ablation, built.plan.n_beams if built.plan else 1, result


@settings(max_examples=40)
@given(
    n=st.sampled_from((16, 32, 64)),
    interleave=st.sampled_from((4, 16)),
    phase_bits=st.sampled_from((None, 1, 2)),
    n_samples=st.sampled_from((None, 64, 97, 256)),
    turn_seed=st.integers(0, 2**16),
    length=st.floats(0.02, 0.4),
    seed=st.integers(0, 2**16),
)
def test_iter_strategies_bit_equal_to_independent_variants(
    n, interleave, phase_bits, n_samples, turn_seed, length, seed
):
    q1, q2 = random_head_rotation(turn_seed, length, UvPoint(0.1, -0.05))
    sc = Scenario(
        array=ArrayConfig(n, n),
        orientation_start=q1,
        orientation_end=q2,
        ap_direction=UvPoint(0.1, -0.05),
        n_samples=n_samples,
        interleave=interleave,
        phase_bits=phase_bits,
        seed=seed,
    )
    try:
        expected = list(oracle_rows(sc))
    except ConfigError:  # a path too long for the groups this array can split into
        with pytest.raises(ConfigError):
            list(iter_strategies(sc))
        return
    rows = list(iter_strategies(sc))
    assert [(r.strategy, r.ablation, r.beam_count) for r in rows] == [e[:3] for e in expected]
    for row, (*_, want) in zip(rows, expected):
        got = row.result
        assert np.array_equal(got.trajectory.uv, want.trajectory.uv)
        assert np.array_equal(got.awv.weights, want.awv.weights)
        assert np.array_equal(got.gain_dbi, want.gain_dbi)
        assert np.array_equal(got.rx_power_dbm, want.rx_power_dbm)
        assert got.mcs == want.mcs

    # no_sync against the planner called directly with the seeded override.
    rng = np.random.default_rng(seed)
    awv, plan = covrage_plan(
        q1, q2, sc.ap_direction, sc.array, interleave=interleave, n_samples=n_samples,
        sync_override=lambda count: np.exp(2j * np.pi * rng.uniform(size=count)),
    )
    if phase_bits is not None:
        awv = quantize_phases(awv, phase_bits)
    assert np.array_equal(rows[4].result.awv.weights, awv.weights)
    assert rows[4].beam_count == plan.n_beams


def test_iter_strategies_keeps_one_dense_awv_alive():
    # Rows dropped one by one: the peak is a bounded multiple of one dense
    # weight vector plus the path phasors every sweep shares. Keeping all six
    # rows alive instead peaks above seven dense weight vectors.
    n = 512
    q1, q2 = random_head_rotation(5, 0.3)
    sc = Scenario(array=ArrayConfig(n, n), orientation_start=q1, orientation_end=q2, n_samples=256)
    dense = n * n * 16
    phasors = 2 * n * 256 * 16
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        count = 0
        for row in iter_strategies(sc):
            count += 1
            del row
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 6
    assert peak - base <= 3 * dense + phasors


def test_covrage_never_below_baselines_over_seeds():
    # Twenty random trajectories at least two sub-beam widths long: the plan's
    # worst on-trajectory gain must match or beat every single-beam baseline.
    for seed in range(20):
        q1, q2 = random_head_rotation(seed, 0.25)
        base = dict(orientation_start=q1, orientation_end=q2, n_samples=96)
        covrage_min = min_gain_of(Scenario(**base))
        for strategy in ("baseline-start", "baseline-edge", "baseline-mid"):
            assert covrage_min >= min_gain_of(Scenario(strategy=strategy, **base)) - 1e-9, (
                f"seed {seed}, {strategy}"
            )


def test_synced_min_beats_median_unsynced_min():
    for name in ("a", "b"):
        sc = reference_scenario(name)
        synced = min_gain_of(sc)
        unsynced = [
            min_gain_of(dataclasses.replace(sc, no_sync=True, seed=seed))
            for seed in range(20)
        ]
        assert synced >= float(np.median(unsynced))


def test_delayed_first_drop_on_reference_b():
    sc = reference_scenario("b")
    normal = build_beam(sc)
    delayed = build_beam(dataclasses.replace(sc, delayed_first=True))
    u0 = np.array([normal.trajectory[0].u])
    v0 = np.array([normal.trajectory[0].v])

    def gain_at_start(awv):
        c = coefficient_points(awv, u0, v0, sc.array.spacing_wavelengths)
        return float(10.0 * np.log10(np.abs(c[0]) ** 2))

    assert gain_at_start(normal.awv) - gain_at_start(delayed.awv) >= 5.0


def test_plans_and_sweeps_on_threads_equal_serial_runs():
    # The planner's docstring says plans for independent inputs can be computed
    # concurrently, and array_model's that its read-only arrays can be shared
    # across threads: four threads, switching often, plan, sweep and
    # peak-search eight head turns on one shared config and link, bit for bit
    # as one thread does.
    cfg, link, ap = ArrayConfig(), LinkParams(), UvPoint(0.0, 0.0)

    def run(turn):
        awv, plan = covrage_plan(*turn, ap, cfg)
        res = sweep_trajectory(awv, plan.trajectory, link, cfg.spacing_wavelengths)
        arrays = (awv.weights, plan.trajectory.uv, res.gain_dbi, res.rx_power_dbm)
        return [a.tobytes() for a in arrays], plan.beam_centers, plan.sync_shifts, res.mcs, res.peak_uv

    turns = [random_head_rotation(seed, 0.3) for seed in range(8)]
    serial = [run(turn) for turn in turns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, turns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_readme_library_example_runs():
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "(256, 2)" in done.stdout
