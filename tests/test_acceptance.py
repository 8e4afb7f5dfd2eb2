"""Acceptance gate: twelve checks, one test and one printed verdict line each."""

import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from covrage.array_model import (
    ArrayConfig,
    beamwidth_angular,
    beamwidth_uv,
    coefficient_points,
    steering_weights,
)
from covrage.cli import main
from covrage.errors import InvalidUvError
from covrage.geometry import EulerAngles, UvPoint, euler_to_uv, uv_to_euler
from covrage.harness import build_beam, random_head_rotation, reference_scenario
from covrage.link_budget import LinkParams, default_mcs_table, path_loss, select_mcs
from covrage.planner import covrage_plan


def trajectory_gains_dbi(bb):
    spacing = bb.scenario.array.spacing_wavelengths
    coeff = coefficient_points(bb.awv, bb.trajectory.u_array(), bb.trajectory.v_array(), spacing)
    return 10.0 * np.log10(np.abs(coeff) ** 2)


@pytest.fixture(scope="module")
def ref_a():
    return reference_scenario("a")


@pytest.fixture(scope="module")
def ref_b():
    return reference_scenario("b")


def test_criterion_01_beamwidth_anchors():
    width = beamwidth_uv(16, 0.5)
    assert width == pytest.approx(0.1108, abs=5e-4)
    degrees = math.degrees(beamwidth_angular(40, 0.5, 0.0))
    assert degrees == pytest.approx(2.54, abs=0.01)
    print(f"criterion 01 PASS: width(16)={width:.5f}, width(40)={degrees:.4f} deg")


def test_criterion_02_width_invariant_across_steering():
    start = time.perf_counter()
    predicted = beamwidth_uv(16, 0.5)
    rng = np.random.default_rng(2)
    worst = 0.0
    for off_axis in np.linspace(0.0, math.radians(60.0), 20):
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sin(off_axis)
        center = UvPoint(r * math.cos(azimuth), r * math.sin(azimuth))
        awv = steering_weights((16, 16), 0.5, center)

        def power(u):
            c = coefficient_points(awv, np.array([u]), np.array([center.v]), 0.5)
            return abs(c[0]) ** 2

        half = power(center.u) / 2.0

        def half_power_crossing(sign):
            step = 0.01
            below = step
            while power(center.u + sign * below) >= half:
                below += step
            lo, hi = below - step, below
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                if power(center.u + sign * mid) >= half:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        measured = half_power_crossing(+1.0) + half_power_crossing(-1.0)
        worst = max(worst, abs(measured - predicted) / predicted)
    elapsed = time.perf_counter() - start
    assert worst < 0.02
    assert elapsed < 10.0
    print(f"criterion 02 PASS: worst width deviation {100 * worst:.3f}% in {elapsed:.2f}s")


def test_criterion_03_coherent_gain_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        nx = int(rng.integers(1, 33))
        ny = int(rng.integers(1, 33))
        r = math.sqrt(rng.uniform(0.0, 0.95**2))
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        center = UvPoint(r * math.cos(azimuth), r * math.sin(azimuth))
        awv = steering_weights((nx, ny), 0.5, center)
        c = coefficient_points(awv, np.array([center.u]), np.array([center.v]), 0.5)
        gain = 10.0 * math.log10(abs(c[0]) ** 2)
        worst = max(worst, abs(gain - 20.0 * math.log10(nx * ny)))
    assert worst < 1e-6
    print(f"criterion 03 PASS: max deviation from 20*log10(M) is {worst:.2e} dB")


def test_criterion_04_coverage_guarantee():
    start = time.perf_counter()
    cfg = ArrayConfig()
    ap = UvPoint(0.0, 0.0)
    extrapolated = 0
    seed = 0
    for target in np.linspace(0.05, 0.38, 50):
        while True:
            try:
                q1, q2 = random_head_rotation(seed, float(target))
                seed += 1
                break
            except ValueError:
                seed += 1
        _, plan = covrage_plan(q1, q2, ap, cfg)
        centers_u = np.array([c.u for c in plan.beam_centers])
        centers_v = np.array([c.v for c in plan.beam_centers])
        du = plan.trajectory.u_array()[:, None] - centers_u[None, :]
        dv = plan.trajectory.v_array()[:, None] - centers_v[None, :]
        nearest = np.hypot(du, dv).min(axis=1)
        assert nearest.max() <= plan.coverage.half_width + 1e-9
        extrapolated += plan.extrapolated
    elapsed = time.perf_counter() - start
    assert extrapolated >= 1
    assert elapsed < 30.0
    print(
        f"criterion 04 PASS: 50 trajectories covered, {extrapolated} extrapolated, {elapsed:.2f}s"
    )


def test_criterion_05_gain_stability(ref_a, ref_b):
    ranges = {}
    for name, sc in (("a", ref_a), ("b", ref_b)):
        gains = trajectory_gains_dbi(build_beam(sc))
        ranges[name] = float(gains.max() - gains.min())
        assert ranges[name] <= 6.0
    print(
        f"criterion 05 PASS: gain range a={ranges['a']:.2f} dB, b={ranges['b']:.2f} dB"
    )


def test_criterion_06_single_beam_collapse(ref_b):
    sc = replace(ref_b, strategy="baseline-start")
    gains = trajectory_gains_dbi(build_beam(sc))
    peak = float(gains.max())
    drop = peak - float(gains[-1])
    assert drop >= 15.0
    headroom = 14.0
    table = default_mcs_table()
    top_sensitivity = table[-1].sensitivity_dbm
    loss = path_loss(3.0, LinkParams())
    link = LinkParams(eirp_dbm=top_sensitivity + headroom + loss - peak, distance_m=3.0)
    rx_far = link.eirp_dbm - loss + float(gains[-1])
    chosen = select_mcs(rx_far, table)
    assert chosen is table[0]
    assert chosen.datarate_mbps == 27.5
    print(
        f"criterion 06 PASS: far-end drop {drop:.2f} dB, "
        f"headroom {headroom:g} dB selects control rate {chosen.datarate_mbps} Mbps"
    )


def test_criterion_07_sync_ablation(ref_a, ref_b):
    margins = {}
    for name, sc in (("a", ref_a), ("b", ref_b)):
        synced_min = float(trajectory_gains_dbi(build_beam(sc)).min())
        unsynced = [
            float(trajectory_gains_dbi(build_beam(replace(sc, no_sync=True, seed=s))).min())
            for s in range(20)
        ]
        margins[name] = synced_min - statistics.median(unsynced)
        assert margins[name] >= 0.0
    print(
        "criterion 07 PASS: synced min beats unsynced median by "
        f"a={margins['a']:.2f} dB, b={margins['b']:.2f} dB"
    )


def test_criterion_08_delayed_first_ablation(ref_b):
    normal = trajectory_gains_dbi(build_beam(ref_b))
    delayed = trajectory_gains_dbi(build_beam(replace(ref_b, delayed_first=True)))
    drop = float(normal[0] - delayed[0])
    assert drop >= 5.0
    print(f"criterion 08 PASS: first-sample gain drops {drop:.2f} dB when delayed")


def test_criterion_09_conversion_round_trips():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10_000):
        phi = float(rng.uniform(-1.48, 1.48))
        theta = float(rng.uniform(-1.48, 1.48))
        back = uv_to_euler(euler_to_uv(EulerAngles(phi, theta)))
        worst = max(worst, abs(back.phi - phi), abs(back.theta - theta))
    assert worst < 1e-6
    with pytest.raises(InvalidUvError):
        UvPoint(0.8, 0.7)
    print(f"criterion 09 PASS: worst round-trip error {worst:.2e} rad, invalid uv rejected")


def test_criterion_10_path_loss_anchors():
    params = LinkParams()
    assert path_loss(1.0, params) == 68.0
    for d in (0.5, 1.0, 2.0, 4.0, 10.0):
        delta = path_loss(2.0 * d, params) - path_loss(d, params)
        assert delta == pytest.approx(6.02, abs=0.01)
    print("criterion 10 PASS: PL(1m)=68 dB, doubling adds 6.02 dB")


def test_criterion_11_planner_speed(ref_b):
    q1, q2, ap = ref_b.orientation_start, ref_b.orientation_end, ref_b.ap_direction
    cfg = ref_b.array
    for _ in range(3):
        covrage_plan(q1, q2, ap, cfg, n_samples=256)
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        covrage_plan(q1, q2, ap, cfg, n_samples=256)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010
    print(f"criterion 11 PASS: 256-sample plan in {1e3 * best:.2f} ms")


def test_criterion_12_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(
        json.dumps(
            {
                "orientation_end_euler_deg": [20.0, 0.0, 0.0],
                "ap_direction_uv": [0.0, 0.0],
                "seed": 7,
            }
        )
    )
    for command in ("sweep", "compare"):
        out = tmp_path / command
        runs = []
        for _ in range(2):
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] == runs[1]
    print("criterion 12 PASS: sweep and compare reruns are byte-identical")
