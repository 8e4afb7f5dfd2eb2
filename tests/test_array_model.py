"""Array pattern math against a brute-force element-sum oracle."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covrage import array_model
from covrage.array_model import (
    ArrayConfig,
    Awv,
    GAIN_FLOOR_DBI,
    PEAK_GRID,
    SubArrayLayout,
    array_coefficient,
    beamwidth_angular,
    beamwidth_uv,
    coefficient_grid,
    coefficient_points,
    compose_full_awv,
    floored_gain_dbi,
    partition_interleaved,
    partition_localized,
    path_coefficients,
    path_phasors,
    peak_gain,
    quantize_phases,
    steering_stack,
    steering_weights,
)
from covrage.errors import ConfigError
from covrage.geometry import UvPoint, uv_to_euler
from covrage.harness import gain_map, reference_scenario
from covrage.planner import plan_geometry, plan_trajectory, synthesize_plan

# ---------------------------------------------------------------------------
# Oracle: the coefficient as a literal double loop over elements. An incoming
# plane wave from (u, v) reaches element (x, y) with phase -2*pi*d*(x*u + y*v)
# relative to the (0, 0) element; the combined output sums weight * arrival.


def brute_coefficient(weights: np.ndarray, u: float, v: float, spacing_wl: float) -> complex:
    nx, ny = weights.shape
    total = 0.0 + 0.0j
    for x in range(nx):
        for y in range(ny):
            arrival = cmath.exp(-2j * math.pi * spacing_wl * (x * u + y * v))
            total += complex(weights[x, y]) * arrival
    return total


def element_phase_delta(x: int, y: int, phi: float, theta: float, spacing_wl: float) -> complex:
    """Plane-wave phase offset of element (x, y) relative to (0, 0), from yaw/pitch.

    The direction stays in angles, so this reference does not share the
    sine-space path the weights are steered by.
    """
    u, v = math.sin(phi) * math.cos(theta), math.sin(theta)
    arg = 2.0 * math.pi * spacing_wl * (x * u + y * v)
    return complex(math.cos(arg), -math.sin(arg))


def random_awv(rng: np.random.Generator, nx: int, ny: int) -> Awv:
    return Awv(np.exp(2j * np.pi * rng.uniform(size=(nx, ny))))


def random_uv(rng: np.random.Generator, max_r: float = 0.95) -> UvPoint:
    r = math.sqrt(rng.uniform(0.0, max_r**2))
    a = rng.uniform(0.0, 2.0 * math.pi)
    return UvPoint(r * math.cos(a), r * math.sin(a))


# ---------------------------------------------------------------------------
# Element phase and steering


def test_element_phase_delta_example():
    # One element over in x, half-wavelength pitch, wave from 30 degrees azimuth.
    delta = element_phase_delta(1, 0, math.radians(30.0), 0.0, 0.5)
    assert delta == pytest.approx(-1j, abs=1e-12)
    assert element_phase_delta(4, 7, 0.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_steering_weights_broadside_all_ones():
    w = steering_weights((8, 8), 0.5, UvPoint(0.0, 0.0))
    np.testing.assert_allclose(w.weights, np.ones((8, 8)), atol=1e-15)


def test_steering_weights_cancel_arrival_phase():
    rng = np.random.default_rng(21)
    p = random_uv(rng)
    w = steering_weights((6, 5), 0.5, p)
    e = uv_to_euler(p)
    for x in range(6):
        for y in range(5):
            product = w.weights[x, y] * element_phase_delta(x, y, e.phi, e.theta, 0.5)
            assert product == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60)
@given(
    st.integers(1, 300),
    st.integers(1, 300),
    st.floats(-0.7, 0.7),
    st.floats(-0.7, 0.7),
    st.sampled_from((0.25, 0.5, 1.0)),
)
# Negative u and v make element (0, 0)'s argument -0.0, whose sine is -0.0.
@example(3, 2, -0.25, -0.5, 0.5)
def test_steering_weights_bit_equal_cos_plus_i_sin(nx, ny, u, v, spacing):
    # Compared as integers, so a -0.0 where cos + 1j*sin gives +0.0 counts.
    w = steering_weights((nx, ny), spacing, UvPoint(u, v)).weights
    arg = 2.0 * np.pi * spacing * (np.arange(nx)[:, None] * u + np.arange(ny)[None, :] * v)
    want = np.cos(arg) + 1j * np.sin(arg)
    np.testing.assert_array_equal(w.view(np.uint64), want.view(np.uint64))


def test_steering_weights_allocates_argument_and_one_complex_grid():
    tracemalloc.start()
    try:
        awv = steering_weights((1024, 1024), 0.25, UvPoint(0.3, -0.2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arg_bytes = 1024 * 1024 * 8
    assert peak <= arg_bytes + awv.weights.nbytes + 2**16


def test_single_element_weight_has_unit_magnitude():
    rng = np.random.default_rng(22)
    w = steering_weights((1, 1), 0.5, random_uv(rng))
    assert abs(w.weights[0, 0]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Coefficients against the oracle


def test_array_coefficient_matches_brute_force():
    rng = np.random.default_rng(23)
    for nx, ny in ((4, 4), (8, 6), (16, 16)):
        awv = random_awv(rng, nx, ny)
        for _ in range(4):
            p = random_uv(rng)
            got = array_coefficient(awv.weights[None], steering_weights(awv.shape, 0.5, p).weights[None])[0]
            want = brute_coefficient(awv.weights, p.u, p.v, 0.5)
            assert got == pytest.approx(want, abs=1e-9)


def test_coefficient_points_matches_brute_force():
    rng = np.random.default_rng(24)
    awv = random_awv(rng, 8, 8)
    pts = [random_uv(rng) for _ in range(12)]
    u = np.array([p.u for p in pts])
    v = np.array([p.v for p in pts])
    got = coefficient_points(awv, u, v, 0.25)
    for k, p in enumerate(pts):
        assert got[k] == pytest.approx(brute_coefficient(awv.weights, p.u, p.v, 0.25), abs=1e-9)


def test_coefficient_grid_matches_points():
    rng = np.random.default_rng(25)
    awv = random_awv(rng, 5, 7)  # asymmetric on purpose: catches axis swaps
    ug = np.linspace(-0.5, 0.5, 9)
    vg = np.linspace(-0.4, 0.6, 11)
    grid = coefficient_grid(awv, ug, vg, 0.5)
    assert grid.shape == (9, 11)
    for i in (0, 4, 8):
        for j in (0, 5, 10):
            want = coefficient_points(awv, np.array([ug[i]]), np.array([vg[j]]), 0.5)[0]
            assert grid[i, j] == pytest.approx(want, abs=1e-9)


def test_coefficient_grid_builds_a_square_grid_s_axis_table_once(monkeypatch):
    # A square array on equal axes reads one table for both; other axes or a
    # rectangular array build two. Either way the bits are the two-table product.
    real = array_model._axis_phasors
    calls = []
    monkeypatch.setattr(array_model, "_axis_phasors", lambda n, c, d: calls.append(n) or real(n, c, d))
    rng = np.random.default_rng(27)
    square, wide = random_awv(rng, 6, 6), random_awv(rng, 6, 5)
    axis = np.linspace(-1.0, 1.0, 9)
    for awv, v, count in ((square, axis.copy(), 1), (square, axis[::-1], 2), (wide, axis, 2)):
        calls.clear()
        got = coefficient_grid(awv, axis, v, 0.5)
        assert len(calls) == count
        nx, ny = awv.shape
        assert np.array_equal(got, real(nx, axis, 0.5).T @ (awv.weights @ real(ny, v, 0.5)))


def test_coefficient_periodicity_in_sine_space():
    # exp(-2j pi d x u) is periodic in u with period 1/d; exact, not approximate.
    rng = np.random.default_rng(26)
    awv = random_awv(rng, 6, 6)
    for d, period in ((1.0, 1.0), (0.5, 2.0)):
        u = np.array([0.17])
        v = np.array([-0.23])
        a = coefficient_points(awv, u, v, d)[0]
        b = coefficient_points(awv, u + period, v, d)[0]
        assert b == pytest.approx(a, abs=1e-9)


def test_coherent_gain_16x16():
    d = UvPoint(0.3, -0.2)
    awv = steering_weights((16, 16), 0.5, d)
    gain = 20.0 * math.log10(abs(coefficient_points(awv, 0.3, -0.2, 0.5)[0]))
    assert gain == pytest.approx(20.0 * math.log10(256.0), abs=1e-9)
    assert gain == pytest.approx(48.16, abs=0.01)


def test_gain_floor_at_pattern_null():
    awv = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    # First null of the broadside pattern: u = 1/(N d) = 0.125, which is
    # cell (9, 8) of a 17-point gain map.
    grid = gain_map(awv, 17, 0.5)
    assert (grid.axis[9], grid.axis[8]) == (0.125, 0.0)
    assert grid.gain_dbi[9, 8] == GAIN_FLOOR_DBI


def test_gain_floor_is_the_documented_minus_40_dbi():
    # A zero power and a vanishing one both read the README's floor.
    assert floored_gain_dbi(np.array([0.0, 1e-30])).tolist() == [-40.0, -40.0]


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_coefficient_magnitude_bounded_by_element_count(seed):
    rng = np.random.default_rng(seed)
    awv = random_awv(rng, 4, 5)
    toward = steering_weights(awv.shape, 0.5, random_uv(rng))
    assert abs(array_coefficient(awv.weights[None], toward.weights[None])[0]) <= 20.0 + 1e-9


# ---------------------------------------------------------------------------
# Beamwidths


def test_beamwidth_uv_values():
    assert beamwidth_uv(16, 0.5) == pytest.approx(0.11075, abs=1e-9)
    assert beamwidth_uv(40, 0.5) == pytest.approx(0.0443, abs=1e-9)
    assert math.degrees(beamwidth_angular(40, 0.5, 0.0)) == pytest.approx(2.54, abs=0.01)


def test_beamwidth_angular_broadside_equals_uv():
    assert beamwidth_angular(16, 0.5, 0.0) == beamwidth_uv(16, 0.5)


def test_beamwidth_angular_off_broadside():
    got = beamwidth_angular(16, 0.5, math.radians(45.0))
    assert got == pytest.approx(0.11075 / math.cos(math.radians(45.0)), abs=1e-12)
    assert got == pytest.approx(0.1566, abs=1e-4)


def test_beamwidth_angular_degenerates_at_plane():
    with pytest.raises(ConfigError):
        beamwidth_angular(16, 0.5, math.pi / 2.0)


# ---------------------------------------------------------------------------
# Partitions: checked against index-arithmetic enumeration oracles


def element_images(layout):
    """Each element's group, local x and local y as ``[x, y]`` grids, and the groups' origin rows.

    The grids are ``layout.scatter`` of each group's index and local
    coordinates, broadcast to the full group stack; the origin table is
    ``layout.origin`` of every group.
    """
    stack = (layout.n_sub, layout.side_x, layout.side_y)
    sub_index = layout.scatter(np.broadcast_to(np.arange(layout.n_sub)[:, None, None], stack))
    local_x = layout.scatter(np.broadcast_to(np.arange(layout.side_x)[None, :, None], stack))
    local_y = layout.scatter(np.broadcast_to(np.arange(layout.side_y)[None, None, :], stack))
    origins = np.stack(layout.origin(np.arange(layout.n_sub)), axis=1)
    return sub_index, local_x, local_y, origins


def test_interleaved_partition_example():
    layout = partition_interleaved(ArrayConfig(), 4)
    assert layout.n_sub == 4
    assert (layout.side_x, layout.side_y) == (16, 16)
    assert layout.spacing_wl == pytest.approx(0.5)
    sub_index, local_x, local_y, origins = element_images(layout)
    # Element (3, 5): offsets (3 mod 2, 5 mod 2) = (1, 1) own it, locally (1, 2).
    k = sub_index[3, 5]
    assert tuple(origins[k]) == (1, 1)
    assert (local_x[3, 5], local_y[3, 5]) == (1, 2)


def test_interleaved_partition_enumeration_oracle():
    cfg = ArrayConfig()
    layout = partition_interleaved(cfg, 4)
    sub_index, local_x, local_y, origins = element_images(layout)
    m = 2
    for x in range(cfg.nx):
        for y in range(cfg.ny):
            k = sub_index[x, y]
            ox, oy = origins[k]
            assert (ox, oy) == (x % m, y % m)
            assert (local_x[x, y], local_y[x, y]) == (x // m, y // m)
            # Origin element plus stride times local coords recovers (x, y).
            lx, ly = local_x[x, y], local_y[x, y]
            assert (ox + m * lx, oy + m * ly) == (x, y)


def test_interleaved_masks_partition_the_lattice():
    layout = partition_interleaved(ArrayConfig(), 4)
    sub_index = element_images(layout)[0]
    total = np.zeros((32, 32), dtype=int)
    for k in range(4):
        mask = sub_index == k
        assert mask.sum() == 256
        total += mask.astype(int)
    assert (total == 1).all()


def test_interleaved_identity():
    layout = partition_interleaved(ArrayConfig(), 1)
    assert layout.n_sub == 1
    sub_index, local_x, local_y, _ = element_images(layout)
    assert sub_index[17, 4] == 0
    assert (local_x[17, 4], local_y[17, 4]) == (17, 4)
    assert layout.stride == 1
    assert (layout.side_x, layout.side_y) == (32, 32)


def test_interleaved_partition_errors():
    with pytest.raises(ConfigError):
        partition_interleaved(ArrayConfig(), 2)  # not a square
    with pytest.raises(ConfigError):
        partition_interleaved(ArrayConfig(nx=30, ny=30), 16)  # 30 % 4 != 0
    with pytest.raises(ConfigError):
        partition_interleaved(ArrayConfig(), 25)  # 32 not divisible by 5


def test_localized_partition_quadrants():
    base = partition_interleaved(ArrayConfig(nx=16, ny=16), 1)
    split = partition_localized(base)
    assert split.n_sub == 4
    assert (split.side_x, split.side_y) == (8, 8)
    assert split.stride == base.stride
    assert split.subdivisions == 1
    sub_index, local_x, local_y, origins = element_images(split)
    # Element (12, 3) sits in the +x/-y quadrant: local (4, 3).
    k = sub_index[12, 3]
    assert tuple(origins[k]) == (8, 0)
    assert (local_x[12, 3], local_y[12, 3]) == (4, 3)
    for x in range(16):
        for y in range(16):
            qx, qy = x // 8, y // 8
            k = sub_index[x, y]
            assert tuple(origins[k]) == (8 * qx, 8 * qy)
            assert (local_x[x, y], local_y[x, y]) == (x % 8, y % 8)


def test_localized_refines_interleaved():
    layout = partition_localized(partition_interleaved(ArrayConfig(), 4))
    assert layout.n_sub == 16
    assert (layout.side_x, layout.side_y) == (8, 8)
    assert layout.spacing_wl == pytest.approx(0.5)
    sub_index, _, _, origins = element_images(layout)
    total = np.zeros((32, 32), dtype=int)
    for k in range(16):
        mask = sub_index == k
        assert mask.sum() == 64
        total += mask.astype(int)
        # All elements of one child share the parent interleave offset.
        xs, ys = np.nonzero(mask)
        assert len(set(zip(xs % 2, ys % 2))) == 1
        # Origin is the child's own lowest-index element.
        assert tuple(origins[k]) == (xs.min(), ys.min())
    assert (total == 1).all()


def test_localized_partition_errors():
    # 6 halves to 3 once; a second split cannot halve a 3-wide group.
    once = partition_localized(partition_interleaved(ArrayConfig(nx=6, ny=6), 1))
    assert (once.side_x, once.side_y) == (3, 3)
    with pytest.raises(ConfigError):
        partition_localized(once)


@pytest.mark.parametrize("nx,ny", [(12, 8), (8, 12)])
def test_localized_partition_checks_both_sides(nx, ny):
    twice = partition_localized(partition_localized(partition_interleaved(ArrayConfig(nx=nx, ny=ny), 1)))
    assert {twice.side_x, twice.side_y} == {2, 3}
    with pytest.raises(ConfigError, match=f"groups of {nx // 4}x{ny // 4} cannot be halved"):
        partition_localized(twice)


@st.composite
def layouts(draw, mi, depth):
    """A layout of a non-square array whose sides halve ``depth`` times."""
    unit = math.isqrt(mi) << depth
    a = draw(st.integers(1, max(2, 96 // unit)))
    b = draw(st.integers(1, max(2, 96 // unit)).filter(lambda b: b != a))
    layout = partition_interleaved(ArrayConfig(nx=a * unit, ny=b * unit), mi)
    for _ in range(depth):
        layout = partition_localized(layout)
    return layout


def chained_origins(layout):
    """Origins by chaining quadrant splits: child q of k sits stride*(q%2*hx, q//2*hy) on."""
    m, cfg = layout.stride, layout.config
    origins = [(k % m, k // m) for k in range(layout.interleave_factor)]
    hx, hy = cfg.nx // m, cfg.ny // m
    for _ in range(layout.subdivisions):
        hx, hy = hx // 2, hy // 2
        origins = [(ox + m * (q % 2) * hx, oy + m * (q // 2) * hy) for ox, oy in origins for q in range(4)]
    return origins


LAYOUT_SHAPES = pytest.mark.parametrize("mi,depth", [(mi, d) for mi in (1, 4, 16) for d in range(4)])


@LAYOUT_SHAPES
@settings(max_examples=8)
@given(data=st.data())
def test_layout_index_arrays_match_enumeration_oracle(mi, depth, data):
    layout = data.draw(layouts(mi, depth))
    m, hx, hy = layout.stride, layout.side_x, layout.side_y
    origins = chained_origins(layout)
    assert layout.n_sub == len(origins)
    # The width is the narrower axis beam's, from the longer side; a split
    # halves the sides, so it doubles the group's beam width.
    base = beamwidth_uv(max(layout.config.nx, layout.config.ny) // m, layout.spacing_wl)
    assert layout.beam_width == pytest.approx(base * 2**depth, rel=1e-14)
    sub_index, local_x, local_y, origin_table = element_images(layout)
    np.testing.assert_array_equal(origin_table, origins)
    covered = np.zeros((layout.config.nx, layout.config.ny), dtype=int)
    lx, ly = np.arange(hx), np.arange(hy)
    for k, (ox, oy) in enumerate(origins):
        assert layout.origin(k) == (ox, oy)
        # x = origin_x + stride * local_x, and likewise for y.
        cells = np.ix_(ox + m * lx, oy + m * ly)
        assert (sub_index[cells] == k).all()
        np.testing.assert_array_equal(local_x[cells], np.broadcast_to(lx[:, None], (hx, hy)))
        np.testing.assert_array_equal(local_y[cells], np.broadcast_to(ly[None, :], (hx, hy)))
        covered[cells] += 1
    assert (covered == 1).all()
    for image in (sub_index, local_x, local_y):
        assert not image.flags.writeable


@pytest.mark.parametrize("nx,ny", [(2048, 2048), (1, 2**22), (2**22, 1)])
def test_array_element_ceiling(nx, ny):
    ArrayConfig(nx=nx, ny=ny)  # MAX_ELEMENTS itself is accepted
    with pytest.raises(ConfigError, match=r"^array\.nx \* array\.ny must be at most 4194304 \(2048 x 2048\)$"):
        ArrayConfig(nx=nx + 1, ny=ny)


def test_layout_arithmetic_allocates_no_element_arrays():
    tracemalloc.start()
    try:
        layout = partition_interleaved(ArrayConfig(nx=2048, ny=2048), 4)
        for _ in range(3):
            layout = partition_localized(layout)
        assert (layout.n_sub, layout.side_x) == (256, 128)
        assert layout.spacing_wl == pytest.approx(0.5)
        assert layout.origin(255) == (1 + 2 * 7 * 128, 1 + 2 * 7 * 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Composition and origin corrections


def origin_phase_correction(layout: SubArrayLayout, k: int, direction: UvPoint) -> complex:
    """Unit phasor aligning group k's coefficient phase to zero at its steering.

    A group steered via local coordinates is internally coherent but carries the
    plane-wave phase of its origin element; multiplying the group's weights by
    this factor removes it, which is what lets groups aimed at one direction add
    up exactly like the full aperture steered as one.
    """
    ox, oy = layout.origin(k)
    arg = 2.0 * math.pi * layout.config.spacing_wavelengths * (
        float(ox) * direction.u + float(oy) * direction.v
    )
    return complex(math.cos(arg), math.sin(arg))


def one_beam_per_group(rng: np.random.Generator, layout: SubArrayLayout):
    """Random beam weights, centres and unit shifts, beam k driving group k alone.

    Returns the compose arguments and each group's expected shift: its beam's
    shift times ``origin_phase_correction``, multiplied as Python complexes.
    """
    n = layout.n_sub
    subs = [random_awv(rng, layout.side_x, layout.side_y) for _ in range(n)]
    centers = [random_uv(rng, 0.9) for _ in range(n)]
    shifts = np.exp(2j * np.pi * rng.uniform(size=n)).tolist()
    group_shifts = [shifts[k] * origin_phase_correction(layout, k, centers[k]) for k in range(n)]
    beams = np.stack([sub.weights for sub in subs])
    return (beams, tuple((k,) for k in range(n)), centers, shifts), subs, group_shifts


def test_compose_full_awv_scatter_oracle():
    rng = np.random.default_rng(27)
    layout = partition_interleaved(ArrayConfig(), 4)
    args, subs, group_shifts = one_beam_per_group(rng, layout)
    full = compose_full_awv(*args, layout)
    sub_index, local_x, local_y, _ = element_images(layout)
    for x in range(0, 32, 5):
        for y in range(0, 32, 7):
            k = sub_index[x, y]
            lx, ly = local_x[x, y], local_y[x, y]
            assert full.weights[x, y] == pytest.approx(group_shifts[k] * subs[k].weights[lx, ly], abs=1e-12)


def test_compose_full_awv_validation():
    layout = partition_interleaved(ArrayConfig(), 4)
    sub = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    every_group = ((0, 1, 2, 3),)
    with pytest.raises(ValueError):
        compose_full_awv(sub.weights[None], every_group, [UvPoint(0.0, 0.0)], [1.0, 1.0], layout)
    with pytest.raises(ValueError):
        compose_full_awv(sub.weights[None], every_group, [UvPoint(0.0, 0.0)], [0.5], layout)


def test_compose_full_awv_rejects_wrong_group_shape():
    layout = partition_interleaved(ArrayConfig(), 4)
    sub = steering_weights((17, 16), 0.5, UvPoint(0.0, 0.0))
    with pytest.raises(ValueError, match="16x16"):
        compose_full_awv(sub.weights[None], ((0, 1, 2, 3),), [UvPoint(0.0, 0.0)], [1.0], layout)
    # One grid, not a stack of them: its message used to fail on beams.shape[2].
    sub = steering_weights((16, 16), 0.5, UvPoint(0.0, 0.0))
    with pytest.raises(ValueError, match=r"^layout has 4 groups of 16x16;"):
        compose_full_awv(sub.weights, ((0, 1, 2, 3),), [UvPoint(0.0, 0.0)], [1.0], layout)


@pytest.mark.parametrize(
    "assignment",
    [((0, 1), (1,), (2,), (3,)), ((0,), (1,), (2,), ()), ((0,), (1,), (2,), (3, 9)), ((0,), (1,), (2,), (-1, 3))],
    ids=["twice", "unassigned", "out-of-range", "negative"],
)
def test_composition_rejects_an_assignment_that_is_not_one_beam_per_group(assignment):
    # Reference a's plan, one beam per group, with its assignment replaced. A
    # group given to two beams took the later beam's weights silently, and a
    # group with no beam or past the layout failed with an unrelated error.
    sc = reference_scenario("a")
    traj = plan_trajectory(sc.orientation_start, sc.orientation_end, sc.ap_direction, sc.array)
    plan = plan_geometry(traj, sc.array)
    assert plan.assignment == ((0,), (1,), (2,), (3,))
    with pytest.raises(ValueError, match=r"^layout has 4 groups\b"):
        synthesize_plan(dataclasses.replace(plan, assignment=assignment))


def test_unit_tolerance_edge_is_shared_by_weights_and_shifts():
    assert array_model.UNIT_TOLERANCE == 1e-9
    Awv(np.full((2, 2), 1.0 + 5e-10, dtype=complex))
    with pytest.raises(ValueError, match="unit magnitude"):
        Awv(np.full((2, 2), 1.0 + 2e-9, dtype=complex))
    layout = partition_interleaved(ArrayConfig(), 4)
    beam = steering_stack((16, 16), layout.spacing_wl, [UvPoint(0.0, 0.0)])
    args = (beam, ((0, 1, 2, 3),), [UvPoint(0.0, 0.0)])
    compose_full_awv(*args, [1.0 + 5e-10], layout)
    with pytest.raises(ValueError, match="unit phasors"):
        compose_full_awv(*args, [1.0 + 2e-9], layout)


@LAYOUT_SHAPES
@settings(max_examples=8)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_compose_full_awv_equals_element_scatter(mi, depth, data, seed):
    layout = data.draw(layouts(mi, depth))
    args, subs, group_shifts = one_beam_per_group(np.random.default_rng(seed), layout)
    m = layout.stride
    shift_at = np.zeros((layout.config.nx, layout.config.ny), dtype=complex)
    weight_at = np.zeros_like(shift_at)
    for k, (ox, oy) in enumerate(chained_origins(layout)):
        for lx in range(layout.side_x):
            for ly in range(layout.side_y):
                shift_at[ox + m * lx, oy + m * ly] = group_shifts[k]
                weight_at[ox + m * lx, oy + m * ly] = subs[k].weights[lx, ly]
    # One numpy multiply forms the products: numpy's vectorised complex
    # multiply may round differently from Python's scalar one.
    full = compose_full_awv(*args, layout)
    assert np.array_equal(full.weights, shift_at * weight_at)
    assert not full.weights.flags.writeable


def test_origin_corrections_recover_full_aperture_steering():
    # Four interleaved groups steered together, with each group's plane-wave
    # origin phase removed, must equal the full array steered as one.
    cfg = ArrayConfig()
    layout = partition_interleaved(cfg, 4)
    rng = np.random.default_rng(28)
    for _ in range(5):
        d = random_uv(rng, 0.8)
        sub = steering_weights((16, 16), layout.spacing_wl, d)
        composed = compose_full_awv(sub.weights[None], ((0, 1, 2, 3),), [d], [1.0], layout)
        want = steering_weights((32, 32), cfg.spacing_wavelengths, d)
        np.testing.assert_allclose(composed.weights, want.weights, atol=1e-12)
        # The groups' own phasors, applied by hand, give the same grid.
        by_hand = [origin_phase_correction(layout, k, d) * sub.weights for k in range(4)]
        np.testing.assert_allclose(composed.weights, layout.scatter(np.stack(by_hand)), atol=1e-15)


def test_reinforced_gain_equals_full_aperture():
    cfg = ArrayConfig()
    layout = partition_interleaved(cfg, 4)
    d = UvPoint(0.25, 0.1)
    sub = steering_weights((16, 16), layout.spacing_wl, d)
    composed = compose_full_awv(sub.weights[None], ((0, 1, 2, 3),), [d], [1.0], layout)
    c = coefficient_points(composed, 0.25, 0.1, cfg.spacing_wavelengths)[0]
    assert 20.0 * math.log10(abs(c)) == pytest.approx(20.0 * math.log10(1024.0), abs=1e-9)


def test_opposed_shifts_cancel_coefficients():
    # Same steering, half the groups phase-flipped: exact destructive sum.
    cfg = ArrayConfig()
    layout = partition_interleaved(cfg, 4)
    d = UvPoint(0.15, -0.05)
    sub = steering_weights((16, 16), layout.spacing_wl, d)
    beams = np.stack([sub.weights, sub.weights])
    composed = compose_full_awv(beams, ((0, 3), (1, 2)), [d, d], [1.0, -1.0], layout)
    signs = [1.0, -1.0, -1.0, 1.0]
    by_hand = [signs[k] * origin_phase_correction(layout, k, d) * sub.weights for k in range(4)]
    np.testing.assert_allclose(composed.weights, layout.scatter(np.stack(by_hand)), atol=1e-15)
    toward = steering_weights(composed.shape, cfg.spacing_wavelengths, d)
    c = array_coefficient(composed.weights[None], toward.weights[None])[0]
    assert abs(c) < 1e-6


# ---------------------------------------------------------------------------
# Quantization and peak search


def test_quantize_phases_snaps_to_grid():
    rng = np.random.default_rng(29)
    awv = random_awv(rng, 8, 8)
    q2 = quantize_phases(awv, 2)
    steps = np.angle(q2.weights) / (math.pi / 2.0)
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
    np.testing.assert_allclose(np.abs(q2.weights), 1.0, atol=1e-12)
    # Snapping never moves a phase by more than half a step.
    diff = np.angle(q2.weights / awv.weights)
    assert np.abs(diff).max() <= math.pi / 4.0 + 1e-9


def test_quantize_phases_idempotent():
    rng = np.random.default_rng(30)
    awv = random_awv(rng, 6, 6)
    once = quantize_phases(awv, 3)
    twice = quantize_phases(once, 3)
    np.testing.assert_allclose(once.weights, twice.weights, atol=1e-12)


def test_steered_and_quantized_weights_are_read_only():
    awv = steering_weights((8, 6), 0.5, UvPoint(0.3, -0.2))
    for w in (awv.weights, quantize_phases(awv, 3).weights):
        assert w.flags.c_contiguous and not w.flags.writeable
        np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)


def test_quantize_phases_bit_range():
    awv = random_awv(np.random.default_rng(32), 4, 4)
    np.testing.assert_allclose(quantize_phases(awv, 52).weights, awv.weights, atol=1e-14)
    for bits in (0, 53, 5000):
        with pytest.raises(ConfigError, match="1 to 52 bits"):
            quantize_phases(awv, bits)


def test_peak_gain_finds_steered_maximum():
    rng = np.random.default_rng(31)
    for _ in range(3):
        p = random_uv(rng, 0.6)
        awv = steering_weights((16, 16), 0.5, p)
        g, at = peak_gain(awv, 0.5)
        assert g == pytest.approx(20.0 * math.log10(256.0), abs=0.01)
        assert math.hypot(at.u - p.u, at.v - p.v) < 0.01


# ---------------------------------------------------------------------------
# Byte rule: the shared plane-wave formula and the one peak-search loop must
# give the bits the separate formulas gave. These references are those
# formulas, word for word.


def reference_array_coefficient(awv: Awv, p: UvPoint, spacing_wl: float) -> complex:
    """Receive coefficient at ``p``: sum of weight times plane-wave offset over elements."""
    nx, ny = awv.shape
    arg = 2.0 * np.pi * spacing_wl * (
        np.arange(nx)[:, None] * p.u + np.arange(ny)[None, :] * p.v
    )
    delta = np.cos(arg) - 1j * np.sin(arg)
    return complex((awv.weights * delta).sum())


def reference_peak_gain(awv: Awv, spacing_wl: float) -> tuple[float, UvPoint]:
    """Maximum gain over the front hemisphere and where it occurs.

    Coarse scan on a ``PEAK_GRID``-squared UV grid masked to the unit disc,
    then a few shrinking local grid refinements around the best cell.
    """
    axis = np.linspace(-1.0, 1.0, PEAK_GRID)
    power = np.abs(coefficient_grid(awv, axis, axis, spacing_wl)) ** 2
    power[axis[:, None] ** 2 + axis[None, :] ** 2 > 1.0] = 0.0
    iu, iv = np.unravel_index(int(np.argmax(power)), power.shape)
    best_u, best_v = float(axis[iu]), float(axis[iv])
    best_p = float(power[iu, iv])
    box = 2.0 / (PEAK_GRID - 1)
    for _ in range(3):
        gu = np.clip(np.linspace(best_u - box, best_u + box, 17), -1.0, 1.0)
        gv = np.clip(np.linspace(best_v - box, best_v + box, 17), -1.0, 1.0)
        local = np.abs(coefficient_grid(awv, gu, gv, spacing_wl)) ** 2
        local[gu[:, None] ** 2 + gv[None, :] ** 2 > 1.0] = 0.0
        ju, jv = np.unravel_index(int(np.argmax(local)), local.shape)
        if local[ju, jv] > best_p:
            best_p = float(local[ju, jv])
            best_u, best_v = float(gu[ju]), float(gv[jv])
        box /= 8.0
    return 10.0 * math.log10(best_p), UvPoint(best_u, best_v)


disc_points = st.builds(
    lambda r, a: UvPoint(r * math.cos(a), r * math.sin(a)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)
# Random phases from a seed, or the weights steered at a point of the disc.
weight_kinds = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("steered"), disc_points),
)


def kind_weights(kind: tuple, nx: int, ny: int, spacing_wl: float) -> Awv:
    name, arg = kind
    if name == "random":
        return random_awv(np.random.default_rng(arg), nx, ny)
    return steering_weights((nx, ny), spacing_wl, arg)


@settings(max_examples=60)
@given(st.integers(1, 512), st.integers(1, 512), st.floats(0.05, 2.0), weight_kinds, disc_points)
# From 128 x 128 (256 KiB) up, numpy multiplies an unnamed temporary in place.
@example(128, 128, 0.25, ("random", 1), UvPoint(0.3, -0.2))
@example(128, 200, 0.05, ("steered", UvPoint(0.1, 0.2)), UvPoint(0.1, 0.2))
@example(512, 512, 0.5, ("steered", UvPoint(-0.7, 0.1)), UvPoint(-0.69, 0.1))
@example(300, 129, 1.7, ("random", 2), UvPoint(0.0, 0.99))
@example(1, 1, 2.0, ("random", 3), UvPoint(1.0, 0.0))
def test_array_coefficient_bit_equal_reference(nx, ny, spacing, kind, p):
    awv = kind_weights(kind, nx, ny, spacing)
    got = array_coefficient(awv.weights[None], steering_weights(awv.shape, spacing, p).weights[None])
    want = np.array([reference_array_coefficient(awv, p, spacing)])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=30)
@given(st.integers(1, 64), st.integers(1, 64), st.floats(0.05, 2.0), weight_kinds)
# Peaks at the rim, where the refinement grids run past [-1, 1] and are clipped;
# on the two pitches below the result depends on the clip.
@example(16, 16, 0.5, ("steered", UvPoint(1.0, 0.0)))
@example(32, 8, 0.25, ("steered", UvPoint(0.0, -1.0)))
@example(8, 16, 0.49975230753780747, ("steered", UvPoint(0.0, 1.0)))
@example(13, 13, 0.4371004367930479, ("steered", UvPoint(0.0, 1.0)))
@example(64, 64, 0.5, ("steered", UvPoint(-0.6, 0.8)))
@example(1, 1, 0.5, ("random", 4))
def test_peak_gain_bit_equal_reference(nx, ny, spacing, kind):
    awv = kind_weights(kind, nx, ny, spacing)
    g, at = peak_gain(awv, spacing)
    want_g, want_at = reference_peak_gain(awv, spacing)
    assert (g.hex(), at.u.hex(), at.v.hex()) == (want_g.hex(), want_at.u.hex(), want_at.v.hex())


def reference_path_coefficients(awv: Awv, phasors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Receive coefficients at the directions ``phasors`` were built for."""
    eu, ev = phasors
    return np.einsum("xk,xy,yk->k", eu, awv.weights, ev, optimize=True)


def reference_quantize_phases(awv: Awv, bits: int) -> np.ndarray:
    """Every weight snapped to the nearest of 2**bits uniformly spaced phases."""
    step = 2.0 * np.pi / (2**bits)
    return np.exp(1j * step * np.round(np.angle(awv.weights) / step))


def check_path_coefficients(nx: int, ny: int, k: int, spacing: float, kind: tuple, seed: int) -> None:
    # The phasors come from path_phasors, as path_coefficients requires: on an
    # axis of one element they are exactly 1, and the reference's separate
    # reduction of that axis then rounds nothing.
    awv = kind_weights(kind, nx, ny, spacing)
    rng = np.random.default_rng(seed)
    r, a = np.sqrt(rng.uniform(0.0, 1.0, k)), rng.uniform(0.0, 2.0 * np.pi, k)
    u, v = r * np.cos(a), r * np.sin(a)
    u[::7] = 0.0  # a zero offset phase, where signed zeros can differ
    phasors = path_phasors(awv.shape, u, v, spacing)
    got = path_coefficients(awv, phasors)
    assert got.view(np.uint64).tolist() == reference_path_coefficients(awv, phasors).view(np.uint64).tolist()


@settings(max_examples=80)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 300), st.floats(0.05, 2.0), weight_kinds,
       st.integers(0, 2**32 - 1))
def test_path_coefficients_bit_equal_reference(nx, ny, k, spacing, kind, seed):
    check_path_coefficients(nx, ny, k, spacing, kind, seed)


# Short sample counts, where the swapped product eu.T @ w moves last bits (on a
# square array at every count not a multiple of 4), on both sides of nx = ny
# and on a single row or column.
@pytest.mark.parametrize("k", [*range(1, 10), 63, 97])
@pytest.mark.parametrize("nx, ny", [(12, 5), (5, 12), (16, 16), (1, 7), (7, 1)])
def test_path_coefficients_bit_equal_reference_at_short_counts(nx, ny, k):
    check_path_coefficients(nx, ny, k, 0.5, ("random", k), nx * 1000 + k)


@settings(max_examples=100)
@given(st.integers(1, 52), st.integers(-1, 1), st.integers(0, 2**32 - 1))
@example(1, 0, 0)
@example(2, 1, 0)
@example(12, -1, 0)
@example(52, 0, 0)
def test_quantize_phases_bit_equal_reference(bits, side, seed):
    # Up to 12 bits the weight count sits one below, at or one above the level
    # count 2**bits + 1, so both sides of the table rule run.
    n = 2**bits + 1 + side if bits <= 12 else 64
    step = 2.0 * np.pi / (2**bits)
    rng = np.random.default_rng(seed)
    w = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    # Both ends of the phase range, both zero signs, a tie between two levels.
    tie = np.exp(1j * step * (int(rng.integers(-(2 ** (bits - 1)), 2 ** (bits - 1))) + 0.5))
    special = [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(1.0, -0.0), complex(1.0, 0.0), tie, np.exp(-1e-300j)]
    w[: len(special)] = special[:n]
    awv = Awv(w[None, :])
    got = quantize_phases(awv, bits).weights
    assert got.view(np.uint64).tolist() == reference_quantize_phases(awv, bits).view(np.uint64).tolist()


def test_awv_rejects_non_unit_magnitudes():
    with pytest.raises(ValueError):
        Awv(np.full((4, 4), 0.5 + 0.0j))
    with pytest.raises(ValueError):
        Awv(np.ones(16, dtype=complex))  # wrong rank
