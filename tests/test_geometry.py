"""Rotation and coordinate conversions checked against matrix oracles."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covrage.errors import HemisphereError, InvalidUvError
from covrage.geometry import (
    EulerAngles,
    Quaternion,
    Trajectory,
    UvPoint,
    _axis_angle,
    apparent_ap_rotation,
    euler_to_quat,
    euler_to_uv,
    hamilton_product,
    sample_trajectory,
    trajectory_length,
    uv_to_direction,
    uv_to_euler,
)

# ---------------------------------------------------------------------------
# Oracles: plain rotation matrices, built without touching the code under test.


def rotation_matrix(q: Quaternion) -> np.ndarray:
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def euler_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    cf, sf = math.cos(phi), math.sin(phi)
    ct, stt = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    rx = np.array([[1, 0, 0], [0, cf, -sf], [0, sf, cf]])
    ry = np.array([[ct, 0, stt], [0, 1, 0], [-stt, 0, ct]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry @ rx


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


class RecoveredAngles(NamedTuple):
    """Yaw, pitch and roll read back from a quaternion.

    ``gimbal_lock`` flags that the quaternion sat at |pitch| = pi/2 where yaw
    and roll degenerate; the roll is then folded into ``phi`` and ``psi`` is zero.
    """

    phi: float
    theta: float
    psi: float
    gimbal_lock: bool = False


def quat_to_euler(q: Quaternion) -> RecoveredAngles:
    """The round-trip oracle of euler_to_quat: undo qz(psi) * qy(theta) * qx(phi) with

        phi   = atan2(2(wx + yz), 1 - 2(x^2 + y^2))
        theta = asin(2(wy - xz))
        psi   = atan2(2(wz + xy), 1 - 2(y^2 + z^2))

    which is the closed form whose round trips are exact; the sign inside the
    arcsine is forced by the two atan2 rows. Near |pitch| = pi/2 the gimbal-lock
    branch stands in for the arcsine.
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    sin_theta = 2.0 * (w * y - x * z)
    if abs(sin_theta) >= 1.0 - 1e-9:
        theta = math.copysign(math.pi / 2.0, sin_theta)
        phi = wrap_angle(2.0 * math.atan2(x, w))
        return RecoveredAngles(phi, theta, 0.0, gimbal_lock=True)
    theta = math.asin(sin_theta)
    phi = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    psi = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return RecoveredAngles(phi, theta, psi)


def axis_angle_of(q: Quaternion) -> tuple[np.ndarray, float]:
    vec = np.array([q.x, q.y, q.z])
    s = np.linalg.norm(vec)
    angle = 2.0 * math.atan2(s, q.w)
    return (vec / s if s > 0 else vec), angle


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    vec = rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    return Quaternion(*vec)


# Reference rotations for the trajectory tests: a vector rotated by a
# quaternion, fractional powers of a rotation, and the sine-space point of a
# direction vector. Each has its own tests below.


def rotate_vector(q: Quaternion, v) -> np.ndarray:
    """Rotate a 3-vector by q (active rotation)."""
    vec = np.asarray(v, dtype=float)
    qv = np.array([q.x, q.y, q.z])
    t = 2.0 * np.cross(qv, vec)
    return vec + q.w * t + np.cross(qv, t)


def slerp_power(q: Quaternion, a: float) -> Quaternion:
    """Fractional rotation q**a: same axis, angle scaled by ``a``.

    Uses the shortest-arc representative of q, so powers interpolate the short
    way around; ``a`` may extrapolate up to 2.
    """
    if not 0.0 <= a <= 2.0:
        raise ValueError(f"power {a} outside [0, 2]")
    axis, angle = axis_angle_of(q.canonical())
    if angle < 1e-9:
        return Quaternion.identity()
    half = 0.5 * a * angle
    s = math.sin(half)
    return Quaternion(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


def direction_to_uv(d) -> UvPoint:
    """Sine-space point of a unit direction; rejects the rear hemisphere."""
    vec = np.asarray(d, dtype=float)
    if vec[2] < -1e-9:
        raise HemisphereError("direction points behind the array plane")
    return UvPoint(float(vec[1]), float(-vec[0]))


# ---------------------------------------------------------------------------
# Quaternion algebra


def test_hamilton_product_matches_matrix_composition():
    rng = np.random.default_rng(11)
    for _ in range(30):
        q1, q2 = random_quaternion(rng), random_quaternion(rng)
        got = rotation_matrix(hamilton_product(q1, q2))
        want = rotation_matrix(q1) @ rotation_matrix(q2)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotate_vector_matches_matrix():
    rng = np.random.default_rng(12)
    for _ in range(30):
        q = random_quaternion(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(rotate_vector(q, v), rotation_matrix(q) @ v, atol=1e-12)


def test_conjugate_inverts_rotation():
    rng = np.random.default_rng(13)
    q = random_quaternion(rng)
    both = rotation_matrix(hamilton_product(q, q.conjugate()))
    np.testing.assert_allclose(both, np.eye(3), atol=1e-12)


def test_quaternion_renormalizes_and_rejects_zero():
    q = Quaternion(1.0, 1.0, 0.0, 0.0)
    assert q.w == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert q.x == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        Quaternion(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("scale", [1.4e154, 1e200, 1e308])
def test_quaternion_with_overflowing_squares_normalises(scale):
    # w*w overflows, so the norm is taken after dividing by the largest component.
    q = Quaternion(scale, -0.5 * scale, 0.0, 0.25 * scale)
    small = Quaternion(1.0, -0.5, 0.0, 0.25)
    np.testing.assert_allclose(dataclasses.astuple(q), dataclasses.astuple(small), rtol=0, atol=1e-15)
    assert Quaternion(scale, 0.0, 0.0, 0.0) == Quaternion.identity()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_quaternion_rejects_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        Quaternion(1.0, bad, 0.0, 0.0)


def test_quaternion_canonical_flips_sign():
    q = Quaternion(-0.5, 0.5, 0.5, 0.5)
    c = q.canonical()
    assert c.w == 0.5
    np.testing.assert_allclose(rotation_matrix(c), rotation_matrix(q), atol=1e-12)


def test_slerp_power_zero_is_identity():
    rng = np.random.default_rng(14)
    q = random_quaternion(rng)
    np.testing.assert_allclose(
        rotation_matrix(slerp_power(q, 0.0)), np.eye(3), atol=1e-12
    )


def test_slerp_power_quarter_of_120_degrees():
    # 120 degrees about (1,1,1)/sqrt(3), raised to 0.25: 30 degrees, same axis.
    axis = np.ones(3) / math.sqrt(3.0)
    q = Quaternion.from_axis_angle(axis, math.radians(120.0))
    got_axis, got_angle = axis_angle_of(slerp_power(q, 0.25))
    assert got_angle == pytest.approx(math.radians(30.0), abs=1e-12)
    np.testing.assert_allclose(got_axis, axis, atol=1e-12)


def test_slerp_power_square_equals_product():
    rng = np.random.default_rng(15)
    q = random_quaternion(rng)
    np.testing.assert_allclose(
        rotation_matrix(slerp_power(q, 2.0)),
        rotation_matrix(hamilton_product(q, q)),
        atol=1e-12,
    )


@given(st.floats(0.0, 2.0), st.floats(0.1, 3.0))
def test_slerp_power_angle_scales(frac, angle):
    q = Quaternion.from_axis_angle((0.0, 1.0, 0.0), angle)
    _, got = axis_angle_of(slerp_power(q, frac))
    assert got == pytest.approx(frac * angle, abs=1e-9)


def test_slerp_power_domain():
    q = Quaternion.from_axis_angle((0.0, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        slerp_power(q, -0.1)
    with pytest.raises(ValueError):
        slerp_power(q, 2.1)


# ---------------------------------------------------------------------------
# Euler conversions


def test_euler_to_quat_matches_matrix_oracle():
    rng = np.random.default_rng(16)
    for _ in range(40):
        phi, theta, psi = rng.uniform(-1.2, 1.2, size=3)
        q = euler_to_quat(EulerAngles(phi, theta, psi))
        np.testing.assert_allclose(
            rotation_matrix(q), euler_matrix(phi, theta, psi), atol=1e-12
        )


def test_quat_to_euler_pure_pitch():
    q = Quaternion(math.cos(math.radians(22.5)), 0.0, math.sin(math.radians(22.5)), 0.0)
    e = quat_to_euler(q)
    assert e.phi == pytest.approx(0.0, abs=1e-12)
    assert e.theta == pytest.approx(math.radians(45.0), abs=1e-12)
    assert e.psi == pytest.approx(0.0, abs=1e-12)
    assert not e.gimbal_lock


@given(
    st.floats(-math.pi + 1e-6, math.pi - 1e-6),
    st.floats(-1.45, 1.45),
    st.floats(-math.pi + 1e-6, math.pi - 1e-6),
)
def test_euler_round_trip(phi, theta, psi):
    e = quat_to_euler(euler_to_quat(EulerAngles(phi, theta, psi)))
    assert e.phi == pytest.approx(phi, abs=1e-6)
    assert e.theta == pytest.approx(theta, abs=1e-6)
    assert math.remainder(e.psi - psi, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-6)


def test_quat_round_trip_preserves_action():
    # Avoiding |pitch| > 89 degrees where yaw and roll degenerate.
    rng = np.random.default_rng(17)
    basis = np.eye(3)
    kept = 0
    while kept < 40:
        q = random_quaternion(rng)
        if abs(quat_to_euler(q).theta) > math.radians(89.0):
            continue
        kept += 1
        q2 = euler_to_quat(quat_to_euler(q))
        for v in basis:
            np.testing.assert_allclose(rotate_vector(q2, v), rotate_vector(q, v), atol=1e-6)


def test_gimbal_lock_flagged():
    e = quat_to_euler(euler_to_quat(EulerAngles(0.3, math.pi / 2.0, 0.1)))
    assert e.gimbal_lock
    assert e.theta == pytest.approx(math.pi / 2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Sine-space coordinates


def test_euler_to_uv_origin():
    p = euler_to_uv(EulerAngles(0.0, 0.0))
    assert (p.u, p.v) == (0.0, 0.0)


def test_euler_to_uv_example():
    p = euler_to_uv(EulerAngles(math.radians(85.0), math.radians(50.0)))
    # Direct trig: u = cos(theta) sin(phi), v = sin(theta).
    assert p.u == pytest.approx(math.cos(math.radians(50)) * math.sin(math.radians(85)), abs=1e-12)
    assert p.v == pytest.approx(math.sin(math.radians(50)), abs=1e-12)
    assert p.u == pytest.approx(0.6404, abs=1e-4)
    assert p.v == pytest.approx(0.7660, abs=1e-4)


def test_uv_to_euler_example():
    e = uv_to_euler(UvPoint(0.5, 0.5))
    assert math.degrees(e.theta) == pytest.approx(30.0, abs=1e-9)
    assert math.degrees(e.phi) == pytest.approx(35.264, abs=1e-3)
    origin = uv_to_euler(UvPoint(0.0, 0.0))
    assert (origin.phi, origin.theta) == (0.0, 0.0)


def test_uv_point_rejects_outside_disc():
    with pytest.raises(InvalidUvError):
        UvPoint(0.8, 0.7)
    # The closed boundary itself is a valid direction.
    UvPoint(1.0, 0.0)


@pytest.mark.parametrize("u, v", [(math.nan, 0.0), (0.0, math.nan)])
def test_uv_point_rejects_nan(u, v):
    # NaN fails every comparison, so the unit-disc test is written as "not inside".
    with pytest.raises(InvalidUvError, match="not a point of the unit disc"):
        UvPoint(u, v)


@given(st.floats(0.0, 0.999), st.floats(0.0, 2.0 * math.pi))
def test_uv_round_trip(radius, angle):
    p = UvPoint(radius * math.cos(angle), radius * math.sin(angle))
    q = euler_to_uv(uv_to_euler(p))
    assert q.u == pytest.approx(p.u, abs=1e-9)
    assert q.v == pytest.approx(p.v, abs=1e-9)


def test_uv_direction_round_trip_and_convention():
    p = UvPoint(0.3, -0.4)
    d = uv_to_direction(p)
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    # Broadside is +z; u grows along +y, v along -x.
    np.testing.assert_allclose(uv_to_direction(UvPoint(0.0, 0.0)), [0.0, 0.0, 1.0], atol=1e-15)
    assert d[1] == pytest.approx(p.u)
    assert d[0] == pytest.approx(-p.v)
    back = direction_to_uv(d)
    assert back.u == pytest.approx(p.u, abs=1e-12)
    assert back.v == pytest.approx(p.v, abs=1e-12)


def test_uv_euler_direction_consistency():
    # The euler and direction routes into sine space must agree.
    rng = np.random.default_rng(18)
    for _ in range(20):
        r = math.sqrt(rng.uniform(0.0, 0.96))
        a = rng.uniform(0.0, 2.0 * math.pi)
        p = UvPoint(r * math.cos(a), r * math.sin(a))
        e = uv_to_euler(p)
        q = euler_to_uv(e)
        assert q.u == pytest.approx(p.u, abs=1e-12)
        assert q.v == pytest.approx(p.v, abs=1e-12)


# ---------------------------------------------------------------------------
# Apparent AP motion


def test_apparent_ap_rotation_oracle():
    rng = np.random.default_rng(19)
    q1, q2 = random_quaternion(rng), random_quaternion(rng)
    got = rotation_matrix(apparent_ap_rotation(q1, q2))
    want = rotation_matrix(q1) @ rotation_matrix(q2).T
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_sample_trajectory_static():
    q = Quaternion.from_axis_angle((0.0, 0.0, 1.0), 0.7)
    ap = UvPoint(0.2, -0.1)
    traj = sample_trajectory(q, q, ap, 9)
    assert len(traj) == 9
    assert all(p == ap for p in traj)


def test_sample_trajectory_endpoints():
    q1 = Quaternion.identity()
    q2 = Quaternion.from_axis_angle((1.0, 0.0, 0.0), 0.4)
    ap = UvPoint(0.1, 0.05)
    traj = sample_trajectory(q1, q2, ap, 33)
    assert traj[0].u == pytest.approx(ap.u, abs=1e-12)
    assert traj[0].v == pytest.approx(ap.v, abs=1e-12)
    # Final sample equals the full apparent rotation applied to the AP vector.
    rot = apparent_ap_rotation(q1, q2)
    end = direction_to_uv(rotate_vector(rot, uv_to_direction(ap)))
    assert traj[-1].u == pytest.approx(end.u, abs=1e-9)
    assert traj[-1].v == pytest.approx(end.v, abs=1e-9)


def test_sample_trajectory_points_follow_partial_rotations():
    rng = np.random.default_rng(20)
    q1, q2 = random_quaternion(rng), random_quaternion(rng)
    # Clamp the apparent swing so everything stays in the hemisphere.
    rot = apparent_ap_rotation(q1, q2)
    axis, angle = axis_angle_of(rot)
    if angle > 0.5:
        rot = slerp_power(rot, 0.5 / angle)
    ap = UvPoint(0.05, 0.0)
    d0 = uv_to_direction(ap)
    n = 17
    # Build the expected path directly from fractional rotation powers.
    for k in (0, 5, 11, 16):
        frac = slerp_power(rot, k / (n - 1))
        want = direction_to_uv(rotate_vector(frac, d0))
        # Recover q1, q2 pair giving exactly `rot` apparent motion.
        got = sample_trajectory(Quaternion.identity(), rot.conjugate(), ap, n)[k]
        assert got.u == pytest.approx(want.u, abs=1e-9)
        assert got.v == pytest.approx(want.v, abs=1e-9)


def test_sample_trajectory_leaves_hemisphere():
    q1 = Quaternion.identity()
    q2 = Quaternion.from_axis_angle((1.0, 0.0, 0.0), 2.5)
    with pytest.raises(HemisphereError, match=r"sample \d+ of 64"):
        sample_trajectory(q1, q2, UvPoint(0.0, 0.0), 64)


def test_sample_trajectory_needs_two_samples():
    q = Quaternion.identity()
    with pytest.raises(ValueError):
        sample_trajectory(q, q, UvPoint(0.0, 0.0), 1)


def reference_sample_trajectory(q1: Quaternion, q2: Quaternion, ap_dir: UvPoint, n: int) -> Trajectory:
    """sample_trajectory as it was written with ``np.cross`` over (n, 3) direction rows.

    ``sample_trajectory`` builds each direction component from scalars instead
    and must give the same bits.
    """
    axis, angle = _axis_angle(apparent_ap_rotation(q1, q2))
    if angle < 1e-9:
        return Trajectory(np.tile([ap_dir.u, ap_dir.v], (n, 1)))
    d0 = uv_to_direction(ap_dir)
    beta = np.linspace(0.0, 1.0, n) * angle
    cb = np.cos(beta)[:, None]
    sb = np.sin(beta)[:, None]
    kxd = np.cross(axis, d0)
    kdd = float(np.dot(axis, d0))
    dirs = d0 * cb + kxd * sb + axis * (kdd * (1.0 - cb))
    bad = np.nonzero(dirs[:, 2] < -1e-9)[0]
    if bad.size:
        raise HemisphereError(f"trajectory sample {int(bad[0])} of {n} leaves the front hemisphere")
    return Trajectory(np.column_stack([dirs[:, 1], -dirs[:, 0]]))


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: sum(c * c for c in q) > 0.01),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda a: sum(c * c for c in a) > 0.01),
    st.floats(0.0, 3.0),
    st.floats(-0.7, 0.7),
    st.floats(-0.7, 0.7),
    st.integers(2, 400),
)
def test_sample_trajectory_bit_equal_reference(q1, axis, angle, u, v, n):
    q1 = Quaternion(*q1)
    q2 = hamilton_product(Quaternion.from_axis_angle(axis, angle), q1)
    ap = UvPoint(u, v)
    try:
        want = reference_sample_trajectory(q1, q2, ap, n)
    except HemisphereError as e:
        with pytest.raises(HemisphereError, match=re.escape(str(e))):
            sample_trajectory(q1, q2, ap, n)
        return
    assert sample_trajectory(q1, q2, ap, n).uv.tobytes() == want.uv.tobytes()


def test_trajectory_length_basics():
    assert trajectory_length(Trajectory([[0.1, 0.2]])) == 0.0
    two = Trajectory([[0.0, 0.0], [0.3, 0.0]])
    assert trajectory_length(two) == pytest.approx(0.3, abs=1e-15)


def test_trajectory_length_quarter_circle():
    ts = np.linspace(0.0, math.pi / 2.0, 2001)
    pts = Trajectory(np.column_stack([0.4 * np.cos(ts), 0.4 * np.sin(ts)]))
    assert trajectory_length(pts) == pytest.approx(math.pi * 0.4 / 2.0, abs=1e-3)


def test_trajectory_container_protocol():
    pts = (UvPoint(0.0, 0.0), UvPoint(0.1, 0.0), UvPoint(0.2, 0.0))
    traj = Trajectory([(p.u, p.v) for p in pts])
    assert len(traj) == 3
    assert traj[1] == pts[1]
    assert tuple(traj) == pts
    assert traj.uv.shape == (3, 2)
    assert not traj.uv.flags.writeable
    np.testing.assert_allclose(traj.u_array(), [0.0, 0.1, 0.2])
    np.testing.assert_allclose(traj.v_array(), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Trajectory(())
    with pytest.raises(ValueError):
        Trajectory([0.1, 0.2, 0.3])
    with pytest.raises(InvalidUvError):
        Trajectory([[0.0, 0.0], [0.9, 0.9]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trajectory_rejects_non_finite_rows(bad):
    # NaN fails every comparison, so the unit-disc test is written as "not inside".
    with pytest.raises(InvalidUvError, match=r"row 1 \("):
        Trajectory([[0.0, 0.0], [bad, 0.0], [0.01, 0.0]])
    with pytest.raises(InvalidUvError, match="row 2"):
        Trajectory([[0.0, 0.0], [0.01, 0.0], [0.02, bad]])


def test_importing_geometry_loads_only_its_own_modules():
    # The package root re-exports nothing, so one module pulls in only what it imports.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, covrage.geometry; print(' '.join(sorted(m for m in sys.modules if m.startswith('covrage'))))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["covrage", "covrage.errors", "covrage.geometry"]
