"""Orientation and direction math for receive-beam planning.

Quaternions are scalar-first ``[w, x, y, z]`` unit rotations acting on vectors as
``v' = q v q*``. ``hamilton_product(a, b)`` composes so that ``b`` acts first:
rotating by ``a * b`` equals rotating by ``b`` and then by ``a``.

Euler angles follow the yaw/pitch/roll reading used throughout this package:
a quaternion factors as ``qz(psi) * qy(theta) * qx(phi)``.

Directions drop the roll. The unit vector for ``(phi, theta)`` is
``(-sin(theta), cos(theta) sin(phi), cos(theta) cos(phi))`` with the front
hemisphere at ``z >= 0``. Sine-space ("UV") coordinates are

    u = cos(theta) sin(phi),   v = sin(theta)

so a beam pattern steered in UV is shift-invariant there, which is what makes the
planner's constant-width circle model work.

Everything in this module is a pure function over immutable values; there is no
shared state to guard when calling it from several threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HemisphereError, InvalidUvError

_UNIT_TOL = 1e-9
_ZERO_TOL = 1e-12
# Unit-disc slack: a point with u*u + v*v up to 1 + DISC_SLACK counts as inside.
DISC_SLACK = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Unit rotation quaternion, scalar first.

    Construction renormalizes whenever the norm drifts by more than 1e-9, so any
    value handed out by this module is unit to within that tolerance.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if not math.isfinite(n):
            # The squares overflow from about 1.3e154: divide by the largest component first.
            parts = (self.w, self.x, self.y, self.z)
            if not all(map(math.isfinite, parts)):
                raise ValueError("quaternion components must be finite")
            m = max(map(abs, parts))
            for name, c in zip("wxyz", parts):
                object.__setattr__(self, name, c / m)
            n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if n < _ZERO_TOL:
            raise ValueError("quaternion norm is zero")
        if abs(n - 1.0) > _UNIT_TOL:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        """Rotation of ``angle`` radians about ``axis`` (need not be unit)."""
        ax = np.asarray(axis, dtype=float)
        n = float(np.linalg.norm(ax))
        if n < _ZERO_TOL:
            raise ValueError("rotation axis is zero")
        s = math.sin(angle / 2.0) / n
        return cls(math.cos(angle / 2.0), ax[0] * s, ax[1] * s, ax[2] * s)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def canonical(self) -> "Quaternion":
        """The w >= 0 representative of this rotation (q and -q act identically)."""
        if self.w < 0.0:
            return Quaternion(-self.w, -self.x, -self.y, -self.z)
        return self


@dataclass(frozen=True)
class EulerAngles:
    """Yaw ``phi``, pitch ``theta`` and roll ``psi`` in radians."""

    phi: float
    theta: float
    psi: float = 0.0


@dataclass(frozen=True)
class UvPoint:
    """A direction in sine space; must lie inside the closed unit disc."""

    u: float
    v: float

    def __post_init__(self) -> None:
        # Written as "not inside" so that NaN is rejected too.
        if not self.u * self.u + self.v * self.v <= 1.0 + DISC_SLACK:
            raise InvalidUvError(f"({self.u}, {self.v}) is not a point of the unit disc")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered UV samples of the apparent AP path, one read-only ``(n, 2)`` array.

    Row k is sample k as ``(u, v)``; indexing and iteration give UvPoints.
    """

    uv: np.ndarray
    length: float = field(init=False, repr=False)  # trajectory_length, measured once, at construction

    def __post_init__(self) -> None:
        uv = np.array(self.uv, dtype=float)
        if uv.ndim != 2 or uv.shape[1] != 2 or len(uv) == 0:
            raise ValueError(f"trajectory needs one or more (u, v) rows, got shape {uv.shape}")
        # Written as "not inside" so that a NaN row is rejected too.
        outside = np.nonzero(~(uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1] <= 1.0 + DISC_SLACK))[0]
        if outside.size:
            u, v = uv[outside[0]].tolist()
            raise InvalidUvError(f"trajectory row {outside[0]} ({u}, {v}) is not a point of the unit disc")
        uv.setflags(write=False)
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "length", trajectory_length(self))

    def __len__(self) -> int:
        return len(self.uv)

    def __iter__(self):
        return (UvPoint(u, v) for u, v in self.uv.tolist())

    def __getitem__(self, i: int) -> UvPoint:
        return UvPoint(*self.uv[i].tolist())

    def u_array(self) -> np.ndarray:
        return self.uv[:, 0]

    def v_array(self) -> np.ndarray:
        return self.uv[:, 1]


def hamilton_product(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """Quaternion product q1 * q2 (q2's rotation is applied first)."""
    w1, x1, y1, z1 = q1.w, q1.x, q1.y, q1.z
    w2, x2, y2, z2 = q2.w, q2.x, q2.y, q2.z
    return Quaternion(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _axis_angle(q: Quaternion) -> tuple[np.ndarray, float]:
    """Unit axis and rotation angle in [0, pi] of the canonical representative."""
    qc = q.canonical()
    s = math.sqrt(qc.x * qc.x + qc.y * qc.y + qc.z * qc.z)
    angle = 2.0 * math.atan2(s, qc.w)
    if s < _ZERO_TOL:
        return np.array([0.0, 0.0, 1.0]), angle
    return np.array([qc.x, qc.y, qc.z]) / s, angle


def euler_to_quat(e: EulerAngles) -> Quaternion:
    """Build qz(psi) * qy(theta) * qx(phi) from yaw/pitch/roll."""
    c1, s1 = math.cos(e.phi / 2.0), math.sin(e.phi / 2.0)
    c2, s2 = math.cos(e.theta / 2.0), math.sin(e.theta / 2.0)
    c3, s3 = math.cos(e.psi / 2.0), math.sin(e.psi / 2.0)
    return Quaternion(
        c1 * c2 * c3 + s1 * s2 * s3,
        s1 * c2 * c3 - c1 * s2 * s3,
        c1 * s2 * c3 + s1 * c2 * s3,
        c1 * c2 * s3 - s1 * s2 * c3,
    )


def euler_to_uv(e: EulerAngles) -> UvPoint:
    """Project a front-hemisphere direction into sine space."""
    if abs(e.phi) > math.pi / 2.0 + 1e-12:
        raise HemisphereError(f"yaw {e.phi} rad points behind the array plane")
    return UvPoint(math.cos(e.theta) * math.sin(e.phi), math.sin(e.theta))


def uv_to_euler(p: UvPoint) -> EulerAngles:
    """Recover yaw and pitch from sine space (roll is zero by construction)."""
    w = math.sqrt(max(0.0, 1.0 - p.u * p.u - p.v * p.v))
    return EulerAngles(math.atan2(p.u, w), math.asin(min(1.0, max(-1.0, p.v))))


def uv_to_direction(p: UvPoint) -> np.ndarray:
    """Unit direction vector for a sine-space point."""
    w = math.sqrt(max(0.0, 1.0 - p.u * p.u - p.v * p.v))
    return np.array([-p.v, p.u, w])


def apparent_ap_rotation(q1: Quaternion, q2: Quaternion) -> Quaternion:
    """Rotation the AP appears to make in the HMD frame when the head goes q1 -> q2.

    The head rotation is q2 * q1'; seen from the display the world turns the
    opposite way, which is its conjugate q1 * q2'.
    """
    return hamilton_product(q1, q2.conjugate())


def sample_trajectory(q1: Quaternion, q2: Quaternion, ap_dir: UvPoint, n: int) -> Trajectory:
    """Sample the apparent AP path in UV space during a head rotation q1 -> q2.

    Point k applies the fraction k/(n-1) of the apparent rotation to the AP
    direction vector and reprojects. Raises HemisphereError if any sample leaves
    the front hemisphere.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    rot = apparent_ap_rotation(q1, q2)
    axis, angle = _axis_angle(rot)
    if angle < _UNIT_TOL:
        return Trajectory(np.tile([ap_dir.u, ap_dir.v], (n, 1)))
    d0 = uv_to_direction(ap_dir)
    beta = np.linspace(0.0, 1.0, n) * angle
    cb = np.cos(beta)
    sb = np.sin(beta)
    # Rodrigues' rotation, one component at a time: d0 cos + (k x d0) sin + k (k.d0)(1 - cos).
    kdd = float(np.dot(axis, d0))
    fade = kdd * (1.0 - cb)
    (ax, ay, az), (dx, dy, dz) = axis.tolist(), d0.tolist()
    x = dx * cb + (ay * dz - az * dy) * sb + ax * fade
    y = dy * cb + (az * dx - ax * dz) * sb + ay * fade
    z = dz * cb + (ax * dy - ay * dx) * sb + az * fade
    bad = np.nonzero(z < -1e-9)[0]
    if bad.size:
        raise HemisphereError(
            f"trajectory sample {int(bad[0])} of {n} leaves the front hemisphere"
        )
    return Trajectory(np.column_stack([y, -x]))


def trajectory_length(t: Trajectory) -> float:
    """Cumulative Euclidean length of the sampled path in UV space."""
    return float(np.hypot(*np.diff(t.uv, axis=0).T).sum())
