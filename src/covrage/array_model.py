"""Uniform rectangular array model: weights, patterns, gains, sub-array layouts.

Directions are sine-space points ``UvPoint(u, v)``. Element (x, y) of a lattice
with pitch ``d`` (in carrier wavelengths) sees a plane wave arriving from
``(u, v)`` with a phase offset of ``exp(-2j pi d (x u + y v))`` relative to
element (0, 0). Conjugating that offset element-for-element steers the array;
summing weight times offset over the aperture gives the receive coefficient,
and ``10 log10 |C|^2`` the gain in dBi.

The offset is written in two forms. At one point it is the conjugate of the
steering weights toward that point, so ``array_coefficient`` sums weights times
``conj(steering_weights)``. On many points it separates into per-axis phasors,
``exp(-2j pi d x u)`` and likewise in y, which ``path_phasors`` and
``coefficient_grid`` contract with the weights. Where bits must not move, an
operand of numpy's vectorised complex multiply is bound to a name: an unnamed
temporary is multiplied in place, which rounds differently, as can swapped
operands.

Sub-array layouts assign every physical element to exactly one group and give it
local coordinates inside that group. Interleaving takes every sqrt(M)-th element,
which multiplies the effective pitch by sqrt(M) while keeping the full aperture,
so each group's beam keeps the full array's width. Localized splitting divides a
group into its four quadrant blocks, halving the side and doubling the beamwidth.

Functions are pure and arrays handed out are marked read-only, so values can be
shared across threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import UvPoint

# Half-power width of a uniform aperture, as a fraction of wavelength/aperture.
HALF_POWER_CONSTANT = 0.886

# Finest phase quantization: a 2*pi / 2**52 step is a few float64 ulps of pi,
# so a finer step falls below the resolution of a phase.
MAX_PHASE_BITS = 52

# Points per axis of the peak search's coarse sine-space grid.
PEAK_GRID = 512

# Floor under sweep and gain-map gains: far below anything a plot would show,
# but finite so downstream arithmetic stays total.
GAIN_FLOOR_DBI = -40.0


def floored_gain_dbi(power: np.ndarray) -> np.ndarray:
    """``10 log10`` of each receive power, floored at ``GAIN_FLOOR_DBI`` (a zero power too)."""
    return np.maximum(10.0 * np.log10(np.maximum(power, 1e-300)), GAIN_FLOOR_DBI)


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the full receive array."""

    nx: int = 32
    ny: int = 32
    spacing_wavelengths: float = 0.25

    def __post_init__(self) -> None:
        if not math.isfinite(self.spacing_wavelengths):
            raise ConfigError("array spacing_wavelengths must be finite")
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("array dimensions must be positive")
        if self.spacing_wavelengths <= 0.0:
            raise ConfigError("element spacing must be positive")
        # Steering phases reach 2*pi*spacing*side; past the float range they are
        # infinite and every beam width 0.
        try:
            span = 2.0 * math.pi * self.spacing_wavelengths * max(self.nx, self.ny)
        except OverflowError:  # a side too large for a float
            span = math.inf
        if not math.isfinite(span):
            raise ConfigError("2*pi*array.spacing_wavelengths*max(array.nx, array.ny) must not overflow a float")


class Awv:
    """Antenna weight vector: one unit-magnitude complex weight per element.

    Indexed ``weights[x, y]``. The backing array is frozen at construction.
    """

    __slots__ = ("weights",)

    def __init__(self, weights) -> None:
        w = np.ascontiguousarray(weights, dtype=complex)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-D grid")
        mag = np.abs(w)
        if not np.allclose(mag, 1.0, atol=1e-9, rtol=0.0):
            worst = float(np.abs(mag - 1.0).max())
            raise ValueError(f"analog weights must have unit magnitude (drift {worst:.2e})")
        w.setflags(write=False)
        self.weights = w

    @classmethod
    def _trusted(cls, w: np.ndarray) -> "Awv":
        """Wrap a C-contiguous complex grid that is unit-magnitude by construction."""
        awv = object.__new__(cls)
        w.setflags(write=False)
        awv.weights = w
        return awv

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def phases(self) -> np.ndarray:
        return np.angle(self.weights)


@dataclass(frozen=True, eq=False)
class SubArrayLayout:
    """Partition of the full lattice into equal square groups: index arithmetic.

    ``interleave_factor`` = m*m interleaved groups, each split into quadrants
    ``subdivisions`` times. Group k has the digits ``[ry, rx]`` in base m, then
    one ``[qy, qx]`` bit pair per split; its local element (lx, ly) sits at
    ``x = (Qx * side_x + lx) * m + rx`` (likewise y), Qx reading the qx bits
    first split first. ``stride`` = m is the full-lattice step between local
    neighbours.
    """

    config: ArrayConfig
    interleave_factor: int
    subdivisions: int

    def __post_init__(self) -> None:
        mi, nx, ny = self.interleave_factor, self.config.nx, self.config.ny
        if mi < 1:
            raise ConfigError(f"interleave factor {mi} must be positive")
        m = self.stride
        if m * m != mi:
            raise ConfigError(f"interleave factor {mi} is not a perfect square")
        if nx % m or ny % m:
            raise ConfigError(f"array {nx}x{ny} does not divide into {m}x{m} interleaves")
        for depth in range(self.subdivisions):
            if nx // (m << depth) % 2 or ny // (m << depth) % 2:
                raise ConfigError(f"groups of {nx // (m << depth)}x{ny // (m << depth)} cannot be halved")

    @property
    def stride(self) -> int:
        return math.isqrt(self.interleave_factor)

    @property
    def side_x(self) -> int:
        return self.config.nx // (self.stride << self.subdivisions)

    @property
    def side_y(self) -> int:
        return self.config.ny // (self.stride << self.subdivisions)

    @property
    def n_sub(self) -> int:
        return self.interleave_factor << (2 * self.subdivisions)

    @property
    def spacing_wl(self) -> float:
        """Effective element pitch inside one group, in wavelengths."""
        return self.stride * self.config.spacing_wavelengths

    @property
    def beam_width(self) -> float:
        """Half-power width of one group's beam in sine space (doubles per split)."""
        return beamwidth_uv(min(self.side_x, self.side_y), self.spacing_wl)

    @property
    def half_width(self) -> float:
        """Coverage radius of one group's beam: half its half-power width."""
        return self.beam_width / 2.0

    def origin(self, k):
        """Full-array (x, y) of group k's local (0, 0) element; k may be an array."""
        m, d = self.stride, self.subdivisions
        r, q = divmod(k, 1 << (2 * d))
        qx = qy = 0
        for shift in range(2 * d - 2, -1, -2):
            qx, qy = 2 * qx + ((q >> shift) & 1), 2 * qy + ((q >> (shift + 1)) & 1)
        return r % m + m * qx * self.side_x, r // m + m * qy * self.side_y

    def scatter(self, groups: np.ndarray) -> np.ndarray:
        """Read-only element grid ``[x, y]`` from group grids ``groups[k, lx, ly]``.

        The group axes split into ry, rx, then qy, qx per split, then lx, ly;
        x reads (qx..., lx, rx) row-major and y reads (qy..., ly, ry).
        """
        m, d, hx, hy = self.stride, self.subdivisions, self.side_x, self.side_y
        stacked = np.broadcast_to(groups, (self.n_sub, hx, hy)).reshape((m, m) + (2,) * (2 * d) + (hx, hy))
        qy = range(2, 2 + 2 * d, 2)
        grid = stacked.transpose(*(a + 1 for a in qy), 2 + 2 * d, 1, *qy, 3 + 2 * d, 0)
        grid = grid.reshape(self.config.nx, self.config.ny)
        grid.setflags(write=False)
        return grid


def partition_interleaved(cfg: ArrayConfig, mi: int) -> SubArrayLayout:
    """Split the aperture into ``mi`` interleaved groups (mi a perfect square).

    Group index runs row-major over the (x mod m, y mod m) offsets, so for mi=4
    the groups 0..3 start at offsets (0,0), (1,0), (0,1), (1,1).
    """
    return SubArrayLayout(cfg, mi, 0)


def partition_localized(layout: SubArrayLayout) -> SubArrayLayout:
    """Subdivide every group of ``layout`` into its four quadrant blocks.

    Children of group k are k*4 + (0..3), row-major over (half-x, half-y); the
    lattice stride is untouched so the effective pitch stays the same while the
    side halves.
    """
    return SubArrayLayout(layout.config, layout.interleave_factor, layout.subdivisions + 1)


def steering_weights(shape: tuple[int, int], spacing_wl: float, direction: UvPoint) -> Awv:
    """Weights that cancel each element's phase offset toward ``direction``.

    Coordinates are local to the addressed (sub-)array; pass its effective pitch.
    """
    nx, ny = shape
    arg = 2.0 * np.pi * spacing_wl * (
        np.arange(nx)[:, None] * direction.u + np.arange(ny)[None, :] * direction.v
    )
    # cos and sin go straight into one complex grid, with no temporaries.
    # Adding 0.0 turns a -0.0 sine into +0.0, as cos(arg) + 1j*sin(arg) does.
    w = np.empty((nx, ny), dtype=complex)
    np.cos(arg, out=w.real)
    np.sin(arg, out=w.imag)
    w.imag += 0.0
    return Awv._trusted(w)


def array_coefficient(awv: Awv, p: UvPoint, spacing_wl: float) -> complex:
    """Receive coefficient at ``p``: sum of weight times plane-wave offset over elements."""
    # Named: numpy multiplies into an unnamed temporary in place, which rounds differently.
    offset = np.conj(steering_weights(awv.shape, spacing_wl, p).weights)
    return complex((awv.weights * offset).sum())


def beamwidth_uv(n_side: int, spacing_wl: float) -> float:
    """Half-power beamwidth in sine space; independent of steering direction."""
    if n_side < 1 or spacing_wl <= 0.0:
        raise ConfigError("beamwidth needs a positive side and pitch")
    return HALF_POWER_CONSTANT / (n_side * spacing_wl)


def beamwidth_angular(n_side: int, spacing_wl: float, alpha: float) -> float:
    """Half-power beamwidth in radians for a beam steered ``alpha`` off broadside.

    Diverges toward the array plane; rejected within 1e-9 of |alpha| = pi/2.
    """
    c = math.cos(alpha)
    if c < 1e-9:
        raise ConfigError("beam degenerates at the array plane")
    return HALF_POWER_CONSTANT / (n_side * spacing_wl * c)


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


def compose_full_awv(sub_awvs, shifts, layout: SubArrayLayout) -> Awv:
    """Assemble the full weight vector from per-group weights and unit shifts.

    Element (x, y) receives ``shifts[k] * sub_awvs[k][local coords]`` where k is
    its owning group. Shift magnitudes must be 1: analog weights cannot scale.
    """
    if len(sub_awvs) != layout.n_sub or len(shifts) != layout.n_sub:
        raise ValueError(f"layout has {layout.n_sub} groups; got {len(sub_awvs)} weight sets and {len(shifts)} shifts")
    shifts = np.asarray(shifts, dtype=complex)
    if not np.allclose(np.abs(shifts), 1.0, atol=1e-9, rtol=0.0):
        raise ValueError("group-level shifts must be unit phasors")
    stacked = np.stack([awv.weights for awv in sub_awvs])
    if stacked.shape[1:] != (layout.side_x, layout.side_y):
        raise ValueError(f"group weights must be {layout.side_x}x{layout.side_y}; got {stacked.shape[1]}x{stacked.shape[2]}")
    # The shift stays the left operand: numpy's vectorised complex multiply
    # can round differently when its operands swap.
    np.multiply(shifts[:, None, None], stacked, out=stacked)
    return Awv._trusted(layout.scatter(stacked))


def quantize_phases(awv: Awv, bits: int) -> Awv:
    """Snap every weight to the nearest of 2**bits uniformly spaced phases."""
    if not 1 <= bits <= MAX_PHASE_BITS:
        raise ConfigError(f"phase quantization needs 1 to {MAX_PHASE_BITS} bits")
    step = 2.0 * np.pi / (2**bits)
    return Awv._trusted(np.exp(1j * step * np.round(np.angle(awv.weights) / step)))


def _axis_phasors(n: int, c, spacing_wl: float) -> np.ndarray:
    """One axis of the plane-wave offset: ``exp(-2j pi d a c[k])`` indexed [a, k], read-only."""
    e = np.exp(-2j * np.pi * spacing_wl * np.outer(np.arange(n), c))
    e.setflags(write=False)
    return e


def path_phasors(shape: tuple[int, int], u, v, spacing_wl: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis plane-wave offsets along paired directions (u[k], v[k]).

    Returns ``eu[x, k] = exp(-2j pi d x u[k])`` and ``ev[y, k]`` likewise, read-only.
    They depend on the lattice and the path, not the weights, so one pair
    serves every weight vector of that shape evaluated on the same path.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape:
        raise ValueError("u and v must pair up")
    nx, ny = shape
    return _axis_phasors(nx, u, spacing_wl), _axis_phasors(ny, v, spacing_wl)


def path_coefficients(awv: Awv, phasors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Receive coefficients at the directions ``phasors`` were built for."""
    eu, ev = phasors
    return np.einsum("xk,xy,yk->k", eu, awv.weights, ev, optimize=True)


def coefficient_points(awv: Awv, u, v, spacing_wl: float) -> np.ndarray:
    """Receive coefficients at paired directions (u[k], v[k])."""
    return path_coefficients(awv, path_phasors(awv.shape, u, v, spacing_wl))


def coefficient_grid(awv: Awv, u: np.ndarray, v: np.ndarray, spacing_wl: float) -> np.ndarray:
    """Receive coefficient on the tensor grid u x v; result indexed [u, v].

    The plane-wave offset separates per axis, so this is two small matrix
    products rather than a sum per cell.
    """
    nx, ny = awv.shape
    return _axis_phasors(nx, u, spacing_wl).T @ (awv.weights @ _axis_phasors(ny, v, spacing_wl))


def peak_gain(awv: Awv, spacing_wl: float) -> tuple[float, UvPoint]:
    """Maximum gain over the front hemisphere and where it occurs.

    A ``PEAK_GRID``-squared scan of the disc, then three 17-squared grids of
    shrinking half-width around the best point so far.
    """
    cell = 2.0 / (PEAK_GRID - 1)
    best_p, best_u, best_v = -1.0, 0.0, 0.0
    for n, half in ((PEAK_GRID, 1.0), (17, cell), (17, cell / 8), (17, cell / 64)):
        gu = np.clip(np.linspace(best_u - half, best_u + half, n), -1.0, 1.0)
        gv = np.clip(np.linspace(best_v - half, best_v + half, n), -1.0, 1.0)
        power = np.abs(coefficient_grid(awv, gu, gv, spacing_wl)) ** 2
        power[gu[:, None] ** 2 + gv[None, :] ** 2 > 1.0] = 0.0
        iu, iv = np.unravel_index(int(np.argmax(power)), power.shape)
        if power[iu, iv] > best_p:
            best_p = float(power[iu, iv])
            best_u, best_v = float(gu[iu]), float(gv[iv])
    return 10.0 * math.log10(best_p), UvPoint(best_u, best_v)
