"""Uniform rectangular array model: weights, patterns, gains, sub-array layouts.

Directions are sine-space points ``UvPoint(u, v)``. Element (x, y) of a lattice
with pitch ``d`` (in carrier wavelengths) sees a plane wave arriving from
``(u, v)`` with a phase offset of ``exp(-2j pi d (x u + y v))`` relative to
element (0, 0). Conjugating that offset element-for-element steers the array;
summing weight times offset over the aperture gives the receive coefficient,
and ``10 log10 |C|^2`` the gain in dBi.

The offset is written in three forms. At one point it is the conjugate of the
steering weights toward that point; ``steering_stack`` steers many points in
one pass, and ``array_coefficient`` sums weights times the conjugate of the
steerings its caller passes, grid by grid over stacks, so one steering serves
several weight vectors. On many points it separates into per-axis phasors,
``exp(-2j pi d x u)`` and in y, which ``path_phasors`` and ``coefficient_grid``
contract with the weights; ``path_coefficients`` does so by two products,
the longer axis first, in the order that keeps the bits of numpy's planned
three-operand contraction without its per-call path search. At one element
it is a scalar: a group steered in its own coordinates keeps its origin
element's offset, which ``compose_full_awv`` cancels at the beam's centre
with that origin's phasor. Where bits must not move, an operand of numpy's
vectorised complex multiply is bound to a name: an unnamed temporary is
multiplied in place, which rounds differently, as can swapped operands.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .geometry import UvPoint

# Half-power width of a uniform aperture, as a fraction of wavelength/aperture.
HALF_POWER_CONSTANT = 0.886

# Finest phase quantization: a 2*pi / 2**52 step is a few float64 ulps of pi,
# so a finer step falls below the resolution of a phase.
MAX_PHASE_BITS = 52

# Most elements an array may have, 2048 x 2048: a larger config is refused
# before anything is allocated for it.
MAX_ELEMENTS = 2**22

# Points per axis of the peak search's coarse sine-space grid.
PEAK_GRID = 512

# Floor under sweep and gain-map gains: far below anything a plot would show,
# but finite so downstream arithmetic stays total.
GAIN_FLOOR_DBI = -40.0

UNIT_TOLERANCE = 1e-9  # most a unit weight's or shift's magnitude may stray from 1


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
        if self.nx * self.ny > MAX_ELEMENTS:
            raise ConfigError(f"array.nx * array.ny must be at most {MAX_ELEMENTS} (2048 x 2048)")


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
        if not np.allclose(mag, 1.0, atol=UNIT_TOLERANCE, rtol=0.0):
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
    stride: int = field(init=False, repr=False)
    side_x: int = field(init=False, repr=False)
    side_y: int = field(init=False, repr=False)
    n_sub: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mi, nx, ny = self.interleave_factor, self.config.nx, self.config.ny
        if mi < 1:
            raise ConfigError(f"interleave factor {mi} must be positive")
        m = math.isqrt(mi)
        if m * m != mi:
            raise ConfigError(f"interleave factor {mi} is not a perfect square")
        if nx % m or ny % m:
            raise ConfigError(f"array {nx}x{ny} does not divide into {m}x{m} interleaves")
        d = self.subdivisions
        for depth in range(d):
            if nx // (m << depth) % 2 or ny // (m << depth) % 2:
                raise ConfigError(f"groups of {nx // (m << depth)}x{ny // (m << depth)} cannot be halved")
        # Computed once: a plan reads these per group.
        object.__setattr__(self, "stride", m)
        object.__setattr__(self, "side_x", nx // (m << d))
        object.__setattr__(self, "side_y", ny // (m << d))
        object.__setattr__(self, "n_sub", mi << (2 * d))

    @property
    def spacing_wl(self) -> float:
        """Effective element pitch inside one group, in wavelengths."""
        return self.stride * self.config.spacing_wavelengths

    @property
    def beam_width(self) -> float:
        """Half-power width in sine space of a group's narrower axis beam, from its longer side; doubles per split."""
        return beamwidth_uv(max(self.side_x, self.side_y), self.spacing_wl)

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
        """Read-only element grid ``[x, y]`` from every group's grid, ``groups[k, lx, ly]``.

        ``groups`` is the full ``(n_sub, side_x, side_y)`` stack. Its group
        axis splits into ry, rx, then qy, qx per split; x reads (qx..., lx, rx)
        row-major and y reads (qy..., ly, ry).
        """
        m, d, hx, hy = self.stride, self.subdivisions, self.side_x, self.side_y
        stacked = groups.reshape((m, m) + (2,) * (2 * d) + (hx, hy))
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


def steering_stack(shape: tuple[int, int], spacing_wl: float, points: Sequence[UvPoint]) -> np.ndarray:
    """Steering weights toward each of ``points``, one writable grid each: ``[b, x, y]``.

    Weights cancel each element's phase offset toward the point. Coordinates
    are local to the addressed (sub-)array; pass its effective pitch.
    """
    nx, ny = shape
    uv = np.array([(p.u, p.v) for p in points], dtype=float).reshape(-1, 2, 1, 1)
    # The phases are formed in the imaginary half of the output, so the stack
    # is the one large allocation. Adding 0.0 turns a -0.0 sine into +0.0, as
    # cos(arg) + 1j*sin(arg) does.
    w = np.empty((len(uv), nx, ny), dtype=complex)
    arg = w.imag
    np.add(np.arange(nx)[:, None] * uv[:, 0], np.arange(ny)[None, :] * uv[:, 1], out=arg)
    arg *= 2.0 * np.pi * spacing_wl
    np.cos(arg, out=w.real)
    np.sin(arg, out=arg)
    w.imag += 0.0
    return w


def steering_weights(shape: tuple[int, int], spacing_wl: float, direction: UvPoint) -> Awv:
    """``steering_stack`` at one direction, as an Awv."""
    return Awv._trusted(steering_stack(shape, spacing_wl, (direction,))[0])


def array_coefficient(weights: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """Receive coefficients toward points, given the steering weights at them.

    Both arguments are stacks of grids ``[b, x, y]``, and grid b of ``weights``
    meets grid b of ``toward``: one coefficient per grid, each the pairwise sum
    of that grid's ``.sum()``.
    """
    offset = np.conj(toward)
    # In place with the weights still the left operand: the bits of a fresh product.
    np.multiply(weights, offset, out=offset)
    return offset.reshape(-1, weights.shape[-2] * weights.shape[-1]).sum(axis=1)


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


def compose_full_awv(beams: np.ndarray, assignment, centers: Sequence[UvPoint], shifts, layout: SubArrayLayout) -> Awv:
    """Full weight vector from beams, their groups, centres and unit shifts.

    ``beams[b]``, group-local weights steered at ``centers[b]``, drive the
    groups ``assignment[b]``; each group takes exactly one beam. Group k of beam
    b gets ``shifts[b] * o_k * beams[b]``: ``o_k = exp(2j pi d (ox u + oy v))``
    at the centre cancels its origin's offset. Analog weights cannot scale.
    """
    n, sx, sy = layout.n_sub, layout.side_x, layout.side_y
    if beams.shape[1:] != (sx, sy) or not len(beams) == len(assignment) == len(centers) == len(shifts):
        got = f"got {len(assignment)}, {len(centers)} and {len(shifts)} for beams shaped {beams.shape}"
        raise ValueError(f"layout has {n} groups of {sx}x{sy}; expected {len(beams)} group sets, centres, shifts; {got}")
    if sorted(g for subs in assignment for g in subs) != list(range(n)):
        raise ValueError(f"layout has {n} groups; the assignment must give each exactly one beam")
    # Scalar math.cos/sin: numpy's SIMD kernels round differently.
    scale = 2.0 * math.pi * layout.config.spacing_wavelengths
    beam_of = [0] * n
    sub_shifts = [0j] * n
    for b, (subs, center, shift) in enumerate(zip(assignment, centers, shifts)):
        for g in subs:
            ox, oy = layout.origin(g)
            arg = scale * (ox * center.u + oy * center.v)
            beam_of[g] = b
            sub_shifts[g] = shift * complex(math.cos(arg), math.sin(arg))
    sub_shifts = np.asarray(sub_shifts, dtype=complex)
    # Written as "not within" so that NaN and infinite shifts are rejected too.
    if not (np.abs(np.abs(sub_shifts) - 1.0) <= UNIT_TOLERANCE).all():
        raise ValueError("beam shifts must be unit phasors")
    stacked = beams[np.asarray(beam_of, dtype=np.intp)]
    # The shift stays the left operand: swapped operands can round differently.
    np.multiply(sub_shifts[:, None, None], stacked, out=stacked)
    return Awv._trusted(layout.scatter(stacked))


def quantize_phases(awv: Awv, bits: int) -> Awv:
    """Snap every weight to the nearest of 2**bits uniformly spaced phases.

    A weight's level is its phase over the step, rounded: an integer from
    -2**(bits-1) to 2**(bits-1), both ends kept, since exp(-i pi) and exp(i pi)
    differ in their last bits. With fewer levels than weights, the 2**bits + 1
    phasors are computed once as a table and each weight looks its level up;
    otherwise, as at 52 bits, each weight takes its own ``exp``. Both give the
    same bits.
    """
    if not 1 <= bits <= MAX_PHASE_BITS:
        raise ConfigError(f"phase quantization needs 1 to {MAX_PHASE_BITS} bits")
    step = 2.0 * np.pi / (2**bits)
    level = np.round(np.angle(awv.weights) / step)
    if 2**bits + 1 >= level.size:
        return Awv._trusted(np.exp(1j * step * level))
    half = 2 ** (bits - 1)
    table = np.exp(1j * step * np.arange(-half, half + 1, dtype=float))
    return Awv._trusted(table[(level + half).astype(np.intp)])


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
    """Receive coefficients at the directions ``phasors`` were built for.

    Two products: the weights with the longer axis's phasors, then one dot per
    direction with the other axis's. This is the path and operand order numpy
    2.4's greedy planner picks for the contraction ``xk,xy,yk->k``, and it
    gives that contraction's bits for phasors from ``path_phasors``. Swapped
    operands do not: ``eu.T @ w`` for ``w.T @ eu`` moves last bits, on a
    square array at every sample count that is not a multiple of 4.
    """
    eu, ev = phasors
    w = awv.weights
    if w.shape[0] >= w.shape[1]:
        t = w.T @ eu
        return np.matmul(t.T[:, None, :], ev.T[:, :, None]).reshape(-1)
    s = ev.T @ w.T
    return np.matmul(s[:, None, :], eu.T[:, :, None]).reshape(-1)


def coefficient_points(awv: Awv, u, v, spacing_wl: float) -> np.ndarray:
    """Receive coefficients at paired directions (u[k], v[k])."""
    return path_coefficients(awv, path_phasors(awv.shape, u, v, spacing_wl))


def coefficient_grid(awv: Awv, u: np.ndarray, v: np.ndarray, spacing_wl: float) -> np.ndarray:
    """Receive coefficient on the tensor grid u x v; result indexed [u, v].

    The plane-wave offset separates per axis, so this is two small matrix
    products rather than a sum per cell. A square array on a square grid
    builds its one axis table once.
    """
    nx, ny = awv.shape
    eu = _axis_phasors(nx, u, spacing_wl)
    ev = eu if nx == ny and np.array_equal(u, v) else _axis_phasors(ny, v, spacing_wl)
    return eu.T @ (awv.weights @ ev)


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
