"""A closed-form oracle for a covrage plan's pattern, checked against the sweep at 256² to 1024².

Every group of a plan without phase quantisation is one steered phasor grid,
so beam b's receive coefficient at p separates into closed forms:

    C_b(p) = shift_b * D(side_x, d_eff, c_u - p_u) * D(side_y, d_eff, c_v - p_v) * S_b(p)
    D(n, d, x) = sum over l < n of exp(2j pi d l x)
    S_b(p) = sum over g in beam b of exp(2j pi d o_g . (c_b - p))

with c_b the beam's centre, d the element pitch, d_eff the groups' pitch and
o_g group g's origin. The oracle reads only the plan's fields; it shares no
code with the weights' composition (``compose_full_awv``, ``scatter``,
``steering_stack``) or with the sweep's contraction (``path_coefficients``),
and it takes each origin from ``chained_origins``, which enumerates the
quadrant splits independently of ``SubArrayLayout.origin``.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from covrage.array_model import ArrayConfig, beamwidth_uv, path_coefficients, path_phasors
from covrage.geometry import Trajectory
from covrage.planner import BeamPlan, plan_geometry, synthesize_plan

from test_array_model import chained_origins


def rounding_bound(cfg: ArrayConfig) -> float:
    """First-order bound on |sweep - oracle| for an array of N = nx * ny elements.

    Each of the sweep's two contraction stages sums at most max(nx, ny) terms,
    which adds at most that many eps of the sum of magnitudes, N; each unit
    term's phase argument, up to 2 pi d (nx + ny) in size, rounds to about that
    many eps. Twice the sum covers the oracle's own rounding. A single beam
    steered at broadside, where every sum is coherent, reads about 50 N eps at
    1024², against 10,500 N eps here: 2.4e-12 of its peak coefficient N.
    """
    n = cfg.nx + cfg.ny
    return 2.0 * (n + 2.0 * math.pi * cfg.spacing_wavelengths * n) * cfg.nx * cfg.ny * np.finfo(float).eps


def dirichlet(n: int, d: float, x: np.ndarray) -> np.ndarray:
    """``D(n, d, x)`` at each x, summed term by term."""
    return np.exp(2j * np.pi * d * np.outer(np.arange(n), x)).sum(axis=0)


def oracle_coefficients(plan: BeamPlan, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The plan's receive coefficient at each (u[k], v[k]) from the closed form."""
    layout = plan.layout
    d = layout.config.spacing_wavelengths
    d_eff = layout.stride * d
    origins = np.array(chained_origins(layout), dtype=float)
    total = np.zeros(len(u), dtype=complex)
    for center, shift, groups in zip(plan.beam_centers, plan.sync_shifts, plan.assignment):
        du, dv = center.u - u, center.v - v
        o = origins[list(groups)]
        s = np.exp(2j * np.pi * d * (np.outer(o[:, 0], du) + np.outer(o[:, 1], dv))).sum(axis=0)
        total += shift * dirichlet(layout.side_x, d_eff, du) * dirichlet(layout.side_y, d_eff, dv) * s
    return total


def group_width(side: int, interleave: int) -> float:
    m = math.isqrt(interleave)
    return beamwidth_uv(side // m, m * ArrayConfig().spacing_wavelengths)


def path_length(side: int, interleave: int, depth: int, stretch: float) -> float:
    """A path length that puts a plan at ``depth`` splits.

    At depth s the groups' beams cover about ``(8**s * interleave - 2**(s-1)) * w``
    of path (``planner.subdivision_level``), w the unsplit group's beam width. The
    length is ``stretch`` times a quarter of depth 0's budget, or ``stretch``
    times the budget of depth s - 1.
    """
    s = max(depth - 1, 0)
    budget = (8.0**s * interleave - 2.0 ** (s - 1)) * group_width(side, interleave)
    return stretch * (budget / 4.0 if depth == 0 else budget)


def straight_path(length: float, angle: float, spacing: float) -> Trajectory:
    """A straight path through broadside, samples at most ``spacing`` apart."""
    t = np.linspace(-length / 2.0, length / 2.0, max(64, math.ceil(length / spacing) + 2))
    return Trajectory(np.column_stack([t * math.cos(angle), t * math.sin(angle)]))


@settings(max_examples=3)
@given(
    side=st.sampled_from([256, 512, 1024]),
    interleave=st.sampled_from([4, 16]),
    depth=st.integers(0, 2),
    stretch=st.floats(1.2, 1.8),
    angle=st.floats(0.0, 2.0 * math.pi),
)
@example(side=1024, interleave=4, depth=2, stretch=1.5, angle=0.7)
@example(side=1024, interleave=16, depth=0, stretch=1.5, angle=2.0)
@example(side=512, interleave=16, depth=2, stretch=1.3, angle=4.0)
@example(side=256, interleave=16, depth=1, stretch=1.5, angle=5.5)
@example(side=256, interleave=4, depth=0, stretch=1.2, angle=0.0)
def test_sweep_coefficients_match_the_closed_form_plan_oracle(side, interleave, depth, stretch, angle):
    length = path_length(side, interleave, depth, stretch)
    assume(length <= 1.6)
    # Half the coverage radius apart: the cover walk needs less than the radius.
    traj = straight_path(length, angle, group_width(side, interleave) * 2.0**depth / 4.0)
    cfg = ArrayConfig(side, side)
    awv, plan = synthesize_plan(plan_geometry(traj, cfg, interleave=interleave))
    assert plan.layout.subdivisions == depth
    u, v = traj.u_array(), traj.v_array()
    swept = path_coefficients(awv, path_phasors(awv.shape, u, v, cfg.spacing_wavelengths))
    assert np.abs(swept - oracle_coefficients(plan, u, v)).max() <= rounding_bound(cfg)
