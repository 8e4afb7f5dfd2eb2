"""Output checks against computations made apart from the program.

Each check returns a list of problems; an empty list means the output passed.
Problems found by the peak check start with ``PEAK``, so a run can tell the
known ``peak_gain`` fault from any other failure. Nothing here calls covrage:
paths come from the benchmark's own Rodrigues rotation, gains from direct sums
over the weights, link levels from the benchmark's own loss formula, and rates
from the packaged CSV read by the benchmark.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

PEAK = "PEAK"

GAIN_FLOOR_DBI = -40.0
HALF_POWER_CONSTANT = 0.886
# Element pitch in wavelengths: covrage's default, which no generated config
# overrides.
PITCH = 0.25
COVERAGE_SLACK = 1e-12
# Paths are compared to 1e-9 in sine space, link levels and exact gains to
# 1e-9 dB, and patterns as linear power to 1e-9 of the array's peak power N^2.
PATH_TOL = 1e-9
DB_TOL = 1e-9
POWER_TOL = 1e-9
# Float rounding of a dB gain near 60-120 dBi is below 1e-12 dB; a peak search
# that misses the maximum by more than this is a fault, not rounding.
PEAK_TOL_DB = 1e-10


def read_mcs_table(path: Path) -> list[tuple[int, float, float]]:
    """(index, sensitivity_dbm, datarate_mbps) rows of the packaged CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    return [(int(i), float(s), float(d)) for i, s, d in rows[1:]]


def expected_rate(level_dbm: float, table) -> tuple[int, float]:
    """Highest-rate entry whose sensitivity the level meets, else (-1, 0)."""
    best = (-1, 0.0)
    for index, sensitivity, rate in table:
        if sensitivity <= level_dbm and rate > best[1]:
            best = (index, rate)
    return best


def log_distance_loss(distance_m: float, exponent: float = 2.0,
                      reference_loss_db: float = 68.0, reference_m: float = 1.0) -> float:
    return reference_loss_db + 10.0 * exponent * math.log10(distance_m / reference_m)


def direct_power(weights: np.ndarray, u: float, v: float) -> float:
    """|sum_xy w[x, y] exp(-2 pi i d (x u + y v))|^2 summed element by element."""
    nx, ny = weights.shape
    x = np.arange(nx)[:, None]
    y = np.arange(ny)[None, :]
    c = np.sum(weights * np.exp(-2j * np.pi * PITCH * (x * u + y * v)))
    return float(c.real * c.real + c.imag * c.imag)


def gain_matches(gain_dbi: float, power: float, n_elements: int) -> bool:
    """A reported dBi gain (floored at -40) agrees with a direct linear power."""
    reported = 10.0 ** (gain_dbi / 10.0)
    expected = max(power, 10.0 ** (GAIN_FLOOR_DBI / 10.0))
    return abs(reported - expected) <= POWER_TOL * float(n_elements) ** 2


def path_problems(points: np.ndarray, turn, label: str) -> list[str]:
    own = turn.path(len(points))
    err = float(np.abs(points - own).max())
    if err > PATH_TOL:
        return [f"{label}: sampled path is {err:.3g} from the Rodrigues rotation"]
    return []


# ---------------------------------------------------------------- headset ---

def subbeam_width(n: int, interleave: int, depth: int) -> float:
    m = math.isqrt(interleave)
    side = n // m // 2**depth
    return HALF_POWER_CONSTANT / (side * m * PITCH)


def check_plan(inp, n_elements_side: int, plan) -> list[str]:
    """Coverage, beam budget and sampled path of one covrage_plan result."""
    problems = []
    traj = np.array([(p.u, p.v) for p in plan.trajectory])
    if inp.n_samples is not None and len(traj) != inp.n_samples:
        problems.append(f"plan has {len(traj)} samples, asked for {inp.n_samples}")
    problems += path_problems(traj, inp.turn, "plan")
    depth = plan.coverage.subdivisions
    groups = inp.interleave * 4**depth
    if plan.layout.n_sub != groups:
        problems.append(f"layout has {plan.layout.n_sub} groups, depth {depth} gives {groups}")
    if len(plan.beam_centers) > groups:
        problems.append(f"{len(plan.beam_centers)} beams exceed {groups} groups")
    half = subbeam_width(n_elements_side, inp.interleave, depth) / 2.0
    centres = np.array([(c.u, c.v) for c in plan.beam_centers])
    dist = np.hypot(traj[:, None, 0] - centres[None, :, 0], traj[:, None, 1] - centres[None, :, 1])
    worst = float(dist.min(axis=1).max())
    if worst > half + COVERAGE_SLACK:
        problems.append(f"a sample lies {worst:.6g} from every beam centre (half-width {half:.6g})")
    return problems


# --------------------------------------------------------- strategy study ---

VARIANTS = (
    ("covrage", ""),
    ("baseline-start", ""),
    ("baseline-edge", ""),
    ("baseline-mid", ""),
    ("covrage", "no_sync"),
    ("covrage", "delayed_first"),
)


def check_study(inp, rows, weights: list[np.ndarray], table, sample_rng) -> list[str]:
    """One compare_strategies result against direct sums, the loss formula and the CSV.

    ``weights`` are the six variants' weight grids; ``sample_rng`` picks the
    seeded subset of samples whose gain is summed directly. The peak check is
    applied only to the fault scenarios (see README).
    """
    problems = []
    if [(r.strategy, r.ablation) for r in rows] != list(VARIANTS):
        return [f"variants {[(r.strategy, r.ablation) for r in rows]} are not the six expected"]
    n_el = inp.n * inp.n
    loss = log_distance_loss(inp.distance_m)
    for row, w in zip(rows, weights):
        label = f"{row.strategy}/{row.ablation or '-'}"
        res = row.result
        pts = np.array([(p.u, p.v) for p in res.trajectory])
        problems += path_problems(pts, inp.turn, label)
        for k in sample_rng.choice(len(pts), size=min(4, len(pts)), replace=False):
            power = direct_power(w, pts[k, 0], pts[k, 1])
            if not gain_matches(float(res.gain_dbi[k]), power, n_el):
                problems.append(f"{label}: gain at sample {k} differs from the direct sum")
        rx_err = float(np.abs(res.rx_power_dbm - (inp.eirp_dbm - loss + res.gain_dbi)).max())
        if rx_err > DB_TOL:
            problems.append(f"{label}: received power is {rx_err:.3g} dB off EIRP - loss + gain")
        for k, (level, entry) in enumerate(zip(res.rx_power_dbm, res.mcs)):
            if (entry.index, entry.datarate_mbps) != expected_rate(float(level), table):
                problems.append(f"{label}: sample {k} rate {entry.index} is not the CSV's choice")
                break
        if row.strategy == "baseline-start" and inp.phase_bits is None:
            if abs(float(res.gain_dbi[0]) - 20.0 * math.log10(n_el)) > DB_TOL:
                problems.append(f"{label}: gain at sample 0 is not 20 log10(N)")
        if inp.fault:
            low = float(res.noise_penalty_db.min())
            if res.peak_gain_dbi < float(res.gain_dbi.max()) - PEAK_TOL_DB or low < -PEAK_TOL_DB:
                problems.append(f"{PEAK} {label}: hemisphere peak is {-low:.3g} dB below a sample's gain")
    return problems


# -------------------------------------------------------------- CLI bulk ---

SCHEMAS = {
    "awv.csv": "# covrage-awv-v1",
    "sweep.csv": "# covrage-sweep-v1",
    "gainmap.csv": "# covrage-gainmap-v1",
    "compare.csv": "# covrage-compare-v1",
    "manifest.json": '  "schema": "covrage-manifest-v1",',
    "summary.json": '  "schema": "covrage-sweep-summary-v1",',
}
# Data rows after the header lines of each CSV.
HEADER_LINES = {"awv.csv": 2, "sweep.csv": 2, "gainmap.csv": 3, "compare.csv": 2}


def check_files(files: dict[str, bytes], expected: dict[str, int | None]) -> list[str]:
    """Exactly the expected files, each with its schema line and CSV row count.

    ``expected`` maps each file name to its data-row count (None for JSON).
    JSON files are pretty-printed with the schema as their first key, so their
    schema line is the second line.
    """
    if set(files) != set(expected):
        return [f"output files {sorted(files)}, expected {sorted(expected)}"]
    problems = []
    for name, rows in expected.items():
        lines = files[name].split(b"\n", 2)
        first = lines[1] if rows is None and len(lines) > 1 else lines[0]
        if first.decode("utf-8", "replace") != SCHEMAS[name]:
            problems.append(f"{name} does not start with its schema line")
        if rows is not None:
            found = files[name].count(b"\n") - HEADER_LINES[name]
            if found != rows:
                problems.append(f"{name} has {found} data rows, expected {rows}")
    return problems


def read_awv(path: Path) -> np.ndarray:
    """Weight grid from a plan's awv.csv (x, y, phase_rad rows)."""
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    x = data[:, 0].astype(int)
    y = data[:, 1].astype(int)
    weights = np.zeros((x.max() + 1, y.max() + 1), dtype=complex)
    weights[x, y] = np.exp(1j * data[:, 2])
    return weights


def check_sweep_csv(text: str, weights: np.ndarray, turn, rng) -> list[str]:
    """sweep.csv path against the Rodrigues rotation and gains against direct sums."""
    rows = [line.split(",") for line in text.splitlines()[2:]]
    uv = np.array([(float(r[1]), float(r[2])) for r in rows])
    problems = path_problems(uv, turn, "sweep.csv")
    for k in rng.choice(len(rows), size=8, replace=False):
        power = direct_power(weights, uv[k, 0], uv[k, 1])
        if not gain_matches(float(rows[k][3]), power, weights.size):
            problems.append(f"sweep.csv gain at sample {k} differs from the direct sum")
    return problems


def check_gainmap_csv(text: str, weights: np.ndarray, resolution: int, rng) -> list[str]:
    """'out' cells against the benchmark's unit-disc count, and a subset by direct sum."""
    problems = []
    cells = [line.split(",") for line in text.splitlines()[3:]]
    axis = np.linspace(-1.0, 1.0, resolution)
    outside = int(np.count_nonzero(axis[:, None] ** 2 + axis[None, :] ** 2 > 1.0))
    found = sum(1 for c in cells if c[4] == "out")
    if found != outside:
        problems.append(f"gainmap.csv has {found} 'out' cells, the unit disc leaves {outside}")
    inside = [k for k, c in enumerate(cells) if c[4] != "out"]
    for k in rng.choice(inside, size=32, replace=False):
        i, j, u, v, gain = cells[k]
        if abs(float(u) - axis[int(i)]) > PATH_TOL or abs(float(v) - axis[int(j)]) > PATH_TOL:
            problems.append(f"gainmap.csv cell {i},{j} is not at its grid direction")
        elif not gain_matches(float(gain), direct_power(weights, axis[int(i)], axis[int(j)]), weights.size):
            problems.append(f"gainmap.csv cell {i},{j} differs from the direct sum")
    return problems


def check_compare_csv(text: str, plan_beams: int) -> list[str]:
    rows = [line.split(",") for line in text.splitlines()[2:]]
    if [(r[0], r[1]) for r in rows] != list(VARIANTS):
        return [f"compare.csv rows {[(r[0], r[1]) for r in rows]} are not the six variants"]
    if int(rows[0][2]) != plan_beams:
        return [f"compare.csv covrage beam count {rows[0][2]} differs from plan's {plan_beams}"]
    return []
