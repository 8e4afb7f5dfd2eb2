"""End-to-end command-line checks: configs in, deterministic files out."""

import argparse
import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covrage import cli, csvtext, harness
from covrage.cli import main
from covrage.harness import build_beam, gain_map
from covrage.planner import MAX_TRAJECTORY_SAMPLES

MOVING = {
    "orientation_end_euler_deg": [20.0, 0.0, 0.0],
    "ap_direction_uv": [0.0, 0.0],
    "seed": 3,
}
STATIC = {"ap_direction_uv": [0.1, 0.05], "n_samples": 16}


def write_config(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def run(*argv):
    return main([str(a) for a in argv])


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# plan


def test_plan_moving_head_four_beams(tmp_path, capsys):
    cfg = write_config(tmp_path, MOVING)
    out = tmp_path / "out"
    assert run("plan", "--config", cfg, "--out-dir", out) == 0
    text = capsys.readouterr().out
    assert "beams: 4" in text
    assert "groups: 4 (interleave 4, subdivisions 0)" in text
    assert text.count("overlap ") == 3
    assert text.count("shift ") == 4
    assert "extrapolated:" in text
    awv = (out / "awv.csv").read_text().splitlines()
    assert awv[0] == "# covrage-awv-v1"
    assert awv[1] == "x,y,phase_rad"
    assert len(awv) == 2 + 32 * 32
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "covrage-manifest-v1"
    assert manifest["seed"] == 3
    assert manifest["scenario"]["strategy"] == "covrage"


def test_plan_static_head_single_reinforced_beam(tmp_path, capsys):
    cfg = write_config(tmp_path, STATIC)
    assert run("plan", "--config", cfg, "--out-dir", tmp_path / "out") == 0
    text = capsys.readouterr().out
    assert "beams: 1" in text
    assert "groups=[0,1,2,3]" in text


def test_plan_rejects_baseline_strategy(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(STATIC, strategy="baseline-start"))
    assert run("plan", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert "covrage strategy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, MOVING)
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out-dir", out) == 0
    first = read_all(out)
    assert set(first) == {"manifest.json", "sweep.csv", "summary.json"}
    sweep = first["sweep.csv"].decode().splitlines()
    assert sweep[0] == "# covrage-sweep-v1"
    assert sweep[1] == "index,u,v,gain_dbi,noise_penalty_db,rx_power_dbm,mcs_index,datarate_mbps"
    summary = json.loads(first["summary.json"])
    assert summary["schema"] == "covrage-sweep-summary-v1"
    assert summary["n_samples"] == len(sweep) - 2
    assert summary["beam_count"] == 4
    assert summary["gain_range_db"] <= 6.0
    # Byte-identical on a rerun into the same directory.
    assert run("sweep", "--config", cfg, "--out-dir", out) == 0
    assert read_all(out) == first


def test_sweep_seed_and_ablation_overrides(tmp_path):
    cfg = write_config(tmp_path, MOVING)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("sweep", "--config", cfg, "--out-dir", out_a, "--seed", 9, "--ablation", "no_sync") == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["scenario"]["no_sync"] is True
    assert manifest["scenario"]["delayed_first"] is False
    # A different seed changes the unsynced weights, so the sweep differs.
    assert run("sweep", "--config", cfg, "--out-dir", out_b, "--seed", 10, "--ablation", "no_sync") == 0
    assert (out_a / "sweep.csv").read_bytes() != (out_b / "sweep.csv").read_bytes()


def test_sweep_strategy_override(tmp_path):
    cfg = write_config(tmp_path, MOVING)
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out-dir", out, "--strategy", "baseline-start") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["strategy"] == "baseline-start"
    assert summary["beam_count"] == 1


def test_sweep_env_var_out_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, STATIC)
    target = tmp_path / "from-env"
    monkeypatch.setenv("COVRAGE_OUT_DIR", str(target))
    assert run("sweep", "--config", cfg) == 0
    assert (target / "sweep.csv").exists()


def test_main_runs_a_command_wrapped_after_its_first_call(tmp_path, monkeypatch):
    # The parser is built once; a wrapper set on the module later, as a profiler sets one, must run.
    cfg = write_config(tmp_path, STATIC)
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "a") == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.command) or 0)
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "b") == 0
    assert seen == ["sweep"]


# ---------------------------------------------------------------------------
# gainmap


def test_gainmap_grid_and_sentinel(tmp_path):
    cfg = write_config(tmp_path, STATIC)
    out = tmp_path / "out"
    assert run("gainmap", "--config", cfg, "--out-dir", out, "--resolution", 64) == 0
    lines = (out / "gainmap.csv").read_text().splitlines()
    assert lines[0] == "# covrage-gainmap-v1"
    assert lines[1] == "# display_clamp_dbi=30"
    assert lines[2] == "i,j,u,v,gain_dbi"
    assert len(lines) == 3 + 64 * 64
    # Corners of the square grid lie outside the hemisphere disc.
    assert lines[3].endswith(",out")
    assert any(not line.endswith(",out") for line in lines[3:])


def test_gainmap_peak_near_static_beam_center(tmp_path):
    cfg = write_config(tmp_path, STATIC)
    out = tmp_path / "out"
    assert run("gainmap", "--config", cfg, "--out-dir", out, "--resolution", 129) == 0
    best = None
    for line in (out / "gainmap.csv").read_text().splitlines()[3:]:
        i, j, u, v, gain = line.split(",")
        if gain != "out":
            g = float(gain)
            if best is None or g > best[0]:
                best = (g, float(u), float(v))
    cell = 2.0 / 128
    assert abs(best[1] - 0.1) <= cell
    assert abs(best[2] - 0.05) <= cell


def test_gainmap_resolution_floor(tmp_path, capsys):
    cfg = write_config(tmp_path, STATIC)
    assert run("gainmap", "--config", cfg, "--out-dir", tmp_path / "out", "--resolution", 8) == 2
    assert "resolution" in capsys.readouterr().err


def test_gainmap_bad_resolution_writes_no_manifest(tmp_path):
    cfg = write_config(tmp_path, STATIC)
    out = tmp_path / "out"
    assert run("gainmap", "--config", cfg, "--out-dir", out, "--resolution", 8) == 2
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# table files


def cell(x):
    """One value as the data files write it, formatted on its own."""
    x = float(x)
    if math.isnan(x):
        return "out"
    return "0" if x == 0.0 else format(x, ".10g")


def text(values):
    """Every float of ``values`` as the data files render it, one string each."""
    (matrix,) = csvtext.cells([np.asarray(values, dtype=np.float64)])
    return [t.decode() for t in matrix.view(f"S{matrix.shape[1]}").ravel().tolist()]


EDGES = [-0.0, float("nan"), 5e-324, 1e-300, 1e16, 3.0, math.pi, -math.pi, 0.0, -1e-5, 123456.789012345]


def test_column_text_matches_per_cell_format(tmp_path):
    values = np.concatenate([EDGES, np.random.default_rng(4).standard_normal(500) * 10.0 ** np.arange(-250, 250)])
    assert text(values) == [cell(x) for x in values]
    # The writer has one path for float columns holding NaN and one for the rest.
    for column in (values, values[~np.isnan(values)]):
        cli.write_table(tmp_path / "t.csv", ["# head"], [column, ["a"] * len(column), np.arange(len(column))])
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows == ["# head"] + [f"{cell(x)},a,{k}" for k, x in enumerate(column)]


def percent_text(x):
    """The reference rendering: ``%`` after ``+ 0.0``, with NaN written as ``out``."""
    return "out" if math.isnan(x) else "%.10g" % (x + 0.0)


def bits_to_float(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0].item()


@given(st.lists(st.integers(0, 2**64 - 1).map(bits_to_float), min_size=1, max_size=64))
@example([math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 0.0, -0.0])
def test_float_text_matches_percent_on_bit_patterns(values):
    assert text(values) == [percent_text(x) for x in values]


FORMAT_TABLE = [
    1234567890.5, 1234567891.5, 12345678905.0, 9999999999.5, 99999999995.0,
    9.9999999995e-5, 1e-4, 1e10, 5e-324,
    *(float(f"1e{p}") for p in range(-300, 301)),
    # Decimal ties: the nearest double lies within about 1e-6 of M's half-integer.
    *(float(f"{d}.2345678905e{p}") for d in (1, 9) for p in range(-280, 281, 7)),
]


def test_float_text_table_matches_percent():
    values = np.array(FORMAT_TABLE)
    assert text(values) == [percent_text(x) for x in values]
    assert text(-values) == [percent_text(-x) for x in values]


def test_write_table_mixed_columns_across_block_edges(tmp_path, monkeypatch):
    # Two full blocks and a short last one.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 150)
    n = 400
    index = np.arange(n)
    mcs = [-1 if k % 5 == 0 else k % 13 for k in range(n)]
    ablation = ["" if k % 3 else "no_sync" for k in range(n)]
    gain = np.where(index % 4 == 1, np.nan, (index - 11.0) / 3.0)
    # A second float column, of other widths, is rendered in the same pass as the first.
    rate = np.where(index % 7 == 0, -0.0, (index - 200) * 1.5e7)
    cli.write_table(tmp_path / "t.csv", ["# head", "a,b,c,d,e"], [index, gain, mcs, ablation, rate])
    want = ["# head", "a,b,c,d,e"] + [
        f"{k},{percent_text(gain[k])},{mcs[k]},{ablation[k]},{percent_text(rate[k])}" for k in range(n)
    ]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


def scenario_of(cfg):
    args = argparse.Namespace(seed=None)  # as for compare, which has no --strategy or --ablation
    return cli.load_scenario(cfg, args)[0]


RECTANGULAR = dict(MOVING, array={"nx": 64, "ny": 32})


def test_awv_csv_matches_per_cell_rendering(tmp_path, monkeypatch):
    # A rectangular array catches a transposed index; small blocks cross block edges.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1000)
    cfg = write_config(tmp_path, RECTANGULAR)
    out = tmp_path / "out"
    assert run("plan", "--config", cfg, "--out-dir", out) == 0
    phases = build_beam(scenario_of(cfg)).awv.phases()
    assert phases.shape == (64, 32)
    want = ["# covrage-awv-v1", "x,y,phase_rad"]
    want += [f"{x},{y},{cell(phases[x, y])}" for x in range(64) for y in range(32)]
    assert (out / "awv.csv").read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("resolution", [17, 33])
def test_gainmap_csv_matches_per_cell_rendering(tmp_path, monkeypatch, resolution):
    # Odd resolutions put an exact 0 on the axis.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 1000)
    cfg = write_config(tmp_path, RECTANGULAR)
    out = tmp_path / "out"
    assert run("gainmap", "--config", cfg, "--out-dir", out, "--resolution", resolution) == 0
    sc = scenario_of(cfg)
    grid = gain_map(build_beam(sc).awv, resolution, sc.array.spacing_wavelengths)
    axis, gain = grid.axis, grid.gain_dbi
    assert axis[resolution // 2] == 0.0 and np.isnan(gain).any()
    want = ["# covrage-gainmap-v1", "# display_clamp_dbi=30", "i,j,u,v,gain_dbi"]
    want += [
        f"{i},{j},{cell(axis[i])},{cell(axis[j])},{cell(gain[i, j])}"
        for i in range(resolution) for j in range(resolution)
    ]
    assert (out / "gainmap.csv").read_text() == "\n".join(want) + "\n"


def test_tiny_spacing_sweeps_to_finite_numbers(tmp_path):
    # The sub-beam half-width is about 1e300 here.
    cfg = write_config(tmp_path, {"array": {"spacing_wavelengths": 1e-300}})
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out-dir", out) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert rows
    assert all(math.isfinite(float(value)) for row in rows for value in row.split(","))


# ---------------------------------------------------------------------------
# compare


def test_compare_six_rows_covrage_wins(tmp_path, capsys):
    cfg = write_config(tmp_path, MOVING)
    out = tmp_path / "out"
    assert run("compare", "--config", cfg, "--out-dir", out) == 0
    first = read_all(out)
    lines = first["compare.csv"].decode().splitlines()
    assert lines[0] == "# covrage-compare-v1"
    assert lines[1] == (
        "strategy,ablation,beam_count,min_gain_dbi,max_gain_dbi,gain_range_db,"
        "min_mcs_index,min_datarate_mbps"
    )
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6
    assert [r[0] for r in rows[:4]] == ["covrage", "baseline-start", "baseline-edge", "baseline-mid"]
    covrage_min = float(rows[0][3])
    for r in rows[1:4]:
        assert covrage_min >= float(r[3])
    # Determinism across reruns.
    assert run("compare", "--config", cfg, "--out-dir", out) == 0
    assert read_all(out) == first


def test_compare_never_searches_the_peak(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("compare searched the hemisphere peak")

    monkeypatch.setattr(harness, "peak_gain", refuse)
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "out"
    assert run("compare", "--config", golden / "ref_a.json", "--out-dir", out) == 0
    expected = golden / "a" / "compare"
    assert (out / "compare.csv").read_bytes() == (expected / "compare.csv").read_bytes()
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text()


# ---------------------------------------------------------------------------
# Manifest echo

SPELLED = {
    "array": {"nx": 16, "ny": 16},
    "link": {"frequency_hz": 30e9, "reference_loss_db": None},
    "orientation_start_euler_deg": [5.0, -3.0, 1.0],
    "orientation_end_euler_deg": [18.0, 4.0, 2.0],
    "ap_direction_deg": [6.0, -3.0],
    "n_samples": 24,
    "phase_bits": 3,
    "seed": 5,
}
REF_A = json.loads((Path(__file__).parent / "golden" / "ref_a.json").read_text())
REF_B = json.loads((Path(__file__).parent / "golden" / "ref_b.json").read_text())


@pytest.mark.parametrize("doc", [MOVING, SPELLED, REF_B], ids=["moving", "spelled", "ref_b"])
def test_manifest_scenario_reruns_as_config(tmp_path, doc):
    # The echoed scenario is a config that resolves to the same scenario.
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("sweep", "--config", write_config(tmp_path, doc), "--out-dir", first) == 0
    echo = json.loads((first / "manifest.json").read_text())["scenario"]
    rerun = write_config(tmp_path, echo, "echo.json")
    assert run("sweep", "--config", rerun, "--out-dir", second) == 0
    again = json.loads((second / "manifest.json").read_text())["scenario"]
    assert json.dumps(again) == json.dumps(echo)
    assert (second / "sweep.csv").read_bytes() == (first / "sweep.csv").read_bytes()


def test_manifest_echo_resolves_defaults(tmp_path):
    out = tmp_path / "out"
    assert run("sweep", "--config", write_config(tmp_path, SPELLED), "--out-dir", out) == 0
    echo = json.loads((out / "manifest.json").read_text())["scenario"]
    assert echo["array"]["spacing_wavelengths"] == 0.25
    assert echo["link"]["frequency_hz"] == 30e9
    assert echo["link"]["reference_loss_db"] is None
    assert "ap_direction_uv" in echo and "ap_direction_deg" not in echo
    assert "orientation_end" in echo and "orientation_end_euler_deg" not in echo


# ---------------------------------------------------------------------------
# Config and model errors


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({"array": {"nx": 1.5}}, "array.nx"),
        ({"array": {"pitch": 0.5}}, "array.pitch"),
        ({"link": {"eirp_dbm": "loud"}}, "link.eirp_dbm"),
        ({"strategy": "nearest"}, "strategy"),
        ({"orientation_end": [1, 0, 0, 0], "orientation_end_euler_deg": [0, 0, 0]}, "orientation_end"),
        ({"ap_direction_uv": [0.9, 0.9]}, "ap direction"),
        ({"n_samples": 1}, "n_samples"),
        ({"banana": 1}, "banana"),
        ({"array": {"nx": 0}}, "array dimensions"),
        ({"array": {"ny": 0}}, "array dimensions"),
        ({"array": {"nx": None}}, "array.nx"),
        ({"interleave": 0}, "interleave"),
        ({"interleave": -4}, "interleave"),
        ({"interleave": None}, "interleave"),
        ({"seed": -1}, "seed"),
        ({"seed": None}, "seed"),
        ({"link": {"eirp_dbm": float("nan")}}, "NaN"),
        ({"link": {"distance_m": float("inf")}}, "Infinity"),
        ({"ap_direction_uv": [float("nan"), 0.0]}, "NaN"),
        ({"orientation_end": [float("-inf"), 0.0, 0.0, 0.0]}, "-Infinity"),
        ({"interleave": 3, "strategy": "baseline-start"}, "interleave"),
        ({"interleave": 9, "strategy": "baseline-start"}, "array 32x32 does not divide into 3x3 interleaves"),
        ({"phase_bits": 5000}, "phase_bits must be between 1 and 52"),
        ({"link": {"distance_m": 1e308, "reference_distance_m": 1e-300}}, "link path loss"),
        ({"link": {"reference_loss_db": None, "reference_distance_m": 1e308}}, "link path loss"),
        ({"link": {"reference_loss_db": None, "frequency_hz": 1e-300}}, "link path loss"),
        ({"link": {"eirp_dbm": -1e308, "reference_loss_db": 1e308}}, "link eirp_dbm"),
        ({"link": {"eirp_dbm": 1e308, "reference_loss_db": -1e308}}, "link eirp_dbm"),
        # The carrier is link.frequency_hz alone, and no computation reads a noise floor.
        ({"array": {"frequency_hz": 28e9}}, "array.frequency_hz"),
        ({"link": {"noise_floor_dbm": -80}}, "link.noise_floor_dbm"),
    ],
)
def test_config_errors_name_the_field(tmp_path, capsys, doc, needle):
    cfg = write_config(tmp_path, doc)
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("command", ["plan", "sweep", "gainmap"])
@pytest.mark.parametrize("message", ["Unable to allocate 14.6 TiB for an array", ""])
def test_out_of_memory_exits_two_with_one_line(tmp_path, monkeypatch, capsys, command, message):
    def exhausted(sc):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_beam", exhausted)
    cfg = write_config(tmp_path, MOVING)
    assert run(command, "--config", cfg, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory")
    assert err.count("\n") == 1
    assert message in err


LINK_VALUES = {
    "eirp_dbm": [30.0, -1e308, 1e308],
    "distance_m": [3.0, 0.0, -1.0, 1e308],
    "reference_distance_m": [1.0, 1e-300, 1e308],
    "reference_loss_db": [68.0, None, 1e308, -1e308],
    "frequency_hz": [60e9, 1e-300],
    "path_loss_exponent": [2.0, 0.0, 1e300],
}
SIDES = [4, 8, 12, 16, 24, 32]
CONFIG_DOCS = st.fixed_dictionaries(
    {
        "array": st.fixed_dictionaries(
            {"nx": st.sampled_from(SIDES), "ny": st.sampled_from(SIDES)},
            optional={"spacing_wavelengths": st.just(1e-300) | st.floats(0.05, 2.0)},
        ),
        "orientation_end_euler_deg": st.lists(st.floats(-40.0, 40.0), min_size=3, max_size=3),
        "ap_direction_deg": st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2),
        "n_samples": st.none() | st.integers(2, 512),
    },
    optional={
        "interleave": st.sampled_from([1, 4, 16, 0, -4, 3, 9]),
        "phase_bits": st.sampled_from([None, 1, 2, 52, 0, 53]),
        "link": st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in LINK_VALUES.items()}),
    },
)


@settings(max_examples=40, deadline=None)
@given(CONFIG_DOCS)
def test_config_documents_finish_cleanly(tmp_path_factory, doc):
    # Every config ends in finite outputs (exit 0) or in one error line (exit 2 or 3).
    tmp = tmp_path_factory.mktemp("doc")
    cfg = write_config(tmp, doc)
    for command in ("sweep", "compare"):
        out = tmp / command
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(command, "--config", cfg, "--out-dir", out)
        if code:
            assert code in (2, 3)
            assert err.getvalue().count("\n") == 1
            continue
        for table in out.glob("*.csv"):
            rows = table.read_text().splitlines()[2:]
            cells = {c.lower() for row in rows for c in row.split(",")}
            assert not cells & {"out", "inf", "-inf", "nan"}, table.name
        for doc_path in out.glob("*.json"):
            json.loads(doc_path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {doc_path.name}"))


def test_overflowing_number_is_not_infinity(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"link": {"eirp_dbm": 1e999}}')
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert "non-finite number 1e999" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"seed": 1, "seed": 7, "array": {"nx": 16, "nx": 8, "ny": 8}}', "nx"),
        ('{"seed": 1, "array": {"nx": 8, "ny": 8}, "seed": 7}', "seed"),
    ],
    ids=["nested", "top-level"],
)
def test_duplicate_config_key_exits_two(tmp_path, capsys, text, key):
    # JSON keeps the last of two equal keys; a config must not silently drop the first.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(text)
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: duplicate config field: {key}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("plan", "--strategy", "covrage"), "unrecognized arguments: --strategy covrage"),
        (("compare", "--strategy", "covrage"), "unrecognized arguments: --strategy covrage"),
        (("compare", "--ablation", "no_sync"), "unrecognized arguments: --ablation no_sync"),
        (("gainmap", "--resolution", "x"), "argument --resolution: invalid int value: 'x'"),
    ],
    ids=["plan-strategy", "compare-strategy", "compare-ablation", "gainmap-resolution"],
)
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, argv, message):
    # A command-line mistake is a config error: exit 2 and one stderr line, no usage text.
    cfg = write_config(tmp_path, MOVING)
    assert run(argv[0], "--config", cfg, "--out-dir", tmp_path / "out", *argv[1:]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [(), ("render",), ("sweep",), ("sweep", "--config")],
    ids=["no-command", "unknown-command", "no-config", "config-without-path"],
)
def test_command_line_errors_are_one_line(capsys, argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1


def test_seed_override_must_be_non_negative(tmp_path, capsys):
    cfg = write_config(tmp_path, MOVING)
    assert run("compare", "--config", cfg, "--out-dir", tmp_path / "out", "--seed", "-1") == 2
    assert "seed" in capsys.readouterr().err


def test_invalid_json_exits_two(tmp_path, capsys):
    # Bad JSON, a config that is not UTF-8, and a rate table that is not UTF-8.
    # An undecodable file names itself and the offending byte's offset.
    (tmp_path / "rates.csv").write_bytes(b"index,sensitivity_dbm,datarate_mbps\n0,-78,27.5\xff\n")
    configs = {"broken.json": b"{not json", "latin.json": b'{"seed": 1\xff}'}
    configs["table.json"] = json.dumps(dict(STATIC, mcs_table_path="rates.csv")).encode()
    undecodable = {
        "latin.json": f"{tmp_path / 'latin.json'}: not UTF-8 (byte 0xff at position 10)",
        "table.json": f"{tmp_path / 'rates.csv'}: not UTF-8 (byte 0xff at position 46)",
    }
    for name, text in configs.items():
        cfg = tmp_path / name
        cfg.write_bytes(text)
        assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2, name
        err = capsys.readouterr().err
        assert err.startswith("config error:"), name
        assert err.count("\n") == 1, name
        if name in undecodable:
            assert err == f"config error: {undecodable[name]}\n", name
        assert not (tmp_path / "out").exists(), name


def test_missing_config_exits_two(tmp_path, capsys):
    assert run("sweep", "--config", tmp_path / "absent.json", "--out-dir", tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


def test_ablation_with_baseline_strategy_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(MOVING, strategy="baseline-mid"))
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out", "--ablation", "no_sync") == 2
    assert "ablation" in capsys.readouterr().err


def test_hemisphere_exit_is_model_error(tmp_path, capsys):
    # A 143 degree yaw drags a broadside AP out of the front hemisphere.
    cfg = write_config(tmp_path, {"orientation_end_euler_deg": [143.0, 0.0, 0.0]})
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error:")
    assert "hemisphere" in err
    # The manifest is written before any model work; outputs are not.
    assert (out / "manifest.json").exists()
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("loss", [{}, {"reference_loss_db": 68.0}, {"reference_loss_db": 75.0}])
def test_carrier_beside_a_reference_loss_exits_two(tmp_path, capsys, loss):
    # With a numeric reference loss, no loss reads the carrier: another carrier is a config error.
    cfg = write_config(tmp_path, dict(REF_A, link={"frequency_hz": 28e9, **loss}))
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err == "config error: link.frequency_hz is read only when link.reference_loss_db is null\n"
    assert not out.exists()


def test_sample_count_past_the_ceiling_exits_two(tmp_path, capsys):
    harness.Scenario(n_samples=MAX_TRAJECTORY_SAMPLES)  # the ceiling itself is accepted
    cfg = write_config(tmp_path, dict(MOVING, n_samples=MAX_TRAJECTORY_SAMPLES + 1))
    out = tmp_path / "out"
    assert run("plan", "--config", cfg, "--out-dir", out) == 2
    assert capsys.readouterr().err == f"config error: n_samples must be between 2 and {MAX_TRAJECTORY_SAMPLES}\n"
    assert not out.exists()


@pytest.mark.parametrize("spacing", [1e17, 1e300])
def test_automatic_sample_count_past_the_ceiling_exits_two(tmp_path, capsys, spacing):
    # A huge pitch makes the beam so narrow that sampling the turn would not fit in memory.
    cfg = write_config(tmp_path, dict(REF_A, array={"spacing_wavelengths": spacing}))
    out = tmp_path / "out"
    assert run("plan", "--config", cfg, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: the path needs more than {MAX_TRAJECTORY_SAMPLES} samples")
    assert err.count("\n") == 1
    # Planning follows the manifest, so the manifest is all that is written.
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_custom_mcs_table(tmp_path):
    (tmp_path / "rates.csv").write_text(
        "index,sensitivity_dbm,datarate_mbps\n0,-200,1.5\n"
    )
    cfg = write_config(tmp_path, dict(STATIC, mcs_table_path="rates.csv"))
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out-dir", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["min_datarate_mbps"] == 1.5


def test_bad_mcs_table_names_row(tmp_path, capsys):
    (tmp_path / "rates.csv").write_text(
        "index,sensitivity_dbm,datarate_mbps\n0,-78,27.5\n1,oops,385\n"
    )
    cfg = write_config(tmp_path, dict(STATIC, mcs_table_path="rates.csv"))
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    assert "row 3" in capsys.readouterr().err


def test_non_finite_mcs_table_exits_two(tmp_path, capsys):
    (tmp_path / "rates.csv").write_text(
        "index,sensitivity_dbm,datarate_mbps\n0,-78,27.5\n1,-68,inf\n"
    )
    cfg = write_config(tmp_path, dict(STATIC, mcs_table_path="rates.csv"))
    assert run("sweep", "--config", cfg, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1
    assert "row 3: sensitivity and datarate must be finite" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [["--help"], ["gainmap", "--help"]])
def test_help_flag_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: covrage")
