"""The benchmark's own tests: every check rejects a corrupted output, and the
generator is deterministic.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, HeadsetReplan, StrategyStudy  # noqa: E402

MODULES, _ = run.import_covrage()
cli, harness = MODULES["cli"], MODULES["harness"]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (
            lambda s: inputs.headset_round(inputs.rng_for(s, inputs.STREAM_HEADSET)),
            lambda s: inputs.study_round(inputs.rng_for(s, inputs.STREAM_STUDY), inputs.fault_inputs()),
        ):
            self.assertEqual(make(7), make(7))
            self.assertNotEqual(make(7), make(8))

    def test_same_seed_same_config_files(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = inputs.cli_configs(7, Path(a))
            second = inputs.cli_configs(7, Path(b))
            for key in first:
                self.assertEqual(first[key].path.read_bytes(), second[key].path.read_bytes())

    def test_paths_stay_in_front_hemisphere(self):
        rng = inputs.rng_for(3, inputs.STREAM_HEADSET)
        for _ in range(20):
            for p in inputs.headset_round(rng):
                self.assertLess(float(np.hypot(*p.turn.path(256).T).max()), 1.0)


class HeadsetCheckTests(unittest.TestCase):
    def setUp(self):
        self.workload = HeadsetReplan(MODULES, Path("unused"))
        self.workload.setup(11)
        self.p = inputs.headset_round(inputs.rng_for(11, inputs.STREAM_HEADSET))[0]
        self.op = self.workload._ops([self.p])[0]
        self.awv, self.plan = self.op.run()

    def test_real_plan_passes(self):
        self.assertEqual(self.op.check((self.awv, self.plan)), [])

    def test_moved_beam_centre_uncovers_a_sample(self):
        centres = list(self.plan.beam_centers)
        centres[0] = type(centres[0])(-centres[0].u, -centres[0].v - 0.5)
        bad = dataclasses.replace(self.plan, beam_centers=tuple(centres))
        self.assertTrue(any("beam centre" in p for p in self.op.check((self.awv, bad))))


class StudyCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = StrategyStudy(MODULES, Path("unused"))
        cls.workload.setup(5)
        cls.s = inputs.study_round(inputs.rng_for(5, inputs.STREAM_STUDY), [])[0]
        cls.sc = cls.workload._scenario(cls.s)
        cls.rows = harness.compare_strategies(cls.sc)
        cls.weights = [
            np.asarray(harness.build_beam(dataclasses.replace(
                cls.sc, strategy=st, no_sync=ab == "no_sync", delayed_first=ab == "delayed_first",
            )).awv.weights)
            for st, ab in checks.VARIANTS
        ]

    def check(self, rows=None, weights=None):
        rng = inputs.rng_for(self.s.seed, inputs.STREAM_CHECK)
        return checks.check_study(self.s, rows or self.rows, weights or self.weights, self.workload.table, rng)

    def test_real_result_passes(self):
        self.assertEqual(self.check(), [])

    def test_flipped_weight_phase(self):
        weights = [w.copy() for w in self.weights]
        weights[1][3, 5] *= -1.0
        self.assertTrue(any("direct sum" in p for p in self.check(weights=weights)))

    def test_swapped_rate_entry(self):
        row = self.rows[0]
        mcs = list(row.result.mcs)
        table = harness.default_mcs_table()
        mcs[0] = next(e for e in table if e.index != mcs[0].index)
        result = dataclasses.replace(row.result, mcs=tuple(mcs))
        rows = [row._replace(result=result)] + list(self.rows[1:])
        self.assertTrue(any("rate" in p for p in self.check(rows=rows)))

    def test_fault_scenario_fails_only_the_peak_check(self):
        fault = inputs.fault_inputs()[0]
        sc = self.workload._scenario(fault)
        problems = self.workload._check(fault, sc, harness.compare_strategies(sc))
        self.assertTrue(problems)
        self.assertTrue(all(p.startswith(checks.PEAK) for p in problems))


class CliCheckTests(unittest.TestCase):
    """gainmap.csv and sweep.csv on a small config, corrupted after the fact."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        d = Path(cls.tmp.name)
        rng = inputs.rng_for(9, inputs.STREAM_CLI)
        cls.cfg = inputs.write_config(d / "c.json", inputs.make_turn(rng, (0.1, 0.3)), 16, rng, 64)
        for cmd in ("plan", "sweep", "gainmap"):
            argv = [cmd, "--config", str(cls.cfg.path), "--out-dir", str(d / cmd)]
            if cmd == "gainmap":
                argv += ["--resolution", "64"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        cls.weights = checks.read_awv(d / "plan" / "awv.csv")
        cls.gainmap = (d / "gainmap" / "gainmap.csv").read_text()
        cls.sweep = (d / "sweep" / "sweep.csv").read_text()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def rng(self):
        return inputs.rng_for(9, inputs.STREAM_CHECK)

    def test_real_outputs_pass(self):
        self.assertEqual(checks.check_gainmap_csv(self.gainmap, self.weights, 64, self.rng()), [])
        self.assertEqual(checks.check_sweep_csv(self.sweep, self.weights, self.cfg.turn, self.rng()), [])

    def test_altered_gainmap_cell(self):
        lines = self.gainmap.splitlines()
        cells = [line.split(",") for line in lines[3:]]
        inside = [k for k, c in enumerate(cells) if c[4] != "out"]
        k = int(self.rng().choice(inside, size=32, replace=False)[0])
        cells[k][4] = f"{float(cells[k][4]) + 0.5:.10g}"
        text = "\n".join(lines[:3] + [",".join(c) for c in cells]) + "\n"
        problems = checks.check_gainmap_csv(text, self.weights, 64, self.rng())
        self.assertTrue(any("direct sum" in p for p in problems))

    def test_flipped_weight_phase_in_awv(self):
        weights = self.weights.copy()
        weights[2, 7] *= -1.0
        problems = checks.check_sweep_csv(self.sweep, weights, self.cfg.turn, self.rng())
        self.assertTrue(any("direct sum" in p for p in problems))

    def test_missing_schema_line(self):
        files = {"manifest.json": b'{\n  "schema": "covrage-manifest-v1",\n}\n',
                 "compare.csv": b"strategy\n" + b"x\n" * 7}
        problems = checks.check_files(files, {"manifest.json": None, "compare.csv": 6})
        self.assertTrue(any("schema" in p for p in problems))


class BenchmarkFileTests(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        pick = lambda entries: [(m["name"], m["unit"], m["better"]) for m in entries]
        self.assertEqual(pick(doc["end_to_end"]), list(run.END_TO_END))
        self.assertEqual(pick(doc["per_layer"]), list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
