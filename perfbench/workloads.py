"""The benchmark's workloads: what one operation runs and how it is checked.

Every workload hands out whole rounds of operations. An operation has an
untimed ``prepare``, the timed ``run`` and an untimed ``check`` that returns
its problems. ``finish`` runs checks that need the whole run's outputs (for
cli-bulk, the weights read back from plan's awv.csv).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import inputs


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    prepare: Callable[[], None] = lambda: None
    # The op is one of the fixed peak_gain fault scenarios.
    fault: bool = False


class Workload:
    """Base: subclasses set ``count_window`` (ops over which counts are taken)."""

    count_window = 1

    def __init__(self, covrage_modules: dict[str, Any], work_dir: Path) -> None:
        self.mod = covrage_modules
        self.dir = work_dir
        self.bytes_per_op: list[int] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------- headset ---

class HeadsetReplan(Workload):
    """covrage_plan on distinct seeded head turns for the 32x32 array."""

    count_window = 16 * len(inputs.HEADSET_ROUND)

    def setup(self, seed: int) -> None:
        self.cfg = self.mod["array_model"].ArrayConfig(inputs.HEADSET_ARRAY, inputs.HEADSET_ARRAY)
        self.rng = inputs.rng_for(seed, inputs.STREAM_HEADSET)
        for op in self._ops(inputs.headset_round(inputs.rng_for(inputs.WARMUP_SEED, inputs.STREAM_WARMUP))):
            op.run()

    def _ops(self, plan_inputs) -> list[Op]:
        geometry, planner = self.mod["geometry"], self.mod["planner"]
        ops = []
        for p in plan_inputs:
            q1, q2 = geometry.Quaternion(*p.turn.q1), geometry.Quaternion(*p.turn.q2)
            ap = geometry.UvPoint(*p.turn.ap_uv)
            override = None
            if p.no_sync_seed is not None:
                rng = np.random.default_rng(p.no_sync_seed)
                override = lambda count, rng=rng: np.exp(2j * np.pi * rng.uniform(size=count))

            def run(q1=q1, q2=q2, ap=ap, p=p, override=override):
                return planner.covrage_plan(
                    q1, q2, ap, self.cfg, interleave=p.interleave, n_samples=p.n_samples,
                    delayed_first=p.delayed_first, sync_override=override,
                )

            ops.append(Op(run, lambda out, p=p: checks.check_plan(p, inputs.HEADSET_ARRAY, out[1])))
        return ops

    def next_round(self) -> list[Op]:
        return self._ops(inputs.headset_round(self.rng))


# --------------------------------------------------------- strategy study ---

class StrategyStudy(Workload):
    """compare_strategies on seeded scenarios plus the fixed fault scenarios."""

    count_window = 16  # two rounds

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.rng = inputs.rng_for(seed, inputs.STREAM_STUDY)
        self.faults = inputs.fault_inputs()
        self.table = checks.read_mcs_table(Path(self.mod["link_budget"].__file__).parent / "data" / "mcs_80211ad.csv")
        warm = inputs.study_round(inputs.rng_for(inputs.WARMUP_SEED, inputs.STREAM_WARMUP), [])[0]
        self.mod["harness"].compare_strategies(self._scenario(warm))

    def _scenario(self, s: inputs.StudyInput):
        geometry, array_model, harness = self.mod["geometry"], self.mod["array_model"], self.mod["harness"]
        return harness.Scenario(
            array=array_model.ArrayConfig(s.n, s.n),
            link=self.mod["link_budget"].LinkParams(eirp_dbm=s.eirp_dbm, distance_m=s.distance_m),
            orientation_start=geometry.Quaternion(*s.turn.q1),
            orientation_end=geometry.Quaternion(*s.turn.q2),
            ap_direction=geometry.UvPoint(*s.turn.ap_uv),
            n_samples=s.n_samples,
            phase_bits=s.phase_bits,
            seed=s.seed,
        )

    def _check(self, s: inputs.StudyInput, sc, rows) -> list[str]:
        harness = self.mod["harness"]
        weights = []
        for strategy, ablation in checks.VARIANTS:
            variant = dataclasses.replace(
                sc, strategy=strategy, no_sync=ablation == "no_sync",
                delayed_first=ablation == "delayed_first",
            )
            weights.append(np.asarray(harness.build_beam(variant).awv.weights))
        rng = inputs.rng_for(s.seed, inputs.STREAM_CHECK)
        return checks.check_study(s, rows, weights, self.table, rng)

    def next_round(self) -> list[Op]:
        ops = []
        for s in inputs.study_round(self.rng, self.faults):
            sc = self._scenario(s)
            ops.append(Op(
                run=lambda sc=sc: self.mod["harness"].compare_strategies(sc),
                check=lambda rows, s=s, sc=sc: self._check(s, sc, rows),
                fault=s.fault,
            ))
        return ops


# -------------------------------------------------------------- CLI bulk ---

OUTPUTS = {
    "plan": {"manifest.json": None, "awv.csv": inputs.CLI_BIG**2},
    "sweep": {"manifest.json": None, "summary.json": None, "sweep.csv": inputs.CLI_BIG_SAMPLES},
    "compare": {"manifest.json": None, "compare.csv": len(checks.VARIANTS)},
    "gainmap": {"manifest.json": None, "gainmap.csv": inputs.GAINMAP_RESOLUTION**2},
}


class CliBulk(Workload):
    """covrage commands called in-process, from config file to files on disk.

    One operation runs plan, sweep and compare on the large config and
    gainmap on the small one, each into its own output directory.
    """

    COMMANDS = (("plan", "big"), ("sweep", "big"), ("compare", "big"), ("gainmap", "small"))

    def __init__(self, covrage_modules, work_dir: Path) -> None:
        super().__init__(covrage_modules, work_dir)
        self.outs = {c: work_dir / f"{c}-out" for c, _ in self.COMMANDS}

    def invoke(self, command: str, cfg: inputs.CliConfig, out: Path,
               resolution: int = inputs.GAINMAP_RESOLUTION) -> tuple[int, str]:
        argv = [command, "--config", str(cfg.path), "--out-dir", str(out)]
        if command == "gainmap":
            argv += ["--resolution", str(resolution)]
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = self.mod["cli"].main(argv)
        return code, buf.getvalue()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfgs = inputs.cli_configs(seed, self.dir)
        rng = inputs.rng_for(inputs.WARMUP_SEED, inputs.STREAM_WARMUP)
        warm = inputs.write_config(
            self.dir / "warmup.json", inputs.make_turn(rng, inputs.CLI_SMALL_LENGTHS),
            inputs.CLI_SMALL, rng, None,
        )
        for command, _ in self.COMMANDS:
            self.invoke(command, warm, self.dir / "warmup-out", resolution=inputs.CLI_SMALL)
        self.first_digest = {}
        self.plan_stdout = ""

    def _clear(self) -> None:
        for out in self.outs.values():
            shutil.rmtree(out, ignore_errors=True)

    def _run(self) -> list[tuple[int, str]]:
        return [self.invoke(c, self.cfgs[k], self.outs[c]) for c, k in self.COMMANDS]

    def _check(self, results: list[tuple[int, str]]) -> list[str]:
        problems = []
        written = 0
        for (command, _), (code, stdout) in zip(self.COMMANDS, results):
            if code != 0:
                problems.append(f"{command} exited {code}")
                continue
            if command == "plan":
                self.plan_stdout = stdout
            files = {p.name: p.read_bytes() for p in sorted(self.outs[command].iterdir())}
            written += sum(len(b) for b in files.values())
            problems += checks.check_files(files, OUTPUTS[command])
            digest = hashlib.sha256(b"".join(files[n] for n in sorted(files))).hexdigest()
            if self.first_digest.setdefault(command, digest) != digest:
                problems.append(f"rerun of {command} wrote different bytes")
        self.bytes_per_op.append(written)
        return problems

    def next_round(self) -> list[Op]:
        return [Op(run=self._run, check=self._check, prepare=self._clear)]

    def finish(self) -> list[str]:
        """Checks that read the weights back from plan's awv.csv for the same config."""
        rng = inputs.rng_for(self.seed, inputs.STREAM_CHECK)
        big = checks.read_awv(self.outs["plan"] / "awv.csv")
        problems = checks.check_sweep_csv(
            (self.outs["sweep"] / "sweep.csv").read_text(), big, self.cfgs["big"].turn, rng
        )
        beams = int(self.plan_stdout.split("beams: ", 1)[1].split("\n", 1)[0])
        problems += checks.check_compare_csv((self.outs["compare"] / "compare.csv").read_text(), beams)
        small_plan = self.dir / "check-plan-out"
        code, _ = self.invoke("plan", self.cfgs["small"], small_plan)
        if code != 0:
            return problems + [f"plan of the small config exited {code}"]
        problems += checks.check_gainmap_csv(
            (self.outs["gainmap"] / "gainmap.csv").read_text(), checks.read_awv(small_plan / "awv.csv"),
            inputs.GAINMAP_RESOLUTION, rng,
        )
        return problems


WORKLOADS: dict[str, Callable[[dict, Path], Workload]] = {
    "headset-replan": HeadsetReplan,
    "strategy-study": StrategyStudy,
    "cli-bulk": CliBulk,
}
