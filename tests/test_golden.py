"""Golden outputs: every CLI command on three reference configs, byte for byte.

The configs under ``tests/golden/`` are reference scenarios "a" and "b" with
their quaternions written as repr floats. Each command's output directory and
standard output were captured once and committed; a rerun must reproduce them
exactly. ``manifest.json`` is compared without its ``config_path`` and
``output_dir`` lines, which name the run's own paths.

Reference config "c" is a 512x512 array: two quadrant splits (64 groups), 11
beams, the last placed past the sampled end, and an ``awv.csv`` of four
writer blocks. Its outputs are too large to commit, so each file and stdout is
pinned by its SHA-256 instead.

To recapture after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root; it
rewrites the a and b directories and prints c's digests for ``DIGESTS_C``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from covrage.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "plan": (),
    "sweep": (),
    "compare": (),
    "gainmap": ("--resolution", "32"),
}
PATH_KEYS = ('  "config_path": ', '  "output_dir": ')
REF_C = {
    "array": {"nx": 512, "ny": 512},
    "orientation_end_euler_deg": [15, 4, 0],
    "ap_direction_uv": [0.1, 0.05],
    "n_samples": 256,
}
DIGESTS_C = {
    "compare": {
        "compare.csv": "5c226ae5472a24f3fab45f3a11242776318ef84f833f3cacef47a719a2a18d20",
        "manifest.json": "018aa59c5cbb69582956bde5b6f36b9a949ddb913a3bb44a2f7e184e2ff6edf8",
        "stdout.txt": "342f334c938e6f87bf784cf87077cf80d6cae40d0eabc37fb1ae449c767a8eb6",
    },
    "gainmap": {
        "gainmap.csv": "72b8d38a1ceb5bfd9cdcb2d49aaf9635c237a6ca031a363cea8d3916e3613189",
        "manifest.json": "a0968e38991374e0d72c1739a7aced9286e49a3802824a30d7bfb3665ec12ee8",
        "stdout.txt": "0f4d2984593c7d82705b2f082ddc4bfa348454329792b1cf8294e02fa9bf49fd",
    },
    "plan": {
        "awv.csv": "bab3faa01e032bc25c634a1d8d29be30732f4a5fdabddf49bc8ac429bd6b5c1e",
        "manifest.json": "ba8ab7913e1c41f3aebc444c1c808d7d0ea9f64e8955f97655ba271ff5786240",
        "stdout.txt": "e7ac5771e9f71d8e126e172adff8b07bf0e6049835ab75c8bf543c4ed95a5b66",
    },
    "sweep": {
        "manifest.json": "d497667c0162c904e341378b7c5b12a190f0184cd7e25105e6200e9d97e18078",
        "summary.json": "a4257e6b8acbe312c7a9ddcfeafae59cc7be2cb15d78645291d71ebb35977df1",
        "sweep.csv": "03ae49eed2cfb9c643f203ba32f803b2dd9fe79ea61e3c3576b6887702060005",
        "stdout.txt": "dd3e354d9868cb9de3f373db5306a549fda86c60025d7bb2050951ad5b22ca6d",
    },
}


def _portable(name: str, data: bytes) -> bytes:
    if name != "manifest.json":
        return data
    lines = data.decode().splitlines(keepends=True)
    return "".join(ln for ln in lines if not ln.startswith(PATH_KEYS)).encode()


def _run(config: Path, command: str, out: Path) -> tuple[int, dict[str, bytes]]:
    """Run one command; return its exit code and its files plus stdout."""
    argv = [command, "--config", str(config), "--out-dir", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + list(COMMANDS[command]))
    files = {p.name: _portable(p.name, p.read_bytes()) for p in sorted(out.iterdir())}
    files["stdout.txt"] = stdout.getvalue().encode()
    return code, files


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("ref", ["a", "b"])
def test_cli_output_matches_golden(tmp_path, ref, command):
    code, got = _run(GOLDEN / f"ref_{ref}.json", command, tmp_path / "out")
    assert code == 0
    expected_dir = GOLDEN / ref / command
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{ref}/{command}/{name} differs from the golden copy"


def _digests_c(tmp: Path, command: str) -> dict[str, str]:
    config = tmp / "ref_c.json"
    config.write_text(json.dumps(REF_C))
    code, files = _run(config, command, tmp / "out")
    assert code == 0, f"c/{command} exited {code}"
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_large_reference_matches_digests(tmp_path, command):
    assert _digests_c(tmp_path, command) == DIGESTS_C[command]


def _recapture() -> None:
    import shutil
    import tempfile

    for ref in ("a", "b"):
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                code, files = _run(GOLDEN / f"ref_{ref}.json", command, Path(tmp) / "out")
            if code != 0:
                sys.exit(f"{ref}/{command} exited {code}")
            target = GOLDEN / ref / command
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, data in files.items():
                (target / name).write_bytes(data)
    digests = {}
    for command in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[command] = _digests_c(Path(tmp), command)
    print(json.dumps(digests, indent=4))


if __name__ == "__main__":
    _recapture()
