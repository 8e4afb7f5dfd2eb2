"""Golden outputs: every CLI command on both reference configs, byte for byte.

The configs under ``tests/golden/`` are reference scenarios "a" and "b" with
their quaternions written as repr floats. Each command's output directory and
standard output were captured once and committed; a rerun must reproduce them
exactly. ``manifest.json`` is compared without its ``config_path`` and
``output_dir`` lines, which name the run's own paths.

To recapture after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
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


def _portable(name: str, data: bytes) -> bytes:
    if name != "manifest.json":
        return data
    lines = data.decode().splitlines(keepends=True)
    return "".join(ln for ln in lines if not ln.startswith(PATH_KEYS)).encode()


def _run(ref: str, command: str, out: Path) -> tuple[int, dict[str, bytes]]:
    """Run one command; return its exit code and its files plus stdout."""
    argv = [command, "--config", str(GOLDEN / f"ref_{ref}.json"), "--out-dir", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + list(COMMANDS[command]))
    files = {p.name: _portable(p.name, p.read_bytes()) for p in sorted(out.iterdir())}
    files["stdout.txt"] = stdout.getvalue().encode()
    return code, files


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("ref", ["a", "b"])
def test_cli_output_matches_golden(tmp_path, ref, command):
    code, got = _run(ref, command, tmp_path / "out")
    assert code == 0
    expected_dir = GOLDEN / ref / command
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{ref}/{command}/{name} differs from the golden copy"


def _recapture() -> None:
    import shutil
    import tempfile

    for ref in ("a", "b"):
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                code, files = _run(ref, command, Path(tmp) / "out")
            if code != 0:
                sys.exit(f"{ref}/{command} exited {code}")
            target = GOLDEN / ref / command
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, data in files.items():
                (target / name).write_bytes(data)


if __name__ == "__main__":
    _recapture()
