"""Golden outputs: every CLI command on three reference configs, byte for byte.

Each config ``tests/golden/ref_<ref>.json`` has a directory
``tests/golden/<ref>/<command>/`` holding the command's output files and its
standard output, captured once and committed; a rerun must reproduce them
exactly. Reference "a" is a 32x32 yaw turn, "b" a 32x32 turn over 256 samples
whose phase syncs catch rounding drift, and "c" a 512x512 array with two
quadrant splits (64 groups) and 11 beams, the last placed past the sampled end.

Both sides pass through one transform, ``_portable``:
- ``manifest.json`` loses its ``config_path`` and ``output_dir`` lines, which
  name the run's own paths;
- a file of more than ``DIGEST_ROWS`` data rows (the rows after its ``#``
  lines and column line) becomes ``<name>.sha256``: its header lines verbatim,
  then one SHA-256 per fixed range of ``DIGEST_ROWS`` data rows. Only c's
  ``awv.csv`` (262,144 rows) is that large.

A mismatch names the file, its first differing line and both lines; for a
digest listing that line names the row range. The same check runs ``main`` in
process and the installed ``covrage`` console script; the script's test skips
when no ``covrage`` is on PATH.

To recapture after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root; it
rewrites all three directories.
"""

import contextlib
import hashlib
import io
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from covrage.cli import main

GOLDEN = Path(__file__).parent / "golden"
REFS = ("a", "b", "c")
COMMANDS = {
    "plan": (),
    "sweep": (),
    "compare": (),
    "gainmap": ("--resolution", "32"),
}
PATH_KEYS = ('  "config_path": ', '  "output_dir": ')
DIGEST_ROWS = 1 << 16


def _portable(name: str, data: bytes) -> tuple[str, bytes]:
    """The committed form of one output: its name and bytes."""
    lines = data.decode().splitlines(keepends=True)
    if name == "manifest.json":
        return name, "".join(ln for ln in lines if not ln.startswith(PATH_KEYS)).encode()
    head = next((k + 1 for k, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    if len(lines) - head <= DIGEST_ROWS:
        return name, data
    listing = lines[:head]
    for start in range(head, len(lines), DIGEST_ROWS):
        rows = lines[start:start + DIGEST_ROWS]
        digest = hashlib.sha256("".join(rows).encode()).hexdigest()
        listing.append(f"rows {start - head + 1}-{start - head + len(rows)}: {digest}\n")
    return f"{name}.sha256", "".join(listing).encode()


def _in_process(argv: list[str]) -> tuple[int, bytes]:
    """``main`` called in this process: its exit code and standard output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue().encode()


def _run(config: Path, command: str, out: Path, invoke=_in_process) -> tuple[int, dict[str, bytes]]:
    """Run one command; return its exit code and the committed form of its files plus stdout."""
    code, stdout = invoke([command, "--config", str(config), "--out-dir", str(out), *COMMANDS[command]])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["stdout.txt"] = stdout
    return code, dict(_portable(name, data) for name, data in files.items())


def _first_difference(label: str, got: bytes, want: bytes) -> str:
    got_lines, want_lines = (b.decode().splitlines(keepends=True) + ["<end of file>"] for b in (got, want))
    k = next(k for k, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w)
    return f"{label} line {k + 1}: got {got_lines[k]!r}, golden {want_lines[k]!r}"


def _assert_matches_golden(tmp_path: Path, ref: str, command: str, invoke) -> None:
    code, got = _run(GOLDEN / f"ref_{ref}.json", command, tmp_path / "out", invoke)
    assert code == 0
    expected_dir = GOLDEN / ref / command
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, _first_difference(f"{ref}/{command}/{name}", got[name], data)


each_output = pytest.mark.parametrize("ref,command", [(r, c) for r in REFS for c in sorted(COMMANDS)])


@each_output
def test_cli_output_matches_golden(tmp_path, ref, command):
    _assert_matches_golden(tmp_path, ref, command, _in_process)


@each_output
def test_console_script_output_matches_golden(tmp_path, covrage_script, ref, command):
    # The installed entry point, in its own process, writes the same bytes.
    def invoke(argv):
        result = subprocess.run([covrage_script, *argv], capture_output=True, check=False)
        return result.returncode, result.stdout

    _assert_matches_golden(tmp_path, ref, command, invoke)


def _recapture() -> None:
    for ref in REFS:
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


if __name__ == "__main__":
    _recapture()
