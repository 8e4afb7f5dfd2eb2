"""The benchmark's traced run and checks name covrage's functions and rows.

``perfbench/spans.py`` and ``perfbench/checks.py`` are loaded by path and not
edited. ``spans.TARGETS`` names each (module, function) the recorder
replaces, and a traced run that cannot find one fails before it starts.
``checks.VARIANTS`` lists a comparison's rows as the benchmark expects them,
and a strategy study whose rows differ fails every operation.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from covrage import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,home,attr", _load("spans").TARGETS)
def test_traced_function_exists(span, home, attr):
    module = importlib.import_module(f"covrage.{home}")
    assert callable(getattr(module, attr, None)), f"{span}: covrage.{home}.{attr} is gone"


def test_compare_rows_match_the_benchmark_checks():
    assert harness.VARIANTS == _load("checks").VARIANTS
