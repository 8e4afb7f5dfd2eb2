"""The benchmark's traced run wraps these functions by name; they must exist.

``perfbench/spans.py`` is loaded by path and not edited: its ``TARGETS`` table
names each (module, function) the recorder replaces, and a traced run that
cannot find one fails before it starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,home,attr", _targets())
def test_traced_function_exists(span, home, attr):
    module = importlib.import_module(f"covrage.{home}")
    assert callable(getattr(module, attr, None)), f"{span}: covrage.{home}.{attr} is gone"
