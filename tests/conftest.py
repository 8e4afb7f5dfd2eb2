"""Shared test setup: pinned BLAS threading, hypothesis profile and the installed console script."""

import os
import shutil

# Single-threaded numerics keep timing tests stable and results portable.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "covrage",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("covrage")


@pytest.fixture
def covrage_script() -> str:
    """Path of the installed ``covrage`` console script; a test that needs it skips without one."""
    path = shutil.which("covrage")
    if path is None:
        pytest.skip("no covrage console script on PATH; pip install -e . installs it")
    return path
