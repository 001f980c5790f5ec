"""The suite's own pytest configuration (`pyproject.toml`) under a failure."""

import subprocess
import sys
from pathlib import Path

_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    """With warnings made errors, a failing `@given` test is one failure and
    the run goes on.  Hypothesis's failure report touches the deprecated
    `mypy_extensions.TypedDict`; unless the configuration ignores that
    warning, pytest stops with an INTERNALERROR (exit 3) and no later test
    runs."""
    (tmp_path / "test_pair.py").write_text(_PAIR)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
