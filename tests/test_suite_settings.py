"""The suite's own pytest settings, checked in a separate pytest run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 0


def test_plain():
    pass
'''


def test_a_failing_property_test_hides_no_later_test(tmp_path):
    # with filterwarnings = ["error"] alone, the warning the Hypothesis plugin
    # meets while it reports the failure ended the session in INTERNALERROR,
    # and test_plain never ran
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
