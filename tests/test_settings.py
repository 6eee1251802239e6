"""The repository's pytest settings."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_failing_given_test_fails_and_the_run_goes_on(tmp_path):
    # a failing @given test makes hypothesis import libcst, whose deprecation
    # warning filterwarnings = ["error"] would turn into an INTERNALERROR
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_given.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
