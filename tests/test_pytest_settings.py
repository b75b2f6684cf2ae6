"""The suite's pytest settings report a failing property test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns.  Under
    # filterwarnings = error that warning, unless ignored, ends pytest with
    # INTERNALERROR, and no later test is reported.
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
