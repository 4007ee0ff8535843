"""The repo's pytest settings turn warnings into errors. A failing
Hypothesis property must still be reported as one failure, and the tests
after it must still run: the warning that an import inside Hypothesis's
failing-example patch writer raises must not end the session with
INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_plain_passes():
    pass
'''


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(
        FAILING_PROPERTY_THEN_PASSING_TEST)
    # under the repo's ini; caches and Hypothesis's patch go to tmp_path
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_sample.py::test_property_fails" in out, out
    assert "PASSED test_sample.py::test_plain_passes" in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1
