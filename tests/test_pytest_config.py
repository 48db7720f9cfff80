"""The test session's own settings in pyproject.toml."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    """A failing @given test is reported as one failure, and the tests after
    it still run.

    To report a failing example hypothesis imports libcst, whose
    mypy_extensions import raises a DeprecationWarning; the session's
    error::DeprecationWarning would turn it into an INTERNALERROR that ends
    the run with "1 failed" and the passing test unreported. Where libcst is
    not installed (CI installs only numpy, pytest and hypothesis) no such
    warning is raised, and this test passes without reaching that path.
    """
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
