"""The pytest settings of pyproject.toml report a failing Hypothesis test as
an ordinary failure, even though they turn warnings into errors."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_is_one_failure_not_an_internal_error(tmp_path):
    # to report a falsifying example, Hypothesis imports libcst where it is
    # installed, and that import warns; as an error inside pytest's reporting
    # hook the warning used to end the session with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st


            @given(st.integers())
            def test_fails(x):
                assert x < 0
            """
        )
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output[-3000:]
    assert "1 failed" in output
    assert "INTERNALERROR" not in output
