"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # Under filterwarnings = error, a deprecation raised in hypothesis's
    # report hook used to end the run with INTERNALERROR (exit 3).
    (tmp_path / "test_example.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_always_fails(x):
                assert x != x

            def test_runs_after():
                pass
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
