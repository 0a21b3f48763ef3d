"""The repository's tooling: its pytest settings, run on a throwaway test
file, and the names the benchmark imports and its tracer wraps."""

import ast
import importlib
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


def test_every_traced_name_resolves():
    # bench/tracing.py looks each name up when it installs; a renamed
    # function would otherwise fail only a traced benchmark run.
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr in tracing.TRACED:
        owner = importlib.import_module(f"causalkit.{module}")
        for part in attr.split("."):
            owner = vars(owner).get(part)  # own attributes, as the tracer reads them
            if owner is None:
                break
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_every_name_the_benchmark_imports_resolves():
    # The benchmark imports inside its workloads; a deleted or renamed name
    # would otherwise fail only a benchmark run.
    imported = [
        (node.module, alias.name)
        for path in sorted((ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("causalkit")
        for alias in node.names
    ]
    missing = []
    for module, name in imported:
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:
                importlib.import_module(f"{module}.{name}")  # a submodule
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert imported and not missing
