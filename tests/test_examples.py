"""Smoke tests: every example script runs to completion.

The examples are the library's advertised entry points, so the suite
executes each one (in-process, sharing the simulation cache) and checks
that it prints the sections it promises.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": ("Daily churn", "Intersection between the lists",
                      "Measurement bias"),
    "stability_report.py": ("Daily changes per list", "Kendall's tau",
                            "Weekday/weekend KS distance"),
    "measurement_bias_study.py": ("Adoption measured on different target sets",
                                  "significance-flagged comparison"),
    "rank_manipulation.py": ("Umbrella rank injection", "TTL sweep",
                             "Majestic backlink purchasing", "Alexa toolbar telemetry"),
    "analyze_real_lists.py": ("Archive summary", "Structure of the latest snapshot"),
    "serve_archive.py": ("Archive store", "Reloaded archives", "Rank history",
                         "Query API"),
}


def _run_example(name: str) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name.replace('.py', '')}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    old_argv = sys.argv
    sys.argv = [str(path)]
    try:
        spec.loader.exec_module(module)
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            module.main()
    finally:
        sys.argv = old_argv
    return buffer.getvalue()


class TestExamples:
    def test_examples_directory_complete(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert set(EXPECTED_OUTPUT) <= scripts
        assert len(scripts) >= 3

    @pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
    def test_example_runs_and_reports(self, script):
        output = _run_example(script)
        assert len(output) > 200
        for marker in EXPECTED_OUTPUT[script]:
            assert marker in output, f"{script} output misses {marker!r}"
