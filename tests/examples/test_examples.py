"""Smoke tests: every example must run end to end and say something.

Examples are the public face of the library; if an API change breaks
them, these tests fail before a user does.  (They cache programs and
traces in the run's private disk tier, ``tests/conftest.py``, so every
run synthesizes them afresh; examples that share a suite synthesize it
once.)
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, capsys, argv=None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_timing_analysis(self, capsys):
        out = run_example("timing_analysis.py", capsys)
        assert "min T = 4.00 ns" in out  # borrowing demo
        assert "Table 6" in out

    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "CPI breakdown" in out
        assert "TPI" in out
        assert "Best symmetric design" in out

    def test_custom_workload(self, capsys):
        out = run_example("custom_workload.py", capsys)
        assert "synthesized" in out
        assert "load slack" in out
        assert "CPI" in out

    def test_branch_strategies(self, capsys):
        out = run_example("branch_strategies.py", capsys)
        assert "BTB" in out
        assert "delay slots" in out

    def test_all_examples_covered(self):
        tested = {
            "timing_analysis.py",
            "quickstart.py",
            "custom_workload.py",
            "branch_strategies.py",
            "design_space_exploration.py",  # exercised via --help below
        }
        present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert present == tested

    def test_design_space_exploration_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_example("design_space_exploration.py", capsys, argv=["--help"])
        assert excinfo.value.code == 0
        assert "full-suite" in capsys.readouterr().out
