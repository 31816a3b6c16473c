"""Tests for the reproduction CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert set(sub.choices) == {"fig3", "fig9", "fig10", "overhead",
                                    "report", "scorecard", "table1",
                                    "loadtest", "monitor", "all"}

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out and "Tensor Algebra" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Tensor Cores" in out
        assert "2048x2048" in out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--size", "1024"]) == 0
        out = capsys.readouterr().out
        assert "row-fetch" in out and "write" in out

    def test_fig10_single_workload(self, capsys):
        assert main(["fig10", "-w", "KNN"]) == 0
        out = capsys.readouterr().out
        assert "KNN" in out and "x" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "single-page latency" in out


class TestScript:
    def test_module_runs_as_script(self):
        """``python -m repro.cli`` runs the module top to bottom, so
        every command must be defined before its ``__main__`` block."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "repro.cli", "table1"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "GEMM" in done.stdout
