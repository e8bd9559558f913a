"""``python -m repro.tools critpath``: report, artifacts, strict mode."""

import json
import os

import pytest

from repro.obs import validate_chrome_trace
from repro.tools.__main__ import main

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
QUICKSTART = os.path.join(_REPO, "examples", "quickstart.py")

_SMALL = ["--grid-points", "512", "--particles", "256",
          "--nprod", "2", "--ncons", "1"]


class TestDemoWorkload:
    def test_prints_report_and_exits_zero(self, capsys):
        assert main(["critpath", *_SMALL, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "conservation      OK" in out
        assert "wait states" in out
        assert "critical-path shares by category:" in out

    def test_writes_trace_and_report_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        report = tmp_path / "r.json"
        assert main(["critpath", *_SMALL, "--strict",
                     "--trace", str(trace),
                     "--report", str(report)]) == 0
        doc = json.loads(trace.read_text())
        validate_chrome_trace(doc)
        assert any(e["ph"] == "s" for e in doc["traceEvents"])
        rep = json.loads(report.read_text())
        assert rep["conservation_ok"] is True
        assert abs(rep["critpath_residual"]) <= 1e-9
        assert rep["segments"] and rep["waits"]
        assert set(rep["critpath"]) == \
            {"simmpi", "lowfive", "pfs", "compute", "wait"}

    def test_file_mode_reports_pfs(self, capsys):
        assert main(["critpath", *_SMALL, "--mode", "file",
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "pfs" in out


class TestExampleWorkload:
    def test_quickstart_example(self, capsys):
        assert main(["critpath", "--example", QUICKSTART,
                     "--strict", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 critical-path segments" in out
        assert "conservation      OK" in out

    @pytest.mark.parametrize("command", ["critpath", "analyze", "trace",
                                         "report"])
    def test_unusable_example_exits_with_a_message(self, command,
                                                   tmp_path):
        # One loader behind every subcommand: no raw traceback from any.
        out = [str(tmp_path / "out")] if command in ("trace", "report") \
            else []
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        with pytest.raises(SystemExit, match="build_workflow"):
            main([command, *out, "--example", str(bad)])
        (tmp_path / "notes.txt").write_text("not python\n")
        with pytest.raises(SystemExit, match="cannot import"):
            main([command, *out, "--example", str(tmp_path / "notes.txt")])
