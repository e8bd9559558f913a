"""The schedule analyzer behind ``python -m repro.tools run``, and the
``lint`` CLI."""

import json
import os

from repro.tools.__main__ import main

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RACE_DEMO = os.path.join(_REPO, "examples", "race_demo.py")

_SMALL = ["--grid-points", "512", "--particles", "256",
          "--nprod", "2", "--ncons", "2"]


class TestAnalyze:
    def test_fig5_memory_is_silent(self, capsys):
        rc = main(["run", "--example", "fig5", "--mode", "memory",
                   *_SMALL, "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no findings" in out

    def test_race_demo_clean_run_is_silent(self, capsys):
        rc = main(["run", "--example", RACE_DEMO, "--timeout", "30",
                   "--strict"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_injected_delay_reports_race_and_exits_nonzero(
            self, capsys, tmp_path):
        report = str(tmp_path / "report.json")
        rc = main(["run", "--example", RACE_DEMO, "--timeout", "30",
                   "--delay", "0.01", "--delay-src", "1",
                   "--delay-dst", "0", "--report", report, "--strict"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FINDING [wildcard-race]" in captured.out
        assert "1 analyzer finding(s)" in captured.err
        doc = json.loads(open(report).read())
        assert doc["conservation_ok"] is True
        findings = doc["findings"]
        assert len(findings) == 1
        assert findings[0]["kind"] == "wildcard-race"
        assert len(findings[0]["candidates"]) == 2

    def test_no_strict_exits_zero_on_findings(self, capsys):
        rc = main(["run", "--example", RACE_DEMO, "--timeout", "30",
                   "--delay", "0.01", "--delay-src", "1",
                   "--delay-dst", "0"])
        assert rc == 0
        assert "FINDING" in capsys.readouterr().out


class TestLint:
    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for code in ("ANL001", "ANL002", "ANL003", "ANL004"):
            assert code in out

    def test_repo_tree_is_clean(self, capsys):
        rc = main(["lint",
                   os.path.join(_REPO, "src"),
                   os.path.join(_REPO, "examples"),
                   os.path.join(_REPO, "benchmarks")])
        assert rc == 0
        assert "lint clean" in capsys.readouterr().out

    def test_violating_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n"
                       "def f():\n"
                       "    return time.sleep(1)\n")
        rc = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ANL001" in out
