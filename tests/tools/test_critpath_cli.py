"""``python -m repro.tools run``: the critical-path summary, the
artifacts it writes, strict mode, and one run per invocation."""

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
        assert main(["run", *_SMALL, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "conservation      OK" in out
        assert "wait states" in out
        assert "critical-path shares by category:" in out

    def test_writes_trace_and_report_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        report = tmp_path / "r.json"
        assert main(["run", *_SMALL, "--strict",
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
        assert main(["run", *_SMALL, "--mode", "file",
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "pfs" in out


class TestExampleWorkload:
    def test_quickstart_example(self, capsys):
        assert main(["run", "--example", QUICKSTART,
                     "--strict", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 critical-path segments" in out
        assert "conservation      OK" in out

    # Each case is the ``run`` invocation that now does what the named
    # former verb did: the summary alone (critpath), the strict analyzer
    # pass (analyze), a Chrome trace (trace) and a causal report (report).
    @pytest.mark.parametrize("command", ["critpath", "analyze", "trace",
                                         "report"])
    def test_unusable_example_exits_with_a_message(self, command,
                                                   tmp_path):
        # One loader behind the verb, whatever it writes: no raw traceback.
        flags = {"critpath": [],
                 "analyze": ["--strict"],
                 "trace": ["--trace", str(tmp_path / "t.json")],
                 "report": ["--report", str(tmp_path / "r.json")]}[command]
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        with pytest.raises(SystemExit, match="build_workflow"):
            main(["run", *flags, "--example", str(bad)])
        (tmp_path / "notes.txt").write_text("not python\n")
        with pytest.raises(SystemExit, match="cannot import"):
            main(["run", *flags, "--example", str(tmp_path / "notes.txt")])
        assert not any(tmp_path.glob("*.json"))


class TestOneRun:
    def test_every_artifact_comes_from_one_run(self, tmp_path,
                                               monkeypatch, capsys):
        from repro.workflow import Workflow

        calls = []
        real = Workflow.run

        def counting(self, *a, **kw):
            calls.append(self)
            return real(self, *a, **kw)

        monkeypatch.setattr(Workflow, "run", counting)
        trace, report = tmp_path / "t.json", tmp_path / "x.json"
        ledger = tmp_path / "l.jsonl"
        assert main(["run", *_SMALL, "--strict", "--trace", str(trace),
                     "--report", str(report),
                     "--ledger", str(ledger)]) == 0
        assert len(calls) == 1
        assert trace.exists() and ledger.exists()
        assert json.loads(report.read_text())["findings"] == []


    def test_one_causal_analysis_per_run(self, tmp_path, monkeypatch,
                                         capsys):
        # The HTML report and the ledger row reuse the report the verb
        # printed, rather than analysing the run again.
        import repro.obs.critpath as critpath

        calls = []
        real = critpath.analyze

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(critpath, "analyze", counting)
        assert main(["run", *_SMALL, "--report", str(tmp_path / "r.html"),
                     "--ledger", str(tmp_path / "l.jsonl")]) == 0
        assert len(calls) == 1


class TestStrict:
    def test_trace_validation_failure_fails_only_under_strict(
            self, tmp_path, monkeypatch, capsys):
        import repro.obs

        def reject(doc):
            raise ValueError("bad event")

        monkeypatch.setattr(repro.obs, "validate_chrome_trace", reject)
        trace = str(tmp_path / "t.json")
        assert main(["run", *_SMALL, "--trace", trace]) == 0
        assert main(["run", *_SMALL, "--trace", trace, "--strict"]) == 1
        assert "trace validation failed: bad event" in \
            capsys.readouterr().err

    def test_tolerance_failures_fail_under_strict(self, capsys):
        # No residual is below a negative tolerance.
        assert main(["run", *_SMALL, "--tol", "-1", "--strict"]) == 1
        err = capsys.readouterr().err
        assert "conservation violated" in err
        assert "critical path residual" in err


class TestVerbs:
    def test_help_lists_the_five_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "{h5ls,h5dump,lint,regress,run}" in out
