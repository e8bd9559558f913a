"""``repro.tools run --report run.html``: the HTML run report, the
ledger row the run appends, and the trace's ``otherData``."""

import json
import os

import pytest

from repro.tools.__main__ import main

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
QUICKSTART = os.path.join(_REPO, "examples", "quickstart.py")

_SMALL = ["--nprod", "2", "--ncons", "1",
          "--grid-points", "512", "--particles", "256"]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One small report run shared by the assertions below."""
    tmp = tmp_path_factory.mktemp("report")
    out = tmp / "run.html"
    ledger = tmp / "ledger.jsonl"
    rc = main(["run", *_SMALL, "--report", str(out),
               "--ledger", str(ledger)])
    assert rc == 0
    return out, ledger


def _ledger_row(tmp_path, *argv):
    from repro.obs.ledger import Ledger

    ledger = tmp_path / "ledger.jsonl"
    assert main(["run", *argv, "--ledger", str(ledger)]) == 0
    (rec,) = Ledger(str(ledger)).records()
    return rec


class TestReport:
    def test_html_is_self_contained(self, report):
        html = report[0].read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<script" not in html  # static: no JS needed
        assert "http" not in html.split("</style>")[1]  # no ext assets

    def test_html_has_every_section(self, report):
        html = report[0].read_text()
        for heading in ("Manifest", "Spans and phases",
                        "Critical path", "Wait taxonomy",
                        "Virtual-time series"):
            assert heading in html, f"missing section {heading!r}"
        assert "run/lowfive_memory/P3" in html

    def test_series_render_as_inline_svg(self, report):
        html = report[0].read_text()
        assert "<svg" in html and "polyline" in html
        assert "<td>simmpi.mailbox_depth{rank=0}</td>" in html

    def test_span_quantile_columns_present(self, report):
        html = report[0].read_text()
        for col in ("p50", "p95", "p99"):
            assert f"<th>{col} s</th>" in html

    def test_span_quantiles_are_exact_order_statistics(self):
        from repro.obs import ObsContext
        from repro.tools.run import span_stats

        obs = ObsContext()
        durations = [float(d) for d in range(1, 201)]  # 1 .. 200
        for d in reversed(durations):
            obs.spans.add("s", "c", 0, 0.0, d)
        (row,) = span_stats(obs)
        # ceil(q * n)-th smallest: the 100th, 190th and 198th of 200.
        assert (row["p50"], row["p95"], row["p99"]) == (100.0, 190.0,
                                                        198.0)
        assert row["count"] == 200 and row["max"] == 200.0
        assert row["total"] == sum(durations)

    def test_ledger_side_effect(self, report):
        from repro.obs.ledger import Ledger

        recs = Ledger(str(report[1])).records()
        assert len(recs) == 1
        assert recs[0].workload == "run/lowfive_memory/P3"
        assert recs[0].mode == "memory" and recs[0].cost_digest
        assert recs[0].params == {"nprod": 2, "ncons": 1,
                                  "grid_points": 512, "particles": 256}
        assert recs[0].attribution["conservation_ok"]
        assert recs[0].series  # stable series digests present

    def test_terminal_summary(self, report, capsys):
        rc = main(["run", *_SMALL, "--report", str(report[0])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical-path shares by category:" in out
        assert "wait states" in out
        assert f"wrote report {report[0]}" in out


class TestLedgerRows:
    """Only fig5 runs LowFive: no other run records a transport mode or
    the LowFive cost digest, and an example file records no workload
    parameters it never read."""

    def test_fig7_row(self, tmp_path):
        rec = _ledger_row(tmp_path, "--example", "fig7", *_SMALL)
        assert rec.workload == "run/fig7/P3"
        assert rec.mode is None and rec.cost_digest is None
        assert rec.params == {"nprod": 2, "ncons": 1,
                              "grid_points": 512, "particles": 256}

    def test_example_file_row(self, tmp_path, monkeypatch):
        rec = _ledger_row(tmp_path, "--example", QUICKSTART)
        assert rec.workload == f"run/quickstart/P{rec.nprocs}"
        assert rec.mode is None and rec.cost_digest is None
        assert rec.params == {}
        # The key does not depend on how the path was spelled.
        monkeypatch.chdir(_REPO)
        again = tmp_path / "again"
        again.mkdir()
        rel = _ledger_row(again, "--example",
                          os.path.join("examples", "quickstart.py"))
        assert rel.workload == rec.workload


class TestTraceMetrics:
    def test_trace_carries_metrics_and_series(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["run", *_SMALL, "--trace", str(out)]) == 0
        other = json.loads(out.read_text())["otherData"]
        assert other.keys() >= {"metrics", "series"}
        assert "workflow.attempt" in other["series"]
        assert any(k.startswith("simmpi.mailbox_depth")
                   for k in other["series"])
