"""``repro.tools report`` HTML run reports and ``trace --metrics``."""

import json

import pytest

from repro.tools.__main__ import main


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One small report run shared by the assertions below."""
    tmp = tmp_path_factory.mktemp("report")
    out = tmp / "run.html"
    ledger = tmp / "ledger.jsonl"
    rc = main(["report", str(out), "--nprod", "2", "--ncons", "1",
               "--grid-points", "512", "--particles", "256",
               "--ledger", str(ledger)])
    assert rc == 0
    return out, ledger


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
        assert "report/lowfive_memory/P3" in html

    def test_series_render_as_inline_svg(self, report):
        html = report[0].read_text()
        assert "<svg" in html and "polyline" in html
        assert "<td>simmpi.mailbox_depth{rank=0}</td>" in html

    def test_span_quantile_columns_present(self, report):
        html = report[0].read_text()
        for col in ("p50", "p95", "p99"):
            assert f"<th>{col} s</th>" in html

    def test_ledger_side_effect(self, report):
        from repro.obs.ledger import Ledger

        recs = Ledger(str(report[1])).records()
        assert len(recs) == 1
        assert recs[0].workload == "report/lowfive_memory/P3"
        assert recs[0].attribution["conservation_ok"]
        assert recs[0].series  # stable series digests present

    def test_terminal_summary(self, report, capsys):
        rc = main(["report", str(report[0]), "--nprod", "2",
                   "--ncons", "1", "--grid-points", "512",
                   "--particles", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "waits:" in out
        assert "stable record digest:" in out


class TestTraceMetrics:
    def test_metrics_flag_writes_sidecar(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", str(out), "--nprod", "2", "--ncons", "1",
                   "--metrics"])
        assert rc == 0
        assert "trace.json.metrics.json" in capsys.readouterr().out
        side = json.loads((tmp_path / "trace.json.metrics.json")
                          .read_text())
        assert side.keys() == {"metrics", "series"}
        assert "workflow.attempt" in side["series"]
        assert any(k.startswith("simmpi.mailbox_depth")
                   for k in side["series"])

    def test_no_sidecar_without_flag(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", str(out), "--nprod", "2",
                     "--ncons", "1"]) == 0
        assert not (tmp_path / "trace.json.metrics.json").exists()
