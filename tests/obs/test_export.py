"""Chrome trace export: schema, roundtrip, validation, CLI verb."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    ObsContext,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import WORLD_PID


def _demo_obs():
    obs = ObsContext()
    obs.set_task("sim", [0, 1])
    obs.set_task("ana", [2])
    obs.spans.add("lowfive.index", "lowfive", 0, 0.0, 1.5, {"file": "a.h5"})
    obs.spans.add("task.ana", "workflow", 2, 0.0, 3.0)
    obs.spans.instant("stage.done", "lowfive", 1, 2.0)
    obs.metrics.inc("simmpi.send.bytes", 512, rank=0)
    return obs


class TestChromeTrace:
    def test_pid_per_task_tid_per_rank(self):
        doc = chrome_trace(_demo_obs())
        procs = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs["sim"] == 1 and procs["ana"] == 2
        assert procs["world"] == WORLD_PID
        span = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "lowfive.index"][0]
        assert span["pid"] == procs["sim"] and span["tid"] == 0

    def test_unknown_rank_maps_to_world(self):
        obs = ObsContext()
        obs.spans.add("s", "", 5, 0.0, 1.0)
        doc = chrome_trace(obs)
        span = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert span["pid"] == WORLD_PID

    def test_virtual_seconds_become_microseconds(self):
        doc = chrome_trace(_demo_obs())
        span = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "lowfive.index"][0]
        assert span["ts"] == 0.0 and span["dur"] == pytest.approx(1.5e6)

    def test_span_args_carry_ids_and_labels(self):
        obs = ObsContext()
        parent = obs.spans.begin(0, "outer", "c", 0.0)
        obs.spans.end(obs.spans.begin(0, "inner", "c", 0.5), 1.0)
        obs.spans.end(parent, 2.0)
        doc = chrome_trace(obs)
        by_name = {e["name"]: e for e in doc["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["inner"]["args"]["parent_id"] == \
            by_name["outer"]["args"]["span_id"]

    def test_metrics_ride_in_other_data(self):
        doc = chrome_trace(_demo_obs())
        m = doc["otherData"]["metrics"]
        assert m["counter"]["simmpi.send.bytes{rank=0}"]["total"] == 512

    def test_json_roundtrip_validates(self):
        doc = chrome_trace(_demo_obs())
        validate_chrome_trace(doc)
        reloaded = json.loads(json.dumps(doc))
        validate_chrome_trace(reloaded)
        assert reloaded["displayTimeUnit"] == "ms"


class TestValidate:
    def test_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": {}})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "B", "name": "x", "pid": 0, "tid": 0, "ts": 0}
            ]})

    def test_rejects_incomplete_x_event(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0}
            ]})

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0,
                 "ts": 0, "dur": -1}
            ]})


class TestEdgeCases:
    def test_empty_obs_validates(self):
        doc = chrome_trace(ObsContext())
        validate_chrome_trace(doc)
        # Only the world process-name metadata event remains.
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_instants_only_validates(self):
        obs = ObsContext()
        obs.spans.instant("tick", "c", 0, 0.5)
        doc = chrome_trace(obs)
        validate_chrome_trace(doc)
        phases = sorted(e["ph"] for e in doc["traceEvents"])
        assert "i" in phases and "X" not in phases


class TestFlowEvents:
    def _obs_with_edge(self):
        obs = ObsContext()
        obs.set_task("sim", [0])
        obs.set_task("ana", [1])
        obs.causal.post(msg_id=42, src=0, dst=1, tag=7, comm_id=1,
                        nbytes=64, t_post=1.0, t_arrival=1.5)
        obs.causal.receive(42, t_recv_start=0.5, t_recv=1.5)
        return obs

    def test_edge_becomes_s_f_pair(self):
        doc = chrome_trace(self._obs_with_edge())
        validate_chrome_trace(doc)
        s, = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        f, = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert s["id"] == f["id"] == 42
        assert s["tid"] == 0 and f["tid"] == 1
        assert s["pid"] != f["pid"]  # sender and receiver tasks differ
        assert s["ts"] == pytest.approx(1.0e6)
        assert f["ts"] == pytest.approx(1.5e6)
        assert f["bp"] == "e"
        assert s["args"]["nbytes"] == 64

    def test_obs_without_causal_attr_still_exports(self):
        # Duck-typed contexts (older pickles, test doubles) may lack
        # .causal; the exporter must degrade gracefully.
        class Minimal:
            def __init__(self, obs):
                self.spans = obs.spans
                self.metrics = obs.metrics

            def rank_tasks(self):
                return {}

        doc = chrome_trace(Minimal(_demo_obs()))
        validate_chrome_trace(doc)

    def test_validator_rejects_flow_without_id(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "s", "name": "m", "pid": 0, "tid": 0, "ts": 0}
            ]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "f", "name": "m", "pid": 0, "tid": 0, "id": 1}
            ]})


class TestFlowEndpointsInsideSpans:
    """Property: every flow arrow starts and ends inside the enclosing
    task spans of its sender and receiver ranks."""

    @given(
        computes=st.lists(
            st.tuples(st.floats(0.0, 0.01), st.floats(0.0, 0.01)),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_flow_endpoints_inside_task_spans(self, computes):
        from repro.obs import span
        from repro.simmpi import Engine

        eng = Engine(2)

        def main(world):
            with span(world, f"task.r{world.rank}", cat="workflow"):
                for pre, post in computes:
                    if world.rank == 0:
                        world.compute(pre)
                        world.send(b"x" * 256, 1, tag=3)
                    else:
                        world.compute(post)
                        world.recv(source=0, tag=3)

        eng.run(main)
        doc = chrome_trace(eng.obs)
        validate_chrome_trace(doc)
        spans_by_tid = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                lo, hi = spans_by_tid.get(
                    e["tid"], (float("inf"), float("-inf")))
                spans_by_tid[e["tid"]] = (min(lo, e["ts"]),
                                          max(hi, e["ts"] + e["dur"]))
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 2 * len(computes)
        eps = 1e-6  # float µs conversion slack
        for e in flows:
            lo, hi = spans_by_tid[e["tid"]]
            assert lo - eps <= e["ts"] <= hi + eps


class TestWrite:
    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "t.json"
        doc = write_chrome_trace(str(path), _demo_obs())
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        validate_chrome_trace(on_disk)


class TestCLITraceVerb:
    def test_cli_exports_multilayer_trace(self, tmp_path, capsys):
        from repro.tools.__main__ import main

        path = tmp_path / "demo.json"
        assert main(["trace", str(path), "--nprod", "2",
                     "--ncons", "1"]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"simmpi", "lowfive", "workflow"} <= cats

    def test_summary_counts_metrics_not_kinds(self, tmp_path, capsys):
        from repro.tools.__main__ import main

        path = tmp_path / "demo.json"
        assert main(["trace", str(path), "--nprod", "2",
                     "--ncons", "1"]) == 0
        out = capsys.readouterr().out
        metrics = json.loads(path.read_text())["otherData"]["metrics"]
        n = sum(len(by_key) for by_key in metrics.values())
        assert n > len(metrics)
        assert f", {n} metric series" in out
