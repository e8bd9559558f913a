"""Run ledger: records, digests, JSONL persistence, the comparator."""

import json

import pytest

from repro.obs.ledger import (
    EXACT_FIELDS,
    Ledger,
    RunRecord,
    check_reference,
    compare_runs,
    cost_digest,
    counter_totals,
    load_runs_doc,
    record_from_result,
)


def _record(**kw):
    base = dict(workload="fig5/lowfive_memory/P4", vtime=1.25,
                messages=100, bytes_sent=4096)
    base.update(kw)
    return RunRecord(**base)


class TestRunRecord:
    def test_round_trips_through_json(self):
        rec = _record(params={"elems": 10}, counters={"pfs.bytes": 7.0},
                      failed_tasks=("t1",))
        back = RunRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back == rec

    def test_unknown_keys_land_in_extra(self):
        doc = _record().to_json()
        doc["levels"] = 3
        back = RunRecord.from_json(doc)
        assert back.extra["levels"] == 3

    def test_digest_ignores_volatile_fields(self):
        a = _record(wall_seconds=1.0, created_at="2026-01-01",
                    git_rev="abc")
        b = _record(wall_seconds=9.0, created_at="2026-12-31",
                    git_rev="def")
        assert a.digest() == b.digest()

    def test_digest_tracks_stable_fields(self):
        assert _record().digest() != _record(vtime=1.26).digest()
        assert _record().digest() != \
            _record(counters={"x": 1.0}).digest()

    def test_stable_json_drops_every_volatile_field(self):
        doc = _record(wall_seconds=1.0).stable_json()
        assert "wall_seconds" not in doc
        assert "created_at" not in doc
        assert doc["vtime"] == 1.25


class TestHelpers:
    def test_cost_digest_stable_and_none_safe(self):
        from repro.lowfive.config import CostConfig

        assert cost_digest(None) is None
        assert cost_digest(CostConfig()) == cost_digest(CostConfig())
        assert cost_digest(CostConfig()) != \
            cost_digest(CostConfig(rpc_timeout=0.1))

    def test_counter_totals_folds_labels(self):
        doc = {"counter": {
            "pfs.bytes{rank=0}": {"total": 10.0},
            "pfs.bytes{rank=1}": {"total": 5.0},
            "msgs": {"total": 2.0},
        }}
        assert counter_totals(doc) == {"pfs.bytes": 15.0, "msgs": 2.0}
        assert counter_totals(None) == {}


class TestLedgerFile:
    def test_append_and_read_back(self, tmp_path):
        path = str(tmp_path / "sub" / "ledger.jsonl")
        led = Ledger(path)
        led.append(_record())
        led.append(_record(workload="fig7/pure_mpi/P4"))
        recs = led.records()
        assert [r.workload for r in recs] == \
            ["fig5/lowfive_memory/P4", "fig7/pure_mpi/P4"]

    def test_latest_returns_newest_of_workload(self, tmp_path):
        led = Ledger(str(tmp_path / "l.jsonl"))
        led.append(_record(vtime=1.0))
        led.append(_record(vtime=2.0))
        assert led.latest("fig5/lowfive_memory/P4").vtime == 2.0  # noqa: ANL004
        assert led.latest("nope") is None

    def test_missing_file_is_empty(self, tmp_path):
        assert Ledger(str(tmp_path / "absent.jsonl")).records() == []

    def test_runs_doc_keeps_newest_per_workload(self, tmp_path):
        led = Ledger(str(tmp_path / "l.jsonl"))
        led.append(_record(vtime=1.0))
        led.append(_record(workload="b", vtime=5.0))
        led.append(_record(vtime=2.0))
        doc = led.runs_doc()
        assert [r["workload"] for r in doc["runs"]] == \
            ["b", "fig5/lowfive_memory/P4"]
        assert doc["runs"][1]["vtime"] == 2.0

    def test_append_doc_maps_bench_runs(self, tmp_path):
        led = Ledger(str(tmp_path / "l.jsonl"))
        doc = {"params": {"elems": 4},
               "runs": [{"workload": "w", "vtime": 1.0, "messages": 2,
                         "bytes_sent": 3, "nprocs": 4,
                         "digest": "cafe", "levels": 1}]}
        assert led.append_doc(doc) == 1
        rec = led.records()[0]
        assert rec.params == {"elems": 4}
        assert rec.extra["digest"] == "cafe"
        assert rec.extra["levels"] == 1

    def test_load_runs_doc_both_formats(self, tmp_path):
        led = Ledger(str(tmp_path / "l.jsonl"))
        led.append(_record())
        assert load_runs_doc(led.path)["runs"][0]["vtime"] == 1.25
        plain = tmp_path / "doc.json"
        plain.write_text(json.dumps({"runs": [{"workload": "w"}]}))
        assert load_runs_doc(str(plain))["runs"] == [{"workload": "w"}]


def _runs():
    return [{"workload": "w1", "vtime": 1.0, "messages": 10,
             "bytes_sent": 100, "wall_seconds": 2.0, "digest": "aa"},
            {"workload": "w2", "vtime": 2.0, "messages": 20,
             "bytes_sent": 200, "wall_seconds": 4.0, "digest": "bb"}]


class TestCompareRuns:
    def test_identical_runs_have_no_drift(self):
        problems, compared = compare_runs(_runs(), {"runs": _runs()})
        assert compared and problems == []

    def test_exact_field_drift_message_matches_legacy_format(self):
        runs = _runs()
        runs[0]["vtime"] = 1.5
        problems, _ = compare_runs(runs, {"runs": _runs()})
        assert problems == ["w1: vtime drifted 1.0 -> 1.5"]

    def test_digest_drift_detected_in_both_layouts(self):
        runs = _runs()
        runs[1]["digest"] = "xx"
        problems, _ = compare_runs(runs, {"runs": _runs()})
        assert problems == ["w2: data digest drifted"]
        # Ledger records carry the digest under "extra".
        nested = [{"workload": "w2", "vtime": 2.0, "messages": 20,
                   "bytes_sent": 200, "extra": {"digest": "xx"}}]
        problems, _ = compare_runs(nested, {"runs": _runs()})
        assert problems == ["w2: data digest drifted"]
        problems, _ = compare_runs(nested, {"runs": _runs()},
                                   check_digest=False)
        assert problems == []

    def test_unmatched_workloads_are_skipped(self):
        problems, compared = compare_runs(
            [{"workload": "other", "vtime": 9.9}], {"runs": _runs()})
        assert not compared and problems == []

    def test_tolerances_use_relative_drift(self):
        runs = _runs()
        runs[0]["wall_seconds"] = 2.2  # 10% off the reference 2.0
        problems, _ = compare_runs(runs, {"runs": _runs()},
                                   tolerances={"wall_seconds": 0.5})
        assert problems == []
        problems, _ = compare_runs(runs, {"runs": _runs()},
                                   tolerances={"wall_seconds": 0.05})
        assert len(problems) == 1 and "tolerance" in problems[0]

    def test_annotate_wall_writes_speedups(self):
        runs = _runs()
        runs[0]["wall_seconds"] = 1.0
        compare_runs(runs, {"runs": _runs()}, annotate_wall=True)
        assert runs[0]["ref_wall_seconds"] == 2.0
        assert runs[0]["speedup_vs_reference"] == 2.0


class TestCheckReference:
    def test_missing_reference_gated_by_check_ref(self, tmp_path):
        path = str(tmp_path / "absent.json")
        assert check_reference(_runs(), path) == []
        assert check_reference(_runs(), path, check_ref=True) == \
            [f"reference {path} not found"]

    def test_params_mismatch_gated_by_check_ref(self, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"params": {"elems": 100},
                                   "runs": _runs()}))
        ours = {"elems": 5}
        assert check_reference(_runs(), str(ref), our_params=ours) == []
        probs = check_reference(_runs(), str(ref), our_params=ours,
                                check_ref=True)
        assert len(probs) == 1 and "do not cover this run" in probs[0]

    def test_empty_intersection_is_a_problem_under_check_ref(
            self, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"runs": _runs()}))
        probs = check_reference([{"workload": "other"}], str(ref),
                                check_ref=True)
        assert probs == ["reference matched no workloads"]

    def test_matching_reference_passes(self, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"params": {"elems": 5},
                                   "runs": _runs()}))
        assert check_reference(_runs(), str(ref),
                               our_params={"elems": 5},
                               check_ref=True) == []


class TestRecordFromResult:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.tools import run_workload, workload_args

        return run_workload(workload_args(
            nprod=2, ncons=1, grid_points=512, particles=256))

    def test_distills_workflow_result(self, res):
        rec = record_from_result(res, "demo", mode="memory",
                                 params={"nprod": 2}, seed=0)
        assert rec.workload == "demo"
        assert rec.vtime == res.vtime  # noqa: ANL004
        assert rec.nprocs == 3
        assert rec.counters  # PFS / transport counters present
        assert rec.series    # stable series digests present
        assert rec.attribution["conservation_ok"]

    def test_same_seed_records_are_byte_identical(self, res):
        # The acceptance criterion: same-seed runs differ only in the
        # volatile fields, so the stable digest must agree exactly.
        from repro.tools import run_workload, workload_args

        res2 = run_workload(workload_args(
            nprod=2, ncons=1, grid_points=512, particles=256))
        a = record_from_result(res, "demo", mode="memory",
                               wall_seconds=1.0)
        b = record_from_result(res2, "demo", mode="memory",
                               wall_seconds=2.0)
        assert a.digest() == b.digest()
        assert json.dumps(a.stable_json(), sort_keys=True) == \
            json.dumps(b.stable_json(), sort_keys=True)

    def test_workflow_result_shortcut(self, res):
        rec = res.run_record("demo", mode="memory")
        assert rec.workload == "demo"
        assert rec.vtime == res.vtime  # noqa: ANL004
        assert rec.digest() == record_from_result(
            res, "demo", mode="memory").digest()

    def test_exact_fields_constant_matches_bench_contract(self):
        assert EXACT_FIELDS == ("vtime", "messages", "bytes_sent")
