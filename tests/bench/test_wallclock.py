"""The wall-clock rows of the reference-run gate: the Fig. 5/7 drivers,
the matching stress, the telemetry-overhead row, and their drift check
against the committed reference."""

import copy
import json

from repro.bench.drivers import stress_matching
from repro.bench.registry import FIG_ROWS, OVERHEAD, PARAMS, REGISTRY, STRESS
from repro.obs.ledger import EXACT_FIELDS, compare_runs
from repro.tools.__main__ import main


class TestSuite:
    def test_covers_fig_drivers_and_stress(self, gate_run):
        names = {r["workload"] for r in gate_run.doc["runs"]}
        assert {*FIG_ROWS, STRESS} == {
            "fig5/lowfive_memory/P4", "fig5/lowfive_file/P4",
            "fig7/pure_mpi/P4", "stress/matching/R256",
        }
        assert {*FIG_ROWS, STRESS} <= names

    def test_records_wall_and_virtual_fields(self, gate_run):
        for run in gate_run.doc["runs"]:
            assert run["wall_seconds"] > 0
            assert run["vtime"] > 0
            assert run["messages"] > 0

    def test_stress_workload_is_deterministic(self):
        from repro.simmpi import run_world

        a = run_world(16, stress_matching, timeout=60.0)
        b = run_world(16, stress_matching, timeout=60.0)
        assert a.vtime == b.vtime  # noqa: ANL004 - exact determinism is the contract
        assert a.messages == b.messages == 15 * 4 * 8
        assert a.bytes_sent == b.bytes_sent


class TestDriftGate:
    def test_identical_reference_passes(self, gate_run):
        runs = gate_run.doc["runs"]
        problems, compared = compare_runs(copy.deepcopy(runs),
                                          {"runs": copy.deepcopy(runs)})
        assert compared and problems == []

    def test_vtime_drift_detected(self, gate_run):
        ref = {"runs": copy.deepcopy(gate_run.doc["runs"])}
        ref["runs"][0]["vtime"] *= 1.000001
        problems, _ = compare_runs(gate_run.doc["runs"], ref)
        assert len(problems) == 1 and "vtime drifted" in problems[0]

    def test_message_count_drift_detected(self, gate_run):
        ref = {"runs": copy.deepcopy(gate_run.doc["runs"])}
        ref["runs"][-1]["messages"] += 1
        problems, _ = compare_runs(gate_run.doc["runs"], ref)
        assert any("messages drifted" in p for p in problems)


class TestCli:
    def test_writes_schema_versioned_document(self, gate, gate_run):
        doc = gate_run.doc
        assert doc["schema_version"] == gate.SCHEMA_VERSION == 1
        assert len(doc["runs"]) == len(REGISTRY) == 18
        by_name = {r["workload"]: r for r in doc["runs"]}
        obs, stress = by_name[OVERHEAD], by_name[STRESS]
        assert obs["wall_obs_off"] > 0
        assert "obs_overhead_frac" in obs
        # One instrumented measurement: the stress row's own.
        for fieldname in ("wall_seconds", *EXACT_FIELDS):
            assert obs[fieldname] == stress[fieldname]  # noqa: ANL004

    def test_check_ref_fails_on_drift(self, gate_run, bench_ref, tmp_path):
        ref = json.load(open(bench_ref))
        ref["runs"][0]["vtime"] += 1.0
        bad = tmp_path / "ref.json"
        bad.write_text(json.dumps(ref))
        assert main(["regress", gate_run.path, "--ref", str(bad),
                     "--check-ref"]) == 1

    def test_check_ref_passes_on_identical_virtual_results(
            self, gate_run, bench_ref):
        # The gate reproduces every committed row, digests included,
        # both as a document and through the ledger it appended to.
        for doc in (gate_run.path, gate_run.ledger):
            assert main(["regress", doc, "--ref", bench_ref,
                         "--check-ref"]) == 0

    def test_committed_reference_is_valid(self, bench_ref):
        ref = json.load(open(bench_ref))
        assert ref["schema_version"] == 1
        assert ref["params"] == PARAMS
        assert [r["workload"] for r in ref["runs"]] == \
            [name for name in REGISTRY if name != OVERHEAD]
        for r in ref["runs"]:
            assert r["wall_seconds"] > 0
            for fieldname in EXACT_FIELDS:
                assert fieldname in r
            assert ("digest" in r) == r["workload"].startswith(
                ("stream/direct", "stream/level"))
