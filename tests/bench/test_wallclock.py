"""Wall-clock perf harness: schema, drift gate, speedup accounting."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "benchmarks", "bench_wallclock.py",
)


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_wallclock",
                                                  _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def runs(harness):
    return harness.run_suite(elems=2000, nprocs=4, stress_ranks=32,
                             repeats=1)


class TestSuite:
    def test_covers_fig_drivers_and_stress(self, runs):
        names = {r["workload"] for r in runs}
        assert names == {
            "fig5/lowfive_memory/P4", "fig5/lowfive_file/P4",
            "fig7/pure_mpi/P4", "stress/matching/R32",
        }

    def test_records_wall_and_virtual_fields(self, runs):
        for run in runs:
            assert run["wall_seconds"] > 0
            assert run["vtime"] > 0
            assert run["messages"] > 0

    def test_stress_workload_is_deterministic(self, harness):
        from repro.simmpi import run_world

        a = run_world(16, harness.stress_matching, timeout=60.0)
        b = run_world(16, harness.stress_matching, timeout=60.0)
        assert a.vtime == b.vtime  # noqa: ANL004 - exact determinism is the contract
        assert a.messages == b.messages == 15 * 4 * 8
        assert a.bytes_sent == b.bytes_sent


class TestDriftGate:
    def test_identical_reference_passes(self, harness, runs):
        ref = {"runs": [dict(r) for r in runs]}
        problems, compared = harness.compare(
            [dict(r) for r in runs], ref)
        assert compared and problems == []

    def test_vtime_drift_detected(self, harness, runs):
        ref = {"runs": [dict(r) for r in runs]}
        ref["runs"][0]["vtime"] *= 1.000001
        problems, _ = harness.compare([dict(r) for r in runs], ref)
        assert len(problems) == 1 and "vtime drifted" in problems[0]

    def test_message_count_drift_detected(self, harness, runs):
        ref = {"runs": [dict(r) for r in runs]}
        ref["runs"][-1]["messages"] += 1
        problems, _ = harness.compare([dict(r) for r in runs], ref)
        assert any("messages drifted" in p for p in problems)

    def test_speedup_computed_against_reference(self, harness, runs):
        mine = [dict(r) for r in runs]
        ref = {"runs": [dict(r) for r in runs]}
        for r in ref["runs"]:
            r["wall_seconds"] = r["wall_seconds"] * 4
        harness.compare(mine, ref)
        for r in mine:
            assert r["speedup_vs_reference"] == pytest.approx(4.0)


class TestCli:
    def test_writes_schema_versioned_document(self, harness, tmp_path):
        out = tmp_path / "wallclock.json"
        rc = harness.main([
            "--output", str(out), "--elems", "2000",
            "--stress-ranks", "16", "--ref", str(tmp_path / "missing"),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == harness.SCHEMA_VERSION == 1
        assert len(doc["runs"]) == 5  # 4 workloads + obs self-accounting
        by_name = {r["workload"]: r for r in doc["runs"]}
        obs, stress = by_name["obs/overhead/R16"], \
            by_name["stress/matching/R16"]
        assert obs["wall_obs_off"] > 0
        assert "obs_overhead_frac" in obs
        # One instrumented measurement: the stress row's own.
        for fieldname in ("wall_seconds", *harness.VIRTUAL_FIELDS):
            assert obs[fieldname] == stress[fieldname]  # noqa: ANL004

    def test_check_ref_fails_on_drift(self, harness, tmp_path):
        out = tmp_path / "first.json"
        rc = harness.main([
            "--output", str(out), "--elems", "2000",
            "--stress-ranks", "16", "--ref", str(tmp_path / "missing"),
        ])
        assert rc == 0
        ref = json.loads(out.read_text())
        ref["runs"][0]["vtime"] += 1.0
        ref_path = tmp_path / "ref.json"
        ref_path.write_text(json.dumps(ref))
        rc = harness.main([
            "--output", str(tmp_path / "second.json"),
            "--elems", "2000", "--stress-ranks", "16",
            "--ref", str(ref_path), "--check-ref",
        ])
        assert rc == 1

    def test_check_ref_passes_on_identical_virtual_results(
            self, harness, tmp_path):
        out = tmp_path / "first.json"
        harness.main([
            "--output", str(out), "--elems", "2000",
            "--stress-ranks", "16", "--ref", str(tmp_path / "missing"),
        ])
        rc = harness.main([
            "--output", str(tmp_path / "second.json"),
            "--elems", "2000", "--stress-ranks", "16",
            "--ref", str(out), "--check-ref",
        ])
        assert rc == 0

    def test_committed_reference_is_valid(self, harness):
        with open(harness.DEFAULT_REF) as f:
            ref = json.load(f)
        assert ref["schema_version"] == harness.SCHEMA_VERSION
        assert {r["workload"] for r in ref["runs"]} == {
            "fig5/lowfive_memory/P4", "fig5/lowfive_file/P4",
            "fig7/pure_mpi/P4", "stress/matching/R256",
        }
        for r in ref["runs"]:
            assert r["wall_seconds"] > 0
            for fieldname in harness.VIRTUAL_FIELDS:
                assert fieldname in r
