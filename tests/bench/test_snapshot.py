"""The reference-run gate's document: envelope, one row per registry
entry, the Fig. 5/7 rows' causal attribution, the gate's exit."""

import copy
import json

from repro.bench.registry import FIG_ROWS, PARAMS, REGISTRY, check


class TestSchema:
    def test_versioned_envelope(self, gate_run):
        assert gate_run.doc["schema_version"] == 1
        assert gate_run.doc["params"] == PARAMS

    def test_one_run_per_configured_driver(self, gate_run):
        assert [r["workload"] for r in gate_run.doc["runs"]] == \
            list(REGISTRY)

    def test_runs_carry_attribution(self, gate_run):
        for run in gate_run.doc["runs"]:
            if run["workload"] not in FIG_ROWS:
                continue
            a = run["attribution"]
            assert a["conservation_ok"] is True
            assert abs(a["critpath_residual"]) <= 1e-9
            assert set(a["critpath"]) == \
                {"simmpi", "lowfive", "pfs", "compute", "wait"}
            assert run["vtime"] > 0 and run["validated"]

    def test_json_serializable_without_timestamps(self, gate_run):
        doc = gate_run.doc
        json.dumps(doc, sort_keys=True)

        def keys(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield k
                    yield from keys(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from keys(v)

        # Deterministic output: no wall-clock fields anywhere.
        banned = {"timestamp", "date", "created", "generated_at"}
        assert not banned & set(keys(doc))

    def test_check_flags_violations(self, gate_run):
        assert check(gate_run.doc["runs"]) == []
        broken = copy.deepcopy(gate_run.doc["runs"])
        broken[0]["attribution"]["conservation_ok"] = False
        broken[1]["validated"] = False
        problems = check(broken)
        assert len(problems) == 2
        assert any("conservation" in p for p in problems)


class TestMain:
    def test_writes_file_and_exits_zero(self, gate_run):
        from repro.obs.ledger import Ledger

        assert gate_run.rc == 0
        assert "wrote" in gate_run.stdout
        assert len(Ledger(gate_run.ledger).records()) == len(REGISTRY)
