"""``repro.tools regress``: the unified cross-run regression gate.

The acceptance bar: on the committed benchmark baselines the CLI must
reproduce the exact pass/fail verdicts (and error strings) of the
pre-existing per-bench ``--check-ref`` gates it replaced.
"""

import json
import os

import pytest

from repro.tools.regress import parse_tol, shared_params
from repro.tools.__main__ import main

_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "benchmarks",
)
WALLCLOCK_REF = os.path.join(_BENCH, "BENCH_wallclock_ref.json")
STREAM_REF = os.path.join(_BENCH, "BENCH_stream_ref.json")


def _mutate(ref_path, tmp_path, **changes):
    """Copy a committed ref, applying ``changes`` to its first run."""
    doc = json.load(open(ref_path))
    doc["runs"][0].update(changes)
    out = tmp_path / "mutated.json"
    out.write_text(json.dumps(doc))
    return str(out)


class TestVerdictsOnCommittedBaselines:
    def test_wallclock_ref_vs_itself_passes(self, capsys):
        rc = main(["regress", WALLCLOCK_REF, "--ref", WALLCLOCK_REF,
                   "--check-ref", "--no-digest"])
        assert rc == 0
        assert "no drift detected" in capsys.readouterr().out

    def test_stream_ref_vs_itself_passes(self):
        assert main(["regress", STREAM_REF, "--ref", STREAM_REF,
                     "--check-ref"]) == 0

    def test_virtual_drift_fails_with_legacy_message(self, tmp_path,
                                                     capsys):
        doc = json.load(open(WALLCLOCK_REF))
        old = doc["runs"][0]["vtime"]
        bad = _mutate(WALLCLOCK_REF, tmp_path, vtime=old * 2)
        rc = main(["regress", bad, "--ref", WALLCLOCK_REF,
                   "--check-ref", "--no-digest"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"vtime drifted {old!r} -> {old * 2!r}" in err

    def test_drift_names_the_first_difference(self, tmp_path, capsys):
        """A drifted record is followed by the path and both values
        of the first stable leaf that differs, not just a verdict."""
        doc = json.load(open(STREAM_REF))
        name = doc["runs"][0]["workload"]
        old = doc["runs"][0]["bytes_sent"]
        bad = _mutate(STREAM_REF, tmp_path, bytes_sent=old + 1,
                      wall_seconds=1e9)  # volatile: never the answer
        assert main(["regress", bad, "--ref", STREAM_REF,
                     "--check-ref"]) == 1
        err = capsys.readouterr().err
        assert (f"{name}: first difference at /bytes_sent: "
                f"{old!r} != {old + 1!r}") in err

    def test_stream_digest_drift_fails(self, tmp_path, capsys):
        bad = _mutate(STREAM_REF, tmp_path, digest="0000000000000000")
        rc = main(["regress", bad, "--ref", STREAM_REF, "--check-ref"])
        assert rc == 1
        assert "data digest drifted" in capsys.readouterr().err

    def test_params_mismatch_is_the_legacy_guard(self, tmp_path,
                                                 capsys):
        doc = json.load(open(WALLCLOCK_REF))
        doc["params"]["elems_per_proc"] = 1
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        rc = main(["regress", str(cur), "--ref", WALLCLOCK_REF,
                   "--check-ref", "--no-digest"])
        assert rc == 1
        assert "do not cover this run" in capsys.readouterr().err
        # Without --check-ref the guard downgrades to a skip.
        assert main(["regress", str(cur), "--ref", WALLCLOCK_REF,
                     "--no-digest"]) == 0

    def test_ignore_params_bypasses_the_guard(self, tmp_path):
        doc = json.load(open(WALLCLOCK_REF))
        doc["params"]["elems_per_proc"] = 1
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(doc))
        assert main(["regress", str(cur), "--ref", WALLCLOCK_REF,
                     "--check-ref", "--no-digest",
                     "--ignore-params"]) == 0

    def test_missing_reference(self, tmp_path, capsys):
        rc = main(["regress", WALLCLOCK_REF, "--ref",
                   str(tmp_path / "absent.json"), "--check-ref"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err


class TestTolerancesAndLedgers:
    def test_wall_clock_tolerance(self, tmp_path):
        old = json.load(open(WALLCLOCK_REF))["runs"][0]["wall_seconds"]
        cur = _mutate(WALLCLOCK_REF, tmp_path, wall_seconds=old * 1.2)
        assert main(["regress", cur, "--ref", WALLCLOCK_REF,
                     "--check-ref", "--no-digest",
                     "--tol", "wall_seconds=0.5"]) == 0
        assert main(["regress", cur, "--ref", WALLCLOCK_REF,
                     "--check-ref", "--no-digest",
                     "--tol", "wall_seconds=0.01"]) == 1

    def test_jsonl_ledger_as_current_document(self, tmp_path):
        from repro.obs.ledger import Ledger

        led = Ledger(str(tmp_path / "runs.jsonl"))
        assert led.append_doc(json.load(open(STREAM_REF))) > 0
        assert main(["regress", led.path, "--ref", STREAM_REF]) == 0

    def test_empty_document_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"runs": []}))
        assert main(["regress", str(empty), "--ref",
                     WALLCLOCK_REF]) == 1


class TestHelpers:
    def test_parse_tol(self):
        assert parse_tol(["wall_seconds=0.5", "a.b=0.1"]) == \
            {"wall_seconds": 0.5, "a.b": 0.1}
        with pytest.raises(ValueError):
            parse_tol(["nonsense"])

    def test_shared_params_intersection(self, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(
            {"params": {"a": 1, "b": 2}, "runs": []}))
        cur = {"params": {"a": 9, "c": 3}}
        assert shared_params(cur, str(ref)) == {"a": 9}
        assert shared_params({"params": {}}, str(ref)) is None
