"""Negative controls for every invariant of the reference-run gate:
a doctored copy of a healthy gate document must trip exactly the
invariant it breaks (:func:`repro.bench.registry.check`)."""

import copy

import pytest

from repro.bench.registry import OVERHEAD, check

MEMORY = "fig5/lowfive_memory/P4"
MISMATCH = "stream/rate_mismatch/P4"


def _set(path, value):
    def doctor(rows):
        row, *keys = path
        target = rows[row]
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
    return doctor


def _copy_digest(rows):
    rows["stream/level0/P16"]["digest"] = rows["stream/level1/P16"]["digest"]


def _flat_wire(rows):
    rows["stream/level2/P64"]["bytes_sent"] = \
        rows["stream/level1/P64"]["bytes_sent"]


def _perturbed_null_run(rows):
    rows[OVERHEAD]["messages"] += 1


DOCTORED = {
    "consumer validation": (_set((MEMORY, "validated"), False),
                            "consumer validation failed"),
    "no attribution": (_set((MEMORY, "attribution"), None),
                       "no attribution recorded"),
    "conservation": (_set((MEMORY, "attribution", "conservation_ok"), False),
                     "conservation violated"),
    "critical-path residual": (
        _set((MEMORY, "attribution", "critpath_residual"), 2e-9),
        "critical-path residual"),
    "level-0 digest": (_copy_digest, "P16: level-0 stream digest"),
    "wire bytes": (_flat_wire,
                   "P64: bytes on wire not strictly decreasing"),
    "queue depth": (_set((MISMATCH, "max_depth"), 3),
                    "max depth 3 exceeds max_lag 2"),
    "no backpressure": (_set((MISMATCH, "backpressure_cause_ranks"), []),
                        "no backpressure waits recorded"),
    "backpressure cause": (
        _set((MISMATCH, "backpressure_cause_ranks"), [0, 2]),
        "backpressure attributed to [0, 2]"),
    "telemetry perturbs the run": (_perturbed_null_run,
                                   "messages changed with telemetry disabled"),
}


def _rows(gate_run):
    return {r["workload"]: r for r in copy.deepcopy(gate_run.doc["runs"])}


def test_healthy_document_passes(gate_run):
    assert gate_run.rc == 0
    assert check(gate_run.doc["runs"]) == []


@pytest.mark.parametrize("name", DOCTORED)
def test_each_invariant_trips_alone(gate_run, name):
    doctor, message = DOCTORED[name]
    rows = _rows(gate_run)
    doctor(rows)
    problems = check(list(rows.values()))
    assert len(problems) == 1 and message in problems[0], problems


def test_overhead_budget(gate_run):
    rows = _rows(gate_run)
    rows[OVERHEAD]["obs_overhead_frac"] = 0.3
    assert check(list(rows.values())) == []  # no budget, no gate
    assert check(list(rows.values()), obs_budget=0.5) == []
    problems = check(list(rows.values()), obs_budget=0.25)
    assert problems == ["obs overhead 30.0% exceeds budget 25.0%"]
