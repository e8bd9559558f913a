"""repro.analyze -- schedule analysis and virtual-time lint.

Two halves, one purpose: trust the simulated schedules.

**Dynamic** (needs a recorded run's ``Observability``): vector clocks
derived from the causal trace (:mod:`repro.analyze.vclock`), a
wildcard-receive race detector (:mod:`repro.analyze.races`),
collective-mismatch, message-leak and stream-epoch-leak checks
(:mod:`repro.analyze.checks`), and a wait-for-graph deadlock explainer
(:mod:`repro.analyze.deadlock`) that the engine folds into every
``DeadlockError``. :func:`analyze_obs` runs the full battery.

**Static** (needs only source text): the ANL00x lint rules
(:mod:`repro.analyze.lint`) that keep wall-clock reads, dropped
request handles, raw thread primitives, float clock equality, unclosed
h5 files and swallowed rank failures out of virtual-time code.

Command line: ``python -m repro.tools run`` (every dynamic check, on
one run) / ``... lint``.
"""

from __future__ import annotations

from typing import Any

from repro.analyze.checks import (
    check_collectives,
    check_leaks,
    check_stream_leaks,
)
from repro.analyze.deadlock import explain_deadlock, find_cycle, wait_for_graph
from repro.analyze.finding import (
    COLLECTIVE_MISMATCH,
    EPOCH_LEAK,
    FINDING_KINDS,
    Finding,
    MESSAGE_LEAK,
    WILDCARD_RACE,
    msg_label,
)
from repro.analyze.lint import RULES, Violation, lint_paths, lint_source
from repro.analyze.races import find_races
from repro.analyze.vclock import (
    HBRelation,
    TraceInconsistency,
    build_happens_before,
    concurrent,
    happens_before,
)

__all__ = [
    "COLLECTIVE_MISMATCH",
    "EPOCH_LEAK",
    "FINDING_KINDS",
    "Finding",
    "HBRelation",
    "MESSAGE_LEAK",
    "RULES",
    "TraceInconsistency",
    "Violation",
    "WILDCARD_RACE",
    "analyze_obs",
    "build_happens_before",
    "check_collectives",
    "check_leaks",
    "check_stream_leaks",
    "concurrent",
    "explain_deadlock",
    "find_cycle",
    "find_races",
    "happens_before",
    "lint_paths",
    "lint_source",
    "msg_label",
    "wait_for_graph",
]


def analyze_obs(obs: Any, nranks: int | None = None) -> list[Finding]:
    """Run every dynamic check over one recorded run.

    Returns all findings -- wildcard races, collective mismatches,
    message leaks and stream epoch leaks -- sorted by (kind, rank,
    summary) so repeated analyses of the same trace render identically.
    """
    hb = build_happens_before(obs, nranks)
    findings = (find_races(obs, nranks, hb=hb)
                + check_collectives(obs)
                + check_leaks(obs)
                + check_stream_leaks(obs))
    findings.sort(key=lambda f: (f.kind, f.rank, f.summary))
    return findings
