"""repro.analyze.proto -- static communication-protocol verification.

The static twin of the dynamic analyzers: where ``analyze_obs``
certifies the one schedule that executed, this package proves protocol
properties of rank-body *code* for every rank and branch before a
single virtual second is simulated. Per-function CFGs
(:mod:`~repro.analyze.proto.cfg`) are abstractly interpreted
(:mod:`~repro.analyze.proto.interp`) over a symbolic rank/tag domain
(:mod:`~repro.analyze.proto.domain`), and the PRO00x rules
(:mod:`~repro.analyze.proto.rules`) compare the resulting path
effects:

========  ==========================================================
PRO001    Collective divergence: a collective reachable on one arm of
          a rank-dependent guard but not the other.
PRO002    Unmatched point-to-point: a send no reachable recv covers,
          or a recv nothing sends to.
PRO003    Static wait-for cycle in the replayed exchange (the static
          twin of the dynamic deadlock explainer).
PRO004    Handle/epoch leak: an h5 file or stream epoch opened but
          not closed/released on some path.
PRO005    Tag/comm type confusion: non-int tags/peers, or a match
          that only works across different communicators.
========  ==========================================================

Suppression mirrors the lint (:mod:`repro.analyze.frontend`): a
trailing ``# noqa: PRO00X`` silences the line, and the known-bad
corpus under ``tests/analyze/proto_corpus/`` is excluded from
directory walks (it exists to be bad) while staying reachable as an
explicit file target.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analyze.frontend import check_files, suppressed_lines
from repro.analyze.proto.rules import (
    PROTO_RULES, ProtoFinding, STATIC_PROTOCOL, check_tree,
)

__all__ = [
    "PROTO_RULES", "ProtoFinding", "STATIC_PROTOCOL",
    "check_source", "check_paths",
]

#: Directory fragments excluded from directory walks: fixture trees
#: that are intentionally protocol-broken.
EXCLUDED_DIR_FRAGMENTS = (
    "tests/analyze/proto_corpus",
)


def check_source(source: str, path: str,
                 skip: frozenset[str] = frozenset(),
                 ) -> list[ProtoFinding]:
    """Check one file's text; ``skip`` holds rule codes to ignore."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [ProtoFinding(
            rule="PRO000", path=path, line=exc.lineno or 0,
            col=exc.offset or 0, func="<module>",
            message=f"syntax error: {exc.msg}")]
    suppressed = suppressed_lines(source, PROTO_RULES)
    return [f for f in check_tree(tree, path)
            if f.rule not in skip
            and (f.rule, f.line) not in suppressed]


def check_paths(paths: Iterable[str]) -> list[ProtoFinding]:
    """Check files and directory trees; findings in path, then line
    order.

    Directory walks skip the known-bad corpus; naming a corpus file
    explicitly still checks it (that is how its tests assert on it).
    """
    return check_files(paths, check_source, EXCLUDED_DIR_FRAGMENTS)
