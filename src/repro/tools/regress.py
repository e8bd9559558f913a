"""The drift gate: ``python -m repro.tools regress``.

Compares any run document -- a bench JSON (``{"runs": [...]}``) or a
JSONL run ledger -- against a committed reference or another ledger
through the one comparator (:mod:`repro.obs.ledger`). The reference
runs are gated with ``regress F --ref benchmarks/BENCH_ref.json
--check-ref``, ``F`` being ``benchmarks/bench_gate.py``'s document or
a ledger it appended to:

- *exact* fields (default ``vtime``/``messages``/``bytes_sent``, plus
  the ``digest`` data fingerprints the reference carries) must be
  bit-identical;
- *toleranced* fields (``--tol wall_seconds=0.5``,
  ``--tol attribution.shares.wait=0.25``; dotted paths reach into
  nested dicts) may drift within a relative bound;
- parameters gate the comparison: the reference must agree on every
  parameter key both documents share (``--ignore-params`` skips this);
- with ``--check-ref`` every reference row must have a current run.

Every drifted record is followed by its *first difference*: the path
and both values of the first leaf at which the stable portions of the
reference and the current record disagree (:func:`first_diff`).

Exit status is the gate verdict: 0 clean, 1 on any drift (or, with
``--check-ref``, on a missing or non-covering reference or an
unmatched reference row).
"""

from __future__ import annotations

import json
import sys

from repro.obs.ledger import (
    EXACT_FIELDS,
    check_reference,
    first_diff,
    load_runs_doc,
    stable_doc,
)


def parse_tol(specs) -> dict:
    """``["wall_seconds=0.5", ...]`` -> ``{"wall_seconds": 0.5}``."""
    out = {}
    for spec in specs or ():
        path, _, bound = spec.partition("=")
        if not bound:
            raise ValueError(
                f"tolerance {spec!r} must look like field.path=0.25"
            )
        out[path] = float(bound)
    return out


def shared_params(current: dict, ref_path: str) -> dict | None:
    """The current document's params restricted to keys the reference
    also declares (``None`` = skip the gate: either side has none).

    A reference with no ``params`` (e.g. a ledger) gates nothing; a key
    only one side declares cannot disagree, so it does not gate either.
    """
    cur = current.get("params")
    if not cur:
        return None
    try:
        ref = load_runs_doc(ref_path).get("params")
    except (OSError, json.JSONDecodeError):
        return None
    if not ref:
        return None
    keys = set(cur) & set(ref)
    return {k: cur[k] for k in sorted(keys)} or None


def run(args) -> int:
    """Entry point of the ``regress`` subcommand."""
    try:
        current = load_runs_doc(args.document)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: cannot load {args.document}: {exc}",
              file=sys.stderr)
        return 1
    runs = current.get("runs", [])
    if not runs:
        print(f"ERROR: {args.document} contains no runs",
              file=sys.stderr)
        return 1

    exact = tuple(args.exact.split(",")) if args.exact else EXACT_FIELDS
    try:
        tolerances = parse_tol(args.tol)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1

    our_params = None if args.ignore_params \
        else shared_params(current, args.ref)
    problems = check_reference(
        runs, args.ref, our_params=our_params,
        check_ref=args.check_ref, exact=exact,
        check_digest=not args.no_digest, tolerances=tolerances,
    )

    print(f"regress: {args.document} vs {args.ref}: "
          f"{len(runs)} runs, {len(problems)} problems")
    ref_runs = {}
    if args.verbose or problems:
        try:
            ref_runs = {b.get("workload"): b
                        for b in load_runs_doc(args.ref).get("runs", [])}
        except (OSError, json.JSONDecodeError):
            pass
    if args.verbose:
        for r in runs:
            mark = "=" if r.get("workload") in ref_runs else " "
            print(f"  [{mark}] {r.get('workload')}")
    for p in problems:
        print(f"ERROR: {p}", file=sys.stderr)
    for r in runs:
        name = r.get("workload")
        if name in ref_runs and any(p.startswith(f"{name}: ")
                                    for p in problems):
            diff = first_diff(stable_doc(ref_runs[name]), stable_doc(r))
            print(f"ERROR: {name}: first difference at {diff}",
                  file=sys.stderr)
    if not problems:
        print("regress: no drift detected")
    return 1 if problems else 0


def add_parser(sub) -> None:
    """Register the ``regress`` subcommand on ``sub``."""
    p = sub.add_parser(
        "regress",
        help="compare a run document or ledger against a committed "
             "reference (the drift gate)",
    )
    p.add_argument("document",
                   help="current run document: bench JSON or .jsonl "
                        "run ledger")
    p.add_argument("--ref", required=True,
                   help="reference to compare against (bench JSON or "
                        ".jsonl ledger)")
    p.add_argument("--check-ref", action="store_true",
                   help="treat a missing or non-covering reference, or "
                        "a reference row without a current run, as a "
                        "failure")
    p.add_argument("--exact", default=None,
                   help="comma-separated exact fields (default "
                        "vtime,messages,bytes_sent)")
    p.add_argument("--tol", action="append", metavar="PATH=BOUND",
                   help="relative tolerance on a (possibly dotted) "
                        "field path, e.g. wall_seconds=0.5 or "
                        "attribution.shares.wait=0.25; repeatable")
    p.add_argument("--no-digest", action="store_true",
                   help="skip the data-digest comparison")
    p.add_argument("--ignore-params", action="store_true",
                   help="compare even when the documents' parameters "
                        "disagree")
    p.add_argument("--verbose", action="store_true",
                   help="list per-run comparison detail")
    p.set_defaults(run=run)
