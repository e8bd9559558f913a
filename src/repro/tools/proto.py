"""``python -m repro.tools proto`` -- the PRO00x static protocol check.

Thin CLI over :mod:`repro.analyze.proto`: verifies communication
protocols of rank-body code in the given files, directory trees, or
importable modules (default: the repo's ``src``, ``examples``,
``benchmarks`` and ``tests`` when run from a checkout) and prints one
finding per protocol violation, path witness indented below it.
``--strict`` exits 1 on any finding (the CI gate); ``--json`` emits
the findings as a machine-readable report instead.
"""

from __future__ import annotations

import json
import sys

from repro.tools.lint import _default_paths


def _module_path(name: str) -> str:
    """Filesystem path of an importable module, for ``-m`` targets."""
    import importlib.util

    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin in (None, "namespace", "built-in"):
        raise SystemExit(f"proto: cannot locate module {name!r}")
    assert spec.origin is not None
    return spec.origin


def run(args) -> int:
    """Entry point for the ``proto`` subcommand."""
    from repro.analyze.proto import PROTO_RULES, check_paths

    if args.list_rules:
        for code in sorted(PROTO_RULES):
            print(f"{code}  {PROTO_RULES[code]}")
        return 0
    paths = list(args.paths) + [_module_path(m) for m in args.module]
    paths = paths or _default_paths()
    findings = check_paths(paths)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
    if findings:
        if not args.json:
            print(f"{len(findings)} protocol finding(s) in "
                  f"{len(paths)} target(s)", file=sys.stderr)
        return 1 if args.strict else 0
    if not args.json:
        print(f"proto clean: {', '.join(paths)}")
    return 0


def add_parser(sub) -> None:
    """Register the ``proto`` subcommand on ``sub``."""
    p = sub.add_parser(
        "proto",
        help="statically verify communication protocols of rank-body "
             "code (PRO00x rules)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: src examples "
                        "benchmarks tests under the current "
                        "directory)")
    p.add_argument("-m", "--module", action="append", default=[],
                   metavar="MOD",
                   help="also check an importable module by dotted "
                        "name (repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any finding is reported")
    p.add_argument("--json", action="store_true",
                   help="emit findings as a JSON report")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.set_defaults(run=run)
