"""Call ledger: which outermost ``def`` of ``src/repro`` a path set enters.

Two parts:

- **the hook.** :func:`write_hook` writes a ``sitecustomize.py`` into a
  directory. With that directory first on ``PYTHONPATH``, every Python
  process installs ``sys.settrace`` and ``threading.settrace`` (child
  processes inherit the environment, so ``bench_layers`` children are
  covered too). The global trace function records the code object of
  each new frame and returns ``None``, so no line events are traced.
  At exit the process writes the ``(file, first line)`` pairs under
  ``src/repro`` to ``<out>/<pid>.json``.
- **the report.** Every outermost ``def`` of ``src/repro`` counts:
  module functions and methods (of nested classes too). A def nested in
  a function counts inside its parent. Its span runs from its first
  decorator to its last line. It is *entered* when a dump holds its
  file and first line, which is where Python puts ``co_firstlineno``.
  The report gives, per package, the lines of defs never entered over
  all def lines.

The path set (:data:`PATHS`; ``run`` executes it in ``<out>/work``):

- the ten examples;
- ``pytest benchmarks``;
- ``benchmarks/bench_gate.py --ledger L.jsonl --obs-budget 0.25``, then
  ``repro.tools regress L.jsonl --check-ref``;
- ``tests.analyze.schedfuzz --runs 3``;
- ``repro.tools lint src examples benchmarks tests``;
- the eight ``repro.tools run`` steps of CI (quickstart with trace and
  report, fig7, fig5 in both modes, fig5 at 48 x 16, the streaming
  pipeline, the seeded race, the memory and file reports);
- ``bench_layers/run.py --selftest``;
- the two CI wall-limit steps (file mode at P = 128, stream at P = 64).

A step's exit status is printed, not enforced: the seeded-race step
exits 1 by design, and the telemetry gate reads its overhead with the
tracer on.

Usage, from the repository root (a few minutes)::

    python -m tests.analyze.callledger run OUT --json OUT/ledger.json
    python -m tests.analyze.callledger report OUT [--list]
    python -m tests.analyze.callledger missing PARENT.json CHANGE.json

``missing`` names every def entered in the first ledger that no longer
exists in the second, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src", "repro")

_HOOK = '''\
import atexit, json, os, sys, threading

_SRC = {src!r}
_OUT = {out!r}
_seen = set()


def _trace(frame, event, arg):
    _seen.add(frame.f_code)


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    pairs = sorted({{(os.path.relpath(c.co_filename, _SRC), c.co_firstlineno)
                    for c in _seen if c.co_filename.startswith(_SRC)}})
    with open(os.path.join(_OUT, f"{{os.getpid()}}.json"), "w") as f:
        json.dump(pairs, f)


threading.settrace(_trace)
sys.settrace(_trace)
atexit.register(_dump)
'''


def _py(*args: str) -> list[str]:
    return [sys.executable, *args]


def _example(name: str) -> tuple[str, list[str]]:
    return f"examples/{name}", _py(os.path.join(ROOT, "examples", name))


_FILE_128 = ("from repro.bench import run_lowfive_file; "
             "from repro.synth import SyntheticWorkload; "
             "assert run_lowfive_file(96, 32, "
             "SyntheticWorkload(20000, 20000)).validated")
_STREAM_64 = ("from repro.bench.drivers import stream_workflow; "
              "res = stream_workflow(32, 32, 20).run(); "
              "assert all(seen == [(e, True) for e in range(20)] "
              "for seen, _ in res.returns['consumer'])")


def _tool(*args: str) -> list[str]:
    return _py("-m", "repro.tools", *args)


#: ``(name, argv)`` of every step, run in order in the work directory.
PATHS: list[tuple[str, list[str]]] = [
    *(_example(n) for n in (
        "quickstart.py", "profiling_breakdown.py", "streaming_pipeline.py",
        "transport_comparison.py", "cosmology_pipeline.py",
        "checkpoint_restart.py", "fan_out_checkpoint.py", "chaos_run.py",
        "race_demo.py", "reproduce_paper.py")),
    ("pytest benchmarks", _py("-m", "pytest", "-q", "-p", "no:cacheprovider",
                              os.path.join(ROOT, "benchmarks"))),
    ("bench_gate", _py(os.path.join(ROOT, "benchmarks", "bench_gate.py"),
                       "--ledger", "L.jsonl", "--obs-budget", "0.25")),
    ("regress", _tool("regress", "L.jsonl", "--ref",
                      os.path.join(ROOT, "benchmarks", "BENCH_ref.json"),
                      "--check-ref")),
    ("schedfuzz", _py("-m", "tests.analyze.schedfuzz", "--runs", "3")),
    ("lint", _tool("lint", *(os.path.join(ROOT, d) for d in
                             ("src", "examples", "benchmarks", "tests")))),
    ("run quickstart", _tool(
        "run", "--example", os.path.join(ROOT, "examples", "quickstart.py"),
        "--strict", "--trace", "quickstart_trace.json",
        "--report", "quickstart_critpath.json")),
    ("run fig7", _tool("run", "--example", "fig7", "--strict")),
    ("run fig5 both", _tool("run", "--example", "fig5", "--mode", "both",
                            "--strict")),
    ("run fig5 48x16", _tool("run", "--example", "fig5", "--nprod", "48",
                             "--ncons", "16", "--strict")),
    ("run stream", _tool(
        "run", "--example",
        os.path.join(ROOT, "examples", "streaming_pipeline.py"),
        "--strict", "--trace", "stream_trace.json")),
    ("run race", _tool(
        "run", "--example", os.path.join(ROOT, "examples", "race_demo.py"),
        "--timeout", "30", "--delay", "0.01", "--delay-src", "1",
        "--delay-dst", "0", "--report", "race_report.json", "--strict")),
    ("run memory report", _tool("run", "--mode", "memory", "--report",
                                "report_memory.html", "--ledger",
                                "ledger.jsonl", "--strict")),
    ("run file report", _tool("run", "--mode", "file", "--report",
                              "report_file.html", "--ledger",
                              "ledger.jsonl", "--strict")),
    ("bench_layers selftest", _py(os.path.join(ROOT, "bench_layers",
                                               "run.py"), "--selftest")),
    ("file P=128", _py("-c", _FILE_128)),
    ("stream P=64", _py("-c", _STREAM_64)),
]


# -- the hook -------------------------------------------------------------------


def write_hook(hook_dir: str, out_dir: str) -> None:
    """Write the ``sitecustomize.py`` that dumps into ``out_dir``."""
    os.makedirs(hook_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
        f.write(_HOOK.format(src=SRC + os.sep, out=out_dir))


def run(out: str) -> None:
    """Run every step of :data:`PATHS` under the hook."""
    out = os.path.abspath(out)
    hook, dumps, work = (os.path.join(out, d)
                         for d in ("hook", "dumps", "work"))
    write_hook(hook, dumps)
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [hook, os.path.join(ROOT, "src"), ROOT]))
    for name, argv in PATHS:
        with open(os.path.join(out, "steps.log"), "a") as log:
            code = subprocess.call(argv, cwd=work, env=env, stdout=log,
                                   stderr=subprocess.STDOUT)
        print(f"{name:32s} exit {code}", flush=True)


# -- the report -----------------------------------------------------------------


def outermost_defs(path: str) -> list[tuple[str, int, int]]:
    """``(qualname, first line, line count)`` of every outermost def in
    the module at ``path``: module functions and methods, not defs
    nested in a function."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    out = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] +
                            [d.lineno for d in node.decorator_list])
                out.append((f"{prefix}{node.name}", first,
                            node.end_lineno - first + 1))

    walk(tree.body, "")
    return out


def ledger(out: str) -> dict:
    """The ledger of the dumps under ``out``: every def with its
    package, line count and whether it was entered."""
    entered = set()
    for dump in glob.glob(os.path.join(out, "dumps", "*.json")):
        with open(dump) as f:
            entered.update((p, n) for p, n in json.load(f))
    defs = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, SRC)
        pkg = rel.split(os.sep)[0] if os.sep in rel else "repro"
        for qual, first, nlines in outermost_defs(path):
            defs.append({"name": f"{rel}:{qual}", "package": pkg,
                         "lines": nlines,
                         "entered": (rel, first) in entered})
    return {"dumps": len(glob.glob(os.path.join(out, "dumps", "*.json"))),
            "defs": defs}


def report(doc: dict, listing: bool = False) -> str:
    """Per package: def lines never entered / all def lines."""
    by_pkg: dict[str, list[int]] = {}
    for d in doc["defs"]:
        row = by_pkg.setdefault(d["package"], [0, 0])
        row[1] += d["lines"]
        if not d["entered"]:
            row[0] += d["lines"]
    rows = sorted(by_pkg.items(), key=lambda kv: (-kv[1][0], kv[0]))
    lines = [f"{doc['dumps']} process dumps; def lines never entered / "
             "all def lines"]
    lines += [f"  {pkg:10s} {n:6d} / {tot:6d}" for pkg, (n, tot) in rows]
    never = sum(n for n, _ in by_pkg.values())
    total = sum(t for _, t in by_pkg.values())
    lines.append(f"  {'all':10s} {never:6d} / {total:6d}")
    if listing:
        lines += [f"    {d['lines']:4d}  {d['name']}" for d in doc["defs"]
                  if not d["entered"]]
    return "\n".join(lines)


def missing(parent: dict, change: dict) -> list[str]:
    """Defs entered in ``parent`` that ``change`` no longer has."""
    have = {d["name"] for d in change["defs"]}
    return [d["name"] for d in parent["defs"]
            if d["entered"] and d["name"] not in have]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd in ("run", "report"):
        p = sub.add_parser(cmd)
        p.add_argument("out")
        p.add_argument("--json", help="also write the ledger here")
        p.add_argument("--list", action="store_true",
                       help="name every def never entered")
    p = sub.add_parser("missing")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "missing":
        with open(args.parent) as f, open(args.change) as g:
            gone = missing(json.load(f), json.load(g))
        print("\n".join(gone) or "every def entered in the first ledger "
              "exists in the second")
        return 1 if gone else 0
    if args.cmd == "run":
        run(args.out)
    doc = ledger(args.out)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1)
    print(report(doc, args.list))
    return 0


if __name__ == "__main__":
    sys.exit(main())
