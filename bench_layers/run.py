#!/usr/bin/env python3
"""bench_layers: the two-clock benchmark.

``python3 bench_layers/run.py [--workload NAME ...] [--seed N]
[--seconds S] [--trace 0|1] [--output F]`` runs the chosen workloads
(default: all five) one after another, every pass in a fresh child
process, checks every consumer's data, prints every metric by name with
its unit and, with ``--output``, writes the result document.

Two clocks. *Virtual* time (``vtime_s``, ``simmpi.messages``,
``simmpi.bytes_sent``) is the simulated result and must be identical in
every repetition; *host* time (``wall_s``, ``cpu_s``) is what the run
costs and is reported as a median with its quartiles.

``--trace 0`` is the timed pass (end-to-end metrics, tracing off),
``--trace 1`` the traced pass plus the micro kernels (per-layer
metrics); without ``--trace`` both run. ``--seconds`` is the host time
spent measuring per workload and pass. The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
for the last workload run; the exit status is nonzero when any
repetition failed. ``--selftest`` checks the harness itself in a few
seconds. See README.md for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostclock  # noqa: E402 - needs HERE on the path
import kernels  # noqa: E402
import trace  # noqa: E402

#: Set-ups per timed pass: ``setup_s`` is their median, and the timed
#: repetitions are pooled over them, so one unlucky process start
#: cannot decide a run.
SETUPS = 3
#: Share of a traced pass's ``--seconds`` spent on untraced base
#: repetitions; the micro kernels get ``KERNEL_SHARE``.
BASE_SHARE = 0.25
KERNEL_SHARE = 0.5

VIRTUAL = ("vtime", "messages", "bytes_sent")

#: Per-layer metrics beside the per-module and kernel ones.
TRACE_EXTRA = {
    "trace.overhead_frac": ("frac", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
    "trace.modules_missing": ("count", "lower"),
    "kernels.missing": ("count", "lower"),
    "h5.write_s": ("s", "lower"),
    "lowfive.close_s": ("s", "lower"),
    "lowfive.open_s": ("s", "lower"),
    "lowfive.read_s": ("s", "lower"),
    "stream.epoch_ms_p50": ("ms", "lower"),
    "stream.epoch_ms_p90": ("ms", "lower"),
    "simmpi.msg_us": ("us", "lower"),
    "vtime_s": ("sim_s", "lower"),
    "simmpi.messages": ("count", "lower"),
    "simmpi.bytes_sent": ("B", "lower"),
}
LAYER_FIELDS = {"calls": "count", "cpu_self_s": "s", "wait_s": "s"}


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` section of BENCHMARK.json, in output order."""
    spec = []
    for layer in trace.layer_names() + trace.rollup_packages():
        for field, unit in LAYER_FIELDS.items():
            spec.append({"name": f"{layer}.{field}", "unit": unit,
                         "better": "lower"})
    for name, (unit, better) in TRACE_EXTRA.items():
        spec.append({"name": name, "unit": unit, "better": better})
    for name, (_, unit, *_) in kernels.KERNELS.items():
        spec.append({"name": name, "unit": unit, "better": "lower"})
    return spec


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- child processes -----------------------------------------------------------


def spawn(job: dict) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    job = dict(job, t_spawn=hostclock.since_boot())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, env=env, check=True,
        timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(samples: list[float]) -> dict:
    """Median with quartiles, extremes and the sample count."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "n": len(samples)}


def _check(reps: list[dict], references: list[dict]) -> dict:
    """Failure accounting over every repetition that was executed."""
    failures = [r["failed"] for r in reps if r["failed"]]
    good = [r for r in references if not r["failed"]]
    for other in good[1:]:
        if any(other[k] != good[0][k] for k in VIRTUAL):
            failures.append("virtual fields differ between processes")
    virtual = {k: good[0][k] for k in VIRTUAL} if good else {}
    return {"attempted": len(reps), "failed": len(failures),
            "failures": failures, "virtual": virtual}


# -- the passes ----------------------------------------------------------------


def timed_pass(name: str, seed: int, seconds: float, sizes: str,
               corrupt: bool, setups: int) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    job = {"kind": "timed", "workload": name, "seed": seed,
           "sizes": sizes, "corrupt": corrupt, "seconds": seconds / setups}
    kids = [spawn(job) for _ in range(setups)]
    reps = [r for k in kids for r in k["reps"]]
    warmups = [k["warmup"] for k in kids]
    out = _check(warmups + reps, warmups)
    timed = [r for r in reps if not r["failed"]] or reps
    elements = kids[0]["elements"]
    e2e = {
        "setup_s": ("s", [k["setup_s"] for k in kids]),
        "wall_s": ("s", [r["wall_s"] for r in timed]),
        "cpu_s": ("s", [r["cpu_s"] for r in timed]),
        "elems_per_s": ("1/s", [elements / r["wall_s"] for r in timed]),
        "peak_rss_mb": ("MB", [k["peak_rss_mb"] for k in kids]),
    }
    out["end_to_end"] = {m: dict(summarize(v), unit=u)
                         for m, (u, v) in e2e.items()}
    out["end_to_end"]["vtime_s"] = {"unit": "sim_s",
                                    "value": out["virtual"].get("vtime")}
    out["end_to_end"]["fail_frac"] = {
        "unit": "frac", "value": out["failed"] / out["attempted"]}
    out["inputs"] = kids[0]["inputs"]
    return out


def _percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def traced_pass(name: str, seed: int, seconds: float, sizes: str,
                corrupt: bool) -> dict:
    """Per-layer metrics of one workload (kernels are added later)."""
    kid = spawn({"kind": "traced", "workload": name, "seed": seed,
                 "sizes": sizes, "corrupt": corrupt,
                 "seconds": seconds * BASE_SHARE})
    rep, base = kid["traced"], kid["reps"]
    out = _check([kid["warmup"]] + base + [rep], [kid["warmup"]])
    base_wall = statistics.median(r["wall_s"] for r in base)
    layers = kid["layers"]
    values = {f"{layer}.{field}": row[field]
              for layer, row in layers.items() for field in LAYER_FIELDS}
    covered = sum(layers[n]["cpu_self_s"] for n in trace.layer_names())
    body = rep.get("body", {})
    gaps = [g * 1e3 for g in body.get("stream.epoch_gaps_s", [])]
    messages = out["virtual"].get("messages", 0)
    values.update({
        "trace.overhead_frac": rep["wall_s"] / base_wall - 1.0,
        "trace.coverage_frac": covered / rep["cpu_s"],
        "trace.modules_missing": len(kid["modules_missing"]),
        **{key: body.get(key, 0.0) for key in (
            "h5.write_s", "lowfive.close_s", "lowfive.open_s",
            "lowfive.read_s")},
        "stream.epoch_ms_p50": _percentile(gaps, 50) if gaps else 0.0,
        "stream.epoch_ms_p90": _percentile(gaps, 90) if gaps else 0.0,
        "simmpi.msg_us": base_wall / messages * 1e6 if messages else 0.0,
        "vtime_s": out["virtual"].get("vtime"),
        "simmpi.messages": messages,
        "simmpi.bytes_sent": out["virtual"].get("bytes_sent", 0),
    })
    out["per_layer"] = values
    out["modules_missing"] = kid["modules_missing"]
    out["inputs"] = kid["inputs"]
    return out


def kernels_pass(seconds: float) -> dict:
    batch_s = seconds * KERNEL_SHARE / (len(kernels.KERNELS)
                                        * kernels.BATCHES)
    return spawn({"kind": "kernels", "batch_s": batch_s})


# -- one run ---------------------------------------------------------------------


def run(names: list[str], seed: int, seconds: float, passes: tuple,
        sizes: str = "full", corrupt: bool = False,
        setups: int = SETUPS) -> dict:
    """Run ``passes`` (0: timed, 1: traced + kernels) of ``names``."""
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    doc = {"schema": 1, "seed": seed, "seconds": seconds, "sizes": sizes,
           "host": {"python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
           "workloads": {}}
    for name in names:
        rec = {"why": why[name], "attempted": 0, "failed": 0,
               "failures": []}
        for p in passes:
            got = (timed_pass(name, seed, seconds, sizes, corrupt, setups)
                   if p == 0 else
                   traced_pass(name, seed, seconds, sizes, corrupt))
            for key in ("attempted", "failed"):
                rec[key] += got.pop(key)
            rec["failures"] += got.pop("failures")
            if rec.setdefault("virtual", got["virtual"]) != got["virtual"]:
                rec["failed"] += 1
                rec["failures"].append(
                    "virtual fields differ between the passes")
            rec.update(got)
        doc["workloads"][name] = rec
    if 1 in passes:
        kern = kernels_pass(seconds)
        doc["kernels_missing"] = kern["kernels_missing"]
        for rec in doc["workloads"].values():
            rec["per_layer"].update(kern["kernels"])
            rec["per_layer"]["kernels.missing"] = \
                len(kern["kernels_missing"])
    units = {m["name"]: m["unit"] for m in per_layer_spec()}
    for rec in doc["workloads"].values():
        if "per_layer" in rec:
            rec["per_layer"] = {n: {"unit": units[n], "value": v}
                                for n, v in rec["per_layer"].items()}
    return doc


def contract_line(rec: dict, passes: tuple, spec: dict) -> str:
    """The driver's result object for one workload: the metrics
    BENCHMARK.json declares for the passes that ran.

    A per-layer value that could not be measured (``null`` in the
    document) reads -1 here, where only numbers are allowed.
    """
    metrics = {}
    if 0 in passes:
        metrics.update({m["name"]: rec["end_to_end"][m["name"]]
                        for m in spec["end_to_end"]})
    if 1 in passes:
        metrics.update(rec["per_layer"])
    return json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": -1 if m["value"] is None else m["value"],
                        "unit": m["unit"]} for n, m in metrics.items()},
    })


def exit_code(doc: dict) -> int:
    return 1 if any(r["failed"] for r in doc["workloads"].values()) else 0


def report(doc: dict, passes: tuple, spec: dict) -> None:
    for name, rec in doc["workloads"].items():
        print(f"== {name} (seed {doc['seed']}): {rec['why']}")
        print(f"   inputs: {json.dumps(rec['inputs'])}")
        for metric, m in rec.get("end_to_end", {}).items():
            spread = ""
            if "n" in m:
                spread = (f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                          f"min {m['min']:.6g}  max {m['max']:.6g}  "
                          f"n {m['n']}")
            print(f"   {metric:44s} {m['value']:>14.6g} "
                  f"{m['unit']:6s}{spread}")
        for metric, m in rec.get("per_layer", {}).items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {metric:44s} {value:>14s} {m['unit']}")
        print(f"   repetitions: {rec['attempted']} attempted, "
              f"{rec['failed']} failed")
        for why in rec["failures"]:
            print(f"   FAILED: {why}")
        print(contract_line(rec, passes, spec))


# -- self-test -------------------------------------------------------------------


def _require(ok: bool, *what) -> None:
    if not ok:
        raise AssertionError(f"selftest: {what}")


def selftest() -> int:
    """Tiny sizes, one set-up, trace on: is the harness itself sound?"""
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    _require(spec["per_layer"] == per_layer_spec(),
             "BENCHMARK.json per_layer differs from per_layer_spec()")
    doc = run(declared, seed=1, seconds=0.4, passes=(0, 1), sizes="tiny",
              setups=1)
    for name, rec in doc["workloads"].items():
        _require(rec["failed"] == 0, name, rec["failures"])
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                got = rec[section].get(m["name"])
                _require(got is not None, name, m["name"], "missing")
                _require(got["unit"] == m["unit"], name, m["name"], got)
        line = json.loads(contract_line(rec, (0,), spec))
        _require(set(line["metrics"])
                 == {m["name"] for m in spec["end_to_end"]}, name, line)
    _require(exit_code(doc) == 0, "exit status of a clean run")
    _require(not doc["kernels_missing"], doc["kernels_missing"])
    # Negative control: one wrong expected value must fail the run.
    for name in declared:
        bad = run([name], seed=1, seconds=0.1, passes=(0,), sizes="tiny",
                  corrupt=True, setups=1)
        rec = bad["workloads"][name]
        _require(rec["end_to_end"]["fail_frac"]["value"] > 0, name,
                 "corrupted expectation went unnoticed")
        _require(exit_code(bad) != 0, name, "exit status stayed 0")
    print(f"selftest ok: {len(declared)} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics, "
          "negative control caught")
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run; repeat for several "
                         "(default: all five)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 is the paper layout (default)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="host seconds measured per workload and pass "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: timed pass only; 1: traced pass and micro "
                         "kernels only (default: both)")
    ap.add_argument("--output", default=None, metavar="F",
                    help="write the result document to F")
    ap.add_argument("--selftest", action="store_true",
                    help="check the harness on tiny inputs and exit")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    passes = (0, 1) if args.trace is None else (args.trace,)
    doc = run(args.workload or names, args.seed, seconds, passes)
    if args.output:
        with open(args.output, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    report(doc, passes, spec)
    return exit_code(doc)


if __name__ == "__main__":
    raise SystemExit(main())
