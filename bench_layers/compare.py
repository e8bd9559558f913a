#!/usr/bin/env python3
"""Compare two bench_layers result documents, metric by metric.

``python3 bench_layers/compare.py A.json B.json`` prints one row per
workload and end-to-end metric: both medians, the ratio B/A (base: A)
and a verdict against the bound BENCHMARK.json fixes for that metric:

``worse`` / ``better``
    B's median is beyond the bound in that direction;
``same``
    within the bound;
``unresolved``
    either side's inter-quartile range is wider than the bound, so the
    run-to-run spread hides a change of that size;
``differs``
    an exact metric (virtual time, message and byte counts, failures)
    is not identical.

The exit status is 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Compared for equality: the simulated result is a function of
#: (workload, seed, cost model) only.
EXACT = ("vtime_s", "fail_frac")
VIRTUAL = ("messages", "bytes_sent")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Classify B against A for one bounded metric."""
    for side in (a, b):
        if "q1" in side and (side["q3"] - side["q1"]) > bound * side["value"]:
            return "unresolved"
    worse_by = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, ratio, verdict)``."""
    rows = []
    for name, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"].get(name)
        if rec_b is None or "end_to_end" not in rec_a \
                or "end_to_end" not in rec_b:
            continue
        e2e_a, e2e_b = rec_a["end_to_end"], rec_b["end_to_end"]
        for m in spec["end_to_end"]:
            if m["name"] in EXACT:
                continue
            a, b = e2e_a[m["name"]], e2e_b[m["name"]]
            rows.append((name, m["name"], a["value"], b["value"],
                         b["value"] / a["value"],
                         verdict(a, b, m["better"], m["bound"])))
        exact = [(k, e2e_a[k]["value"], e2e_b[k]["value"]) for k in EXACT]
        exact += [(f"simmpi.{k}", rec_a["virtual"].get(k),
                   rec_b["virtual"].get(k)) for k in VIRTUAL]
        for metric, a, b in exact:
            ratio = b / a if a and b is not None else float("nan")
            rows.append((name, metric, a, b, ratio,
                         "same" if a == b else "differs"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key in ("seed", "sizes"):
        if docs[0][key] != docs[1][key]:
            print(f"cannot compare: {key} differs "
                  f"({docs[0][key]!r} vs {docs[1][key]!r}), so the inputs "
                  "do", file=sys.stderr)
            return 2
    rows = compare(docs[0], docs[1], spec)
    print(f"{'workload':18s} {'metric':18s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s}  verdict")
    for name, metric, a, b, ratio, v in rows:
        print(f"{name:18s} {metric:18s} {a!s:>14.14s} {b!s:>14.14s} "
              f"{ratio:8.4f}  {v}")
    bad = [r for r in rows if r[5] in ("worse", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
