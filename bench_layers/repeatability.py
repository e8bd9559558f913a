#!/usr/bin/env python3
"""Is the benchmark steady enough for its own bounds?

``python3 bench_layers/repeatability.py [--seeds 1,2,...] [--output F]``
runs the timed pass of every workload once per seed -- ten different
seeds by default -- and then does all of it a second time, as the
driver that accepts the benchmark does. For every workload and
end-to-end metric it records both sets' medians, by how much the second
is worse than the first, and each set's spread (the distance between
the first and third quartile of the ten run values as a share of their
median), beside the bound from BENCHMARK.json. The virtual fields of
the same seed must be identical in both sets and no repetition may fail.
Takes about 35 minutes; exits 1 when anything is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402 - needs HERE on the path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                    help="comma-separated seeds, one run each per set")
    ap.add_argument("--output", metavar="F",
                    default=os.path.join(HERE, "repeatability.json"))
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = bench.load_spec()
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for _ in range(2):
        docs = {}
        for seed in seeds:
            for name in names:
                doc = bench.run([name], seed, spec["run_seconds"], (0,))
                rec = docs[name, seed] = doc["workloads"][name]
                print(f"set {len(sets) + 1} seed {seed} {name}: wall_s "
                      f"{rec['end_to_end']['wall_s']['value']:.3f}",
                      flush=True)
        sets.append(docs)

    rows, ok = [], True
    for name in names:
        for m in spec["end_to_end"]:
            per_set = [[docs[name, s]["end_to_end"][m["name"]]["value"]
                        for s in seeds] for docs in sets]
            med = [statistics.median(v) for v in per_set]
            worse_by = (med[1] - med[0]) / med[0]
            if m["better"] == "higher":
                worse_by = -worse_by
            spreads = [spread(v) for v in per_set]
            within = worse_by <= m["bound"] and max(spreads) <= m["bound"]
            ok = ok and within
            rows.append({"workload": name, "metric": m["name"],
                         "unit": m["unit"], "bound": m["bound"],
                         "median_1": med[0], "median_2": med[1],
                         "second_worse_by": worse_by,
                         "spread_1": spreads[0], "spread_2": spreads[1],
                         "within_bound": within})
    exact = []
    for name in names:
        same = all(sets[0][name, s]["virtual"] == sets[1][name, s]["virtual"]
                   for s in seeds)
        failed = [sum(docs[name, s]["failed"] for s in seeds)
                  for docs in sets]
        attempted = [sum(docs[name, s]["attempted"] for s in seeds)
                     for docs in sets]
        ok = ok and same and not any(failed)
        exact.append({"workload": name, "virtual_fields_identical": same,
                      "attempted": attempted, "failed": failed})
    with open(args.output, "w") as f:
        json.dump({"run_seconds": spec["run_seconds"], "seeds": seeds,
                   "rows": rows, "exact": exact, "all_within_bounds": ok},
                  f, indent=1)
        f.write("\n")
    for r in rows:
        print(f"{r['workload']:18s} {r['metric']:12s} "
              f"{r['median_1']:12.5g} {r['median_2']:12.5g} "
              f"worse by {r['second_worse_by']:+.3f}  spreads "
              f"{r['spread_1']:.3f} {r['spread_2']:.3f}  "
              f"bound {r['bound']}  "
              f"{'ok' if r['within_bound'] else 'OUTSIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
