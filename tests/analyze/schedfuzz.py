"""Schedule fuzzer: same run, hostile host scheduling, identical record.

Virtual results must be a function of (workload, seed, cost model)
only. :func:`fuzz` runs one workload ``n`` times, each under a seeded
random ``sys.setswitchinterval`` in [1e-6, 5e-3] with ``busy``
busy-loop threads competing for the interpreter, and asserts that
every run's :meth:`RunRecord.stable_json`, full causal report and raw
causal table (:func:`causal_table`) are byte-identical to the first
run's (a mismatch names the first differing path and both values).

Tier-1 runs every workload with ``n=3`` (``test_determinism.py``); the
``schedfuzz`` CI job runs ``python -m tests.analyze.schedfuzz --runs
20`` from the repository root.
"""

import argparse
import random
import sys
import threading
from dataclasses import asdict

from repro.bench.drivers import _check, lowfive_workflow, stream_workflow
from repro.faults import FaultPlan, MessageFaultRule
from repro.obs.ledger import assert_identical, record_from_result
from repro.perfmodel.transports import THETA_KNL
from repro.pfs import PFSStore
from repro.synth import SyntheticWorkload
from tests.lowfive.test_staged import BIG_SHAPE, build as staged_build

def _lowfive(mode, faults=None):
    wf = lowfive_workflow(2, 2, SyntheticWorkload(grid_points_per_proc=2000,
                                                  particles_per_proc=1000),
                          THETA_KNL, mode, PFSStore())
    return wf.run(model=THETA_KNL.net, timeout=120.0, faults=faults)


def _faulted():
    # Plans consume state: a fresh one per run.
    return _lowfive("memory", FaultPlan(7, messages=[MessageFaultRule(
        p_delay=0.5, max_delay=1e-3, p_duplicate=0.3)]))


#: name -> zero-argument callable returning a ``WorkflowResult`` whose
#: ``returns["consumer"]`` are all truthy when the data validated.
WORKLOADS = {
    "memory": lambda: _lowfive("memory"),
    "file": lambda: _lowfive("file"),
    # 3 -> 1 -> 2 with 1 MiB bundles: every marker overtakes its bundle.
    "staged": lambda: staged_build(3, 2, 1, shape=BIG_SHAPE),
    # The ``stream/rate_mismatch/P4`` reference run's shape.
    "stream": lambda: stream_workflow(
        2, 2, 6, max_lag=2, producer_compute=0.01,
        consumer_compute=0.02).run(timeout=600.0),
    "faulted": _faulted,
}


def causal_table(obs):
    """The raw causal record: every message record's fields (wildcard
    specs included) in msg-id order, and the receive-completion order."""
    causal = obs.causal
    return {"messages": [asdict(m) for m in causal.messages()],
            "received": [e.msg_id for e in causal.edges()]}


def _document(name, res):
    assert _check(res.returns["consumer"]), f"{name}: data mismatch"
    record = record_from_result(res, f"schedfuzz/{name}").stable_json()
    # "Identical" below is known to cover the delivery-order series.
    assert any(k.startswith("simmpi.mailbox_depth{rank=")
               for k in record["series"]), f"{name}: no mailbox series"
    return {"record": record, "report": res.causal_report().to_dict(),
            "causal": causal_table(res.obs)}


def fuzz(name, n, seed=0, busy=2):
    """Run ``WORKLOADS[name]`` ``n`` times under seeded host-scheduling
    noise and assert the runs are identical."""
    rng = random.Random(f"{name}/{seed}")
    stop = threading.Event()  # noqa: ANL003 - host noise, not coordination

    def spin():
        while not stop.is_set():
            pass

    noise = [threading.Thread(target=spin, daemon=True)  # noqa: ANL003
             for _ in range(busy)]
    old = sys.getswitchinterval()
    for t in noise:
        t.start()
    try:
        docs = []
        for _ in range(n):
            sys.setswitchinterval(10 ** rng.uniform(-6, -2.3))
            docs.append(_document(name, WORKLOADS[name]()))
    finally:
        sys.setswitchinterval(old)
        stop.set()
        for t in noise:
            t.join(10.0)
    assert_identical(docs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20,
                    help="runs per workload (default 20)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--busy", type=int, default=2,
                    help="busy-loop background threads (default 2)")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="repeatable; default: all")
    args = ap.parse_args(argv)
    for name in args.workload or WORKLOADS:
        fuzz(name, args.runs, args.seed, args.busy)
        print(f"schedfuzz {name}: {args.runs}/{args.runs} identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
