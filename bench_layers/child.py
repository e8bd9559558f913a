"""The process one pass of one workload runs in.

``run.py`` starts ``python child.py '<job json>'`` afresh for every
pass, so interpreter start, imports and input generation are paid -- and
measured as ``setup_s`` -- each time, and no pass inherits another's
heap. The job names a ``kind``:

``timed``
    set up, one untimed warm-up repetition, then closed-loop timed
    repetitions (the next starts when the previous has returned) for
    ``seconds`` of host time, tracing off;
``traced``
    set up, warm up, a few untraced repetitions as the base, then one
    repetition with :class:`trace.Tracer` installed;
``kernels``
    the micro kernels.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402 - needs HERE on the path

VIRTUAL = ("vtime", "messages", "bytes_sent")


def one_rep(wl, reference: dict | None) -> dict:
    """Run one repetition; never raises for a failure of the workload."""
    from workloads import WALL_TIMEOUT

    # Start every repetition from the same heap: the cycles of the
    # previous one (engines, threads, telemetry) are collected here, not
    # at some point inside the timed region that depends on how many
    # repetitions came before.
    gc.collect()
    t0, c0 = hostclock.wall(), hostclock.cpu()
    try:
        rep = wl.run()
    except Exception as exc:  # noqa: BLE001,ANL006 - a failed repetition is a result
        return {"wall_s": hostclock.wall() - t0,
                "cpu_s": hostclock.cpu() - c0,
                "failed": f"raised {type(exc).__name__}: {exc}"}
    out = {"wall_s": hostclock.wall() - t0,
           "cpu_s": hostclock.cpu() - c0,
           "body": rep.body, "failed": ""}
    out.update({k: getattr(rep, k) for k in VIRTUAL})
    if not rep.ok:
        out["failed"] = "consumer data mismatch"
    elif out["wall_s"] > WALL_TIMEOUT:
        out["failed"] = f"took more than {WALL_TIMEOUT} s"
    elif reference is not None and any(
            out[k] != reference[k] for k in VIRTUAL):
        out["failed"] = "virtual fields differ from the first repetition"
    return out


def closed_loop(wl, reference, seconds: float, first_guess: float) -> list:
    """Timed repetitions, one after another, that fit in ``seconds``."""
    reps = []
    guess = first_guess
    end = hostclock.wall() + seconds
    while not reps or hostclock.wall() + guess <= end:
        reps.append(one_rep(wl, reference))
        guess = statistics.median(r["wall_s"] for r in reps)
    return reps


def set_up(job: dict):
    """Import the program, generate the inputs, take the CPUs."""
    import workloads

    wl = workloads.build(job["workload"], job["seed"],
                         workloads.SIZES[job["sizes"]], job["corrupt"])
    if wl.cpus and hasattr(os, "sched_setaffinity"):
        # The highest-numbered CPUs: CPU 0 also serves the interrupts.
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, allowed[-wl.cpus:])
    return wl


def timed(job: dict) -> dict:
    wl = set_up(job)
    warm = one_rep(wl, None)
    setup_s = hostclock.since_boot() - job["t_spawn"]
    # The high-water mark of one complete repetition. Taken later it
    # would grow with the number of repetitions (every repetition's new
    # rank threads warm up more malloc arenas), and that number depends
    # on how fast the program is.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = None if warm["failed"] else warm
    reps = closed_loop(wl, reference, job["seconds"], warm["wall_s"])
    return {"setup_s": setup_s, "peak_rss_mb": rss, "warmup": warm,
            "reps": reps, "inputs": wl.inputs, "elements": wl.elements}


def traced(job: dict) -> dict:
    import trace

    wl = set_up(job)
    warm = one_rep(wl, None)
    reference = None if warm["failed"] else warm
    base = closed_loop(wl, reference, job["seconds"], warm["wall_s"])
    tracer = trace.Tracer()
    tracer.start()
    try:
        rep = one_rep(wl, reference)
    finally:
        tracer.stop()
    layers = trace.fold(tracer.threads, skip=tracer.spans_here())
    return {"warmup": warm, "reps": base, "traced": rep,
            "layers": layers, "modules_missing": tracer.modules_missing,
            "inputs": wl.inputs, "elements": wl.elements}


def kernels(job: dict) -> dict:
    import kernels as k

    values, missing = k.run_all(job["batch_s"])
    return {"kernels": values, "kernels_missing": missing}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    result = {"timed": timed, "traced": traced,
              "kernels": kernels}[job["kind"]](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
