"""The reference runs: every row of ``benchmarks/BENCH_ref.json``.

:data:`REGISTRY` maps each row name to a zero-argument callable that
executes the run and returns its row: the exact virtual fields
(``vtime``/``messages``/``bytes_sent``) plus what the row's invariants
read. Every parameter is a constant here, equal to the committed
reference's ``params`` (:data:`PARAMS`). :func:`check` holds the
invariants the rows must satisfy on any tree; drift against the
committed reference is ``python -m repro.tools regress``'s job.

``benchmarks/bench_gate.py`` runs the registry, times it and writes
the document.
"""

from __future__ import annotations

from functools import partial

from repro.bench.drivers import (
    STREAM_SHAPE,
    run_lowfive_file,
    run_lowfive_memory,
    run_pure_mpi,
    stream_digest,
    stream_workflow,
    stress_matching,
)
from repro.obs.ledger import EXACT_FIELDS
from repro.obs.noop import NullObsContext
from repro.simmpi import Engine
from repro.synth import SyntheticWorkload

ELEMS = 60_000          # elements per producer rank, Fig. 5/7 rows
NPROCS = 4              # total ranks of the Fig. 5/7 rows
STRESS_RANKS = 256
STREAM_PROCS = (4, 16, 64)
STREAM_LEVELS = (0, 1, 2)
STREAM_STEPS = 3
MAX_LAG = 2
#: The rate-mismatch run: 2 producer + 2 consumer ranks, the consumer
#: twice slower, over twice the sweep's epochs. Its backpressure must
#: be attributed to the consumer task's world ranks.
MISMATCH_STEPS = 2 * STREAM_STEPS
MISMATCH_CONSUMERS = {2, 3}

PARAMS = {
    "elems_per_proc": ELEMS, "machine": "THETA_KNL", "nprocs": NPROCS,
    "stress_ranks": STRESS_RANKS, "procs": list(STREAM_PROCS),
    "levels": list(STREAM_LEVELS), "nsteps": STREAM_STEPS,
    "max_lag": MAX_LAG, "shape": list(STREAM_SHAPE),
}

STRESS = f"stress/matching/R{STRESS_RANKS}"
#: The stress body under a :class:`~repro.obs.noop.NullObsContext`;
#: its virtual fields must equal :data:`STRESS`'s.
OVERHEAD = f"obs/overhead/R{STRESS_RANKS}"

FIG_ROWS = {
    f"fig5/lowfive_memory/P{NPROCS}": run_lowfive_memory,
    f"fig5/lowfive_file/P{NPROCS}": run_lowfive_file,
    f"fig7/pure_mpi/P{NPROCS}": run_pure_mpi,
}


def _row(workload, nprocs, res, **extra):
    return {"workload": workload, "nprocs": nprocs, "vtime": res.vtime,
            "messages": res.messages, "bytes_sent": res.bytes_sent,
            **extra}


def _fig(name):
    wl = SyntheticWorkload(grid_points_per_proc=ELEMS,
                           particles_per_proc=ELEMS)
    res = FIG_ROWS[name](*wl.split_procs(NPROCS), wl)
    return _row(name, NPROCS, res, validated=res.validated,
                attribution=res.attribution)


def _stress(name, obs=None):
    res = Engine(STRESS_RANKS, timeout=600.0, obs=obs).run(stress_matching)
    return _row(name, STRESS_RANKS, res)


def _stream(P, level=None):
    # ``level=None`` is the per-epoch direct baseline.
    nprod = P // 2
    res = stream_workflow(nprod, P - nprod, STREAM_STEPS, level=level or 0,
                          max_lag=MAX_LAG, direct=level is None
                          ).run(timeout=600.0)
    if level is None:
        return _row(f"stream/direct/P{P}", P, res, digest=stream_digest(res))
    return _row(f"stream/level{level}/P{P}", P, res, reduction_level=level,
                digest=stream_digest(res),
                max_depth=res.obs.stream.max_depth())


def _rate_mismatch():
    res = stream_workflow(2, 2, MISMATCH_STEPS, max_lag=MAX_LAG,
                          producer_compute=0.01, consumer_compute=0.02
                          ).run(timeout=600.0)
    bp = [w for w in res.causal_report().waits
          if w.category == "backpressure"]
    return _row("stream/rate_mismatch/P4", 4, res,
                max_depth=res.obs.stream.max_depth("sim"), max_lag=MAX_LAG,
                backpressure_seconds=sum(w.seconds for w in bp),
                backpressure_cause_ranks=sorted({w.cause_rank for w in bp}))


def _registry():
    reg = {name: partial(_fig, name) for name in FIG_ROWS}
    reg[STRESS] = partial(_stress, STRESS)
    for P in STREAM_PROCS:
        reg[f"stream/direct/P{P}"] = partial(_stream, P)
        for level in STREAM_LEVELS:
            reg[f"stream/level{level}/P{P}"] = partial(_stream, P, level)
    reg["stream/rate_mismatch/P4"] = _rate_mismatch
    reg[OVERHEAD] = lambda: _stress(OVERHEAD, NullObsContext())
    return reg


#: Row name -> zero-argument callable returning the row, in document
#: order.
REGISTRY = _registry()


def check(runs, obs_budget=None) -> list[str]:
    """Invariant violations of every registry row as
    ``benchmarks/bench_gate.py`` writes them (empty when healthy).
    ``obs_budget`` bounds :data:`OVERHEAD`'s ``obs_overhead_frac`` when
    given."""
    rows = {r["workload"]: r for r in runs}
    problems = []
    for name in FIG_ROWS:
        run = rows[name]
        if not run["validated"]:
            problems.append(f"{name}: consumer validation failed")
        a = run["attribution"]
        if a is None:
            problems.append(f"{name}: no attribution recorded")
            continue
        if not a["conservation_ok"]:
            problems.append(f"{name}: conservation violated "
                            f"(max residual {a['max_residual']:.3e} s)")
        if abs(a["critpath_residual"]) > 1e-9:
            problems.append(f"{name}: critical-path residual "
                            f"{a['critpath_residual']:.3e} s exceeds 1e-9")
    for P in STREAM_PROCS:
        direct = rows[f"stream/direct/P{P}"]["digest"]
        level0 = rows[f"stream/level0/P{P}"]["digest"]
        if level0 != direct:
            problems.append(f"P{P}: level-0 stream digest {level0} != "
                            f"direct baseline {direct} (must be "
                            f"bit-identical)")
        wire = [rows[f"stream/level{lv}/P{P}"]["bytes_sent"]
                for lv in STREAM_LEVELS]
        if any(hi <= lo for hi, lo in zip(wire, wire[1:])):
            problems.append(f"P{P}: bytes on wire not strictly decreasing "
                            f"with reduction level: {wire}")
    mismatch = rows["stream/rate_mismatch/P4"]
    if mismatch["max_depth"] > MAX_LAG:
        problems.append(f"rate-mismatch: max depth {mismatch['max_depth']} "
                        f"exceeds max_lag {MAX_LAG}")
    causes = set(mismatch["backpressure_cause_ranks"])
    if not causes:
        problems.append("rate-mismatch: no backpressure waits recorded")
    elif not causes <= MISMATCH_CONSUMERS:
        problems.append(f"rate-mismatch: backpressure attributed to "
                        f"{sorted(causes)}, expected a subset of consumer "
                        f"ranks {sorted(MISMATCH_CONSUMERS)}")
    on, off = rows[STRESS], rows[OVERHEAD]
    for fieldname in EXACT_FIELDS:
        if on[fieldname] != off[fieldname]:
            problems.append(
                f"obs overhead: {fieldname} changed with telemetry "
                f"disabled ({on[fieldname]!r} vs {off[fieldname]!r}); "
                f"observability must not perturb the simulation")
    frac = off["obs_overhead_frac"]
    if obs_budget is not None and frac > obs_budget:
        problems.append(f"obs overhead {frac:.1%} exceeds budget "
                        f"{obs_budget:.1%}")
    return problems
