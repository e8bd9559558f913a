"""Event accounting: per-rank tallies folded into counters once per run.

Every send, receive and collective is tallied on its rank's ``Proc``;
``Engine.run`` folds the tallies into the ``simmpi.<kind>.{count,bytes}``
counters after the ranks finish or fail. These tests pin what the
counters say (the causal record's view of the same messages, also under
fault injection and a crash), how often the registry is written (per
rank and kind, never per message) and who the calling rank is (the
baton holder, and nobody outside a run).
"""

from collections import Counter

import pytest

from repro.bench.drivers import run_lowfive_memory
from repro.bench.registry import ELEMS, NPROCS
from repro.faults import CrashRule, FaultPlan, MessageFaultRule
from repro.obs import ObsContext
from repro.obs.metrics import CounterValue, MetricsRegistry
from repro.simmpi import ANY_SOURCE, Comm, Engine, RankFailure
from repro.synth import SyntheticWorkload

RANKS = 8


def exchange(comm):
    """Concrete, wildcard and zero-byte traffic plus a collective."""
    me, n = comm.rank, comm.size
    for it in range(4):
        comm.send((me, it), dest=(me + 1) % n, tag=1)
        comm.send(b"x" * (me * 16), dest=(me + 2) % n, tag=2)
        comm.recv(source=(me - 1) % n, tag=1)
        comm.recv(source=ANY_SOURCE, tag=2)
        comm.compute(1e-5 * (me + 1))
        comm.allreduce(me)


def run(faults=None):
    """``exchange`` on :data:`RANKS` ranks; ``(engine, error or None)``."""
    engine = Engine(RANKS, obs=ObsContext(), faults=faults)
    try:
        engine.run(exchange)
    except RankFailure as exc:
        return engine, exc
    return engine, None


def counters(engine, kind):
    """rank -> ((events, increments), (bytes, nonzero increments))."""
    metrics = engine.obs.metrics
    out = {}
    for r in range(engine.nprocs):
        n = metrics.get(f"simmpi.{kind}.count", rank=r)
        b = metrics.get(f"simmpi.{kind}.bytes", rank=r)
        if n is not None:
            out[r] = ((n.total, n.count), (b.total, b.count))
    return out


def from_records(records, rank_of):
    """The same shape, recomputed from causal message records."""
    out = {}
    for m in records:
        (n, ninc), (nb, nz) = out.get(rank_of(m), ((0, 0), (0, 0)))
        out[rank_of(m)] = ((n + 1, ninc + 1),
                           (nb + m.nbytes, nz + (m.nbytes != 0)))
    return out


CASES = {
    "healthy": None,
    "dup+delay": lambda: FaultPlan(4, messages=[MessageFaultRule(
        p_duplicate=1.0, p_delay=1.0, max_delay=1e-3)]),
    # Rank 0 crashes at the checkpoint right after a completed receive:
    # that receive is in the causal record, so it is counted too.
    "crash": lambda: FaultPlan(4, crashes=[CrashRule(rank=0,
                                                     at_vtime=6e-6)]),
}


class TestCountersMatchTheCausalRecord:
    @pytest.mark.parametrize("case", list(CASES))
    def test_send_and_recv_counters(self, case):
        plan = CASES[case]
        engine, err = run(plan() if plan else None)
        assert (err is not None) == (case == "crash")
        causal = engine.obs.causal
        posted = causal.messages()
        received = causal.edges()
        assert posted and received
        if case == "crash":
            # The tallies are folded although the run raised.
            assert len(received) < len(posted)
        assert counters(engine, "send") == from_records(posted,
                                                        lambda m: m.src)
        assert counters(engine, "recv") == from_records(received,
                                                        lambda m: m.dst)

    def test_coll_counters_count_collective_entries(self):
        engine, _ = run()
        entered = Counter(r for c in engine.obs.causal.collectives()
                          for r in c.enter_clocks)
        assert {r: v[0] for r, v in counters(engine, "coll").items()} == {
            r: (n, n) for r, n in entered.items()}

    def test_fig5_memory_coll_counters_unchanged(self):
        """The Fig. 5 memory reference run's collective counters, as
        recorded when they were still incremented once per event."""
        wl = SyntheticWorkload(grid_points_per_proc=ELEMS,
                               particles_per_proc=ELEMS)
        res = run_lowfive_memory(*wl.split_procs(NPROCS), wl)
        got = {k: (v["total"], v["count"])
               for k, v in res.metrics["counter"].items()
               if k.startswith("simmpi.coll.")}
        assert got == {
            **{f"simmpi.coll.bytes{{rank={r}}}": (365.0, 1)
               for r in range(3)},
            "simmpi.coll.bytes{rank=3}": (0.0, 0),
            **{f"simmpi.coll.count{{rank={r}}}": (3.0, 3)
               for r in range(3)},
            "simmpi.coll.count{rank=3}": (2.0, 2),
        }


def ring(iters):
    def main(comm):
        me, n = comm.rank, comm.size
        for it in range(iters):
            comm.send(it, dest=(me + 1) % n)
            comm.recv(source=(me - 1) % n)

    return main


class TestRegistryWrites:
    def test_writes_grow_with_ranks_and_kinds_not_messages(self,
                                                           monkeypatch):
        writes = Counter()
        real_bound, real_plain = CounterValue.inc, MetricsRegistry.inc

        def bound(self, *args, **kwargs):
            writes["bound"] += 1
            return real_bound(self, *args, **kwargs)

        def plain(self, *args, **kwargs):
            writes["plain"] += 1
            return real_plain(self, *args, **kwargs)

        monkeypatch.setattr(CounterValue, "inc", bound)
        monkeypatch.setattr(MetricsRegistry, "inc", plain)
        per_run = []
        for iters in (10, 40):
            writes.clear()
            res = Engine(16).run(ring(iters))
            assert res.messages == 16 * iters
            per_run.append(dict(writes))
        # Two counters (count, bytes) per rank and kind (send, recv).
        assert per_run == [{"bound": 16 * 2 * 2}] * 2


class TestCallingRank:
    def test_rank_lookups_outside_a_run_raise(self):
        engine = Engine(2)
        comm = Comm(engine, [0, 1])
        assert engine.running is None
        with pytest.raises(RuntimeError, match="not inside a simmpi rank"):
            engine.current_proc()
        with pytest.raises(RuntimeError, match="not inside a simmpi rank"):
            _ = comm.rank

    @pytest.mark.parametrize("crash", [False, True])
    def test_running_is_the_caller_and_none_after_the_run(self, crash):
        faults = FaultPlan(0, crashes=[CrashRule(rank=1, at_vtime=0.5)]) \
            if crash else None
        engine = Engine(3, faults=faults)

        def main(comm):
            assert engine.current_proc() is engine.running
            assert engine.running.rank == comm.rank
            comm.compute(1.0)
            comm.barrier()
            assert engine.running.rank == comm.rank

        if crash:
            with pytest.raises(RankFailure):
                engine.run(main)
        else:
            engine.run(main)
        assert engine.running is None
        with pytest.raises(RuntimeError, match="not inside a simmpi rank"):
            engine.current_proc()
