"""Chaos properties: recoverable faults never change results, and a
seed fully determines a faulty run.

Two invariants anchor the fault-injection subsystem:

1. **Transparency** -- message delays, duplicates and slow wires only
   move virtual time around; the index-serve-query protocol must
   deliver byte-identical data with or without them.
2. **Replayability** -- a seeded faulty run is bit-deterministic: two
   runs from fresh same-seed plans produce identical per-rank clocks,
   identical (virtual-time-sorted) communication traces, and identical
   redistributed bytes, regardless of host thread scheduling.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.h5 as h5
from repro.faults import FaultPlan, MessageFaultRule
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.lowfive.rpc import RPCError
from repro.obs.ledger import counter_totals
from repro.pfs import PFSStore
from repro.simmpi import RankFailure
from repro.synth import (
    consumer_grid_selection,
    grid_values,
    producer_grid_selection,
    validate_grid,
)
from repro.workflow import Workflow
from tests.lowfive.test_staged import BIG_SHAPE, build as run_staged

GRID = (8, 6, 4)
NPROD, NCONS = 2, 2


def chaos_rules():
    """Recoverable-only message faults on every link, aggressively."""
    return [MessageFaultRule(p_delay=0.4, max_delay=2e-3,
                             p_duplicate=0.3)]


def run_pc(faults=None, mode="memory", timeout=60.0,
           nprod=NPROD, ncons=NCONS):
    """Producer/consumer grid exchange; consumers return raw bytes."""
    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm,
                                  under=NativeVOL(PFSStore()))
            if mode in ("memory", "both"):
                vol.set_memory("out.h5")
            if mode in ("file", "both"):
                vol.set_passthru("out.h5")
            if role == "producer":
                vol.serve_on_close("out.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("out.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        f = h5.File("out.h5", "w", comm=ctx.comm, vol=vol)
        d = f.create_dataset("grid", shape=GRID, dtype=h5.UINT64)
        sel = producer_grid_selection(GRID, ctx.rank, ctx.size)
        d.write(grid_values(sel, GRID), file_select=sel)
        f.close()
        return "produced"

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        f = h5.File("out.h5", "r", comm=ctx.comm, vol=vol)
        sel = consumer_grid_selection(GRID, ctx.rank, ctx.size)
        gv = f["grid"].read(sel, reshape=False)
        assert validate_grid(sel, GRID, gv)
        f.close()
        return np.asarray(gv).tobytes()

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf.run(faults=faults, timeout=timeout)


def trace_key(result):
    """Hashable, time-sorted view of the run's causal record: every
    send, receive and collective with its virtual clocks."""
    causal = result.obs.causal
    return sorted(
        [(p.t_post, "send", p.src, p.dst, p.tag, p.nbytes,
          (p.t_arrival,)) for p in causal.messages()]
        + [(e.t_recv, "recv", e.dst, e.src, e.tag, e.nbytes,
            (e.t_recv_start,)) for e in causal.edges()]
        + [(c.t_end, "coll", c.straggler, -1, 0, c.nbytes,
            (c.kind, *sorted(c.enter_clocks.items())))
           for c in causal.collectives()]
    )


@pytest.fixture(scope="module")
def baseline_bytes():
    """Fault-free reference results (memory mode)."""
    return run_pc().returns["consumer"]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_recoverable_faults_are_transparent(seed, baseline_bytes):
    plan = FaultPlan(seed, messages=chaos_rules())
    res = run_pc(faults=plan)
    assert res.returns["consumer"] == baseline_bytes


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_same_seed_replays_identically(seed):
    # Fresh plans from the same seed: clocks, trace and bytes must be
    # bit-identical across runs -- also with two consumers, whose
    # simultaneously pending requests the servers answer in virtual
    # arrival order, whatever the host does.
    for ncons in (1, 2):
        a = run_pc(faults=FaultPlan(seed, messages=chaos_rules()),
                   ncons=ncons)
        b = run_pc(faults=FaultPlan(seed, messages=chaos_rules()),
                   ncons=ncons)
        assert a.clocks == b.clocks
        assert trace_key(a) == trace_key(b)
        assert a.returns["consumer"] == b.returns["consumer"]
        assert a.messages == b.messages and a.bytes_sent == b.bytes_sent


def test_fixed_seed_regression_injects_and_reports():
    # A pinned seed that demonstrably injects: counts appear both in
    # the plan and in the obs metrics, and results stay correct.
    plan = FaultPlan(1234, messages=chaos_rules())
    res = run_pc(faults=plan)
    counts = plan.injected_counts()
    assert counts.get("msg_delay", 0) > 0
    assert counts.get("msg_duplicate", 0) > 0
    injected = counter_totals(res.obs.metrics.to_dict())["faults.injected"]
    assert injected > 0
    names = {i.name for i in res.obs.spans.instants()}
    assert names & {"fault.msg_delay", "fault.msg_duplicate"}


def test_slow_wire_changes_time_not_bytes(baseline_bytes):
    plan = FaultPlan(5, messages=[MessageFaultRule(wire_factor=20.0)])
    clean = run_pc()
    slow = run_pc(faults=plan)
    assert slow.returns["consumer"] == baseline_bytes
    assert slow.vtime > clean.vtime


@pytest.mark.chaos
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chaos_file_mode_transparent(seed):
    plan = FaultPlan(seed, messages=chaos_rules())
    clean = run_pc(mode="both")
    faulty = run_pc(faults=plan, mode="both")
    assert faulty.returns["consumer"] == clean.returns["consumer"]


@pytest.mark.chaos
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chaos_heavy_duplication_sweep(seed):
    # Duplicate nearly everything: dedup must keep the protocol exact.
    plan = FaultPlan(seed, messages=[
        MessageFaultRule(p_delay=0.8, max_delay=5e-3, p_duplicate=0.9),
    ])
    res = run_pc(faults=plan)
    clean = run_pc()
    assert res.returns["consumer"] == clean.returns["consumer"]
    assert plan.injected_counts().get("msg_duplicate", 0) > 0


@pytest.mark.chaos
def test_chaos_staged_no_fault_validated_data_or_typed_failure():
    # The staged x no-fault cell of the modes x fault-rules matrix, on
    # the shape where every marker overtakes its megabyte bundle: each
    # run ends in position-validated data or a typed failure, never a
    # silent wrong answer, whatever the interleaving.
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            try:
                res = run_staged(3, 2, 1, shape=BIG_SHAPE)
            except (RankFailure, RPCError):
                continue
            assert all(res.returns["consumer"])
    finally:
        sys.setswitchinterval(old)
