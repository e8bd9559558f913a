"""Failure injection: errors must propagate loudly, never hang or
corrupt."""

import numpy as np
import pytest

import repro.h5 as h5
from repro.faults import FaultPlan, RpcFaultRule
from repro.h5.errors import NotFoundError, SelectionError
from repro.h5.native import NativeVOL
from repro.lowfive import DistMetadataVOL
from repro.lowfive.rpc import RetriesExhausted, RPCError, RPCTimeout
from repro.obs.ledger import counter_totals
from repro.pfs import PFSStore
from repro.simmpi import DeadlockError
from repro.workflow import Workflow


def make_pair(producer_body, consumer_body, nprod=2, ncons=1,
              timeout=60.0, faults=None):
    def make_vol(ctx, role, peer):
        def factory():
            vol = DistMetadataVOL(comm=ctx.comm, under=NativeVOL(PFSStore()))
            vol.set_memory("f.h5")
            if role == "producer":
                vol.serve_on_close("f.h5", ctx.intercomm(peer))
            else:
                vol.set_consumer("f.h5", ctx.intercomm(peer))
            return vol

        return ctx.singleton("vol", factory)

    def producer(ctx):
        vol = make_vol(ctx, "producer", "consumer")
        return producer_body(ctx, vol)

    def consumer(ctx):
        vol = make_vol(ctx, "consumer", "producer")
        return consumer_body(ctx, vol)

    wf = Workflow()
    wf.add_task("producer", nprod, producer)
    wf.add_task("consumer", ncons, consumer)
    wf.add_link("producer", "consumer")
    return wf.run(timeout=timeout, faults=faults)


def normal_producer(ctx, vol):
    f = h5.File("f.h5", "w", comm=ctx.comm, vol=vol)
    d = f.create_dataset("d", shape=(4, 4), dtype="u8")
    d.write(np.zeros(8, dtype=np.uint64),
            file_select=h5.hyperslab((2 * ctx.rank, 0), (2, 4)))
    f.close()
    return True


def test_consumer_requesting_missing_dataset_gets_error():
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)
        with pytest.raises(NotFoundError):
            f["does_not_exist"]
        f.close()
        return True

    res = make_pair(normal_producer, consumer)
    assert res.returns["consumer"] == [True]


def test_consumer_bad_selection_rejected_locally():
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)
        d = f["d"]
        with pytest.raises(SelectionError):
            d.read(h5.hyperslab((0, 0), (5, 5)))  # exceeds (4,4)
        f.close()
        return True

    res = make_pair(normal_producer, consumer)
    assert res.returns["consumer"] == [True]


def test_consumer_exception_propagates_to_run():
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)  # noqa: ANL005
        raise RuntimeError("analysis blew up")

    with pytest.raises(RuntimeError, match="analysis blew up"):
        make_pair(normal_producer, consumer)


def test_producer_exception_wakes_blocked_consumer():
    def producer(ctx, vol):
        raise RuntimeError("simulation diverged")

    def consumer(ctx, vol):
        # Blocks forever waiting for metadata; the producer failure
        # must tear it down instead of deadlocking.
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)  # noqa: ANL005
        return True

    with pytest.raises(RuntimeError, match="simulation diverged"):
        make_pair(producer, consumer, timeout=10.0)


def test_consumer_never_closing_times_out_producer():
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)  # noqa: ANL005
        f["d"].read()
        return "never closed"  # producer's serve waits for done

    with pytest.raises((RPCError, DeadlockError)):
        make_pair(normal_producer, consumer, timeout=3600)


def test_rpc_error_reply_does_not_kill_server():
    """A failing request errors the caller only; later requests work."""
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)
        from repro.lowfive.rpc import RPCClient

        client = f._token.fstate.remote_client
        with pytest.raises(RPCError):
            client.call(0, "read", "f.h5", "/missing",
                        h5.AllSelection((4, 4)))
        vals = f["d"].read()  # still served fine
        f.close()
        return vals.shape == (4, 4)

    res = make_pair(normal_producer, consumer)
    assert res.returns["consumer"] == [True]


def test_rpc_error_hierarchy_is_layered():
    # Code that only knows RPCError keeps working when the fault layer
    # raises the more precise types.
    assert issubclass(RPCTimeout, RPCError)
    assert issubclass(RetriesExhausted, RPCTimeout)
    assert issubclass(RetriesExhausted, RPCError)


def test_retries_exhausted_degrades_gracefully():
    """One consumer's read RPC is persistently lost: that consumer gets
    a typed RetriesExhausted, the *other* consumer reads fine, and the
    producer's serve loop terminates normally."""
    # World ranks: producers 0-1, consumers 2-3; rank 3 is the victim.
    plan = FaultPlan(0, rpcs=[RpcFaultRule(fn="read", caller=3,
                                           lose_first=10)])

    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)
        d = f["d"]
        if ctx.world.rank == 3:
            with pytest.raises(RetriesExhausted):
                d.read()
            ok = "degraded"
        else:
            ok = "read" if d.read().shape == (4, 4) else "corrupt"
        f.close()  # still signals done; the producer is released
        return ok

    res = make_pair(normal_producer, consumer, ncons=2, faults=plan)
    assert sorted(res.returns["consumer"]) == ["degraded", "read"]
    assert res.returns["producer"] == [True, True]
    assert plan.injected_counts()["rpc_lost"] >= 4  # 1 try + 3 retries


def test_transient_rpc_loss_is_retried_transparently():
    """Losing fewer attempts than the retry budget is invisible."""
    plan = FaultPlan(0, rpcs=[RpcFaultRule(fn="read", lose_first=2)])

    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)
        vals = f["d"].read()
        f.close()
        return vals.shape == (4, 4)

    res = make_pair(normal_producer, consumer, faults=plan)
    assert res.returns["consumer"] == [True]
    assert plan.injected_counts()["rpc_lost"] >= 2
    retries = counter_totals(res.obs.metrics.to_dict())["rpc.retry.count"]
    assert retries >= 2


def test_consumer_stalling_in_virtual_time_trips_serve_timeout():
    """The serve timeout is virtual: a consumer that burns simulated
    time without ever closing trips RPCTimeout on the producer."""
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)  # noqa: ANL005
        f["d"].read()
        ctx.comm.compute(100.0)  # >> the serve loop's 60 virtual s
        return "wandered off"    # never closed -> no done signal

    with pytest.raises(RPCTimeout, match="starved"):
        make_pair(normal_producer, consumer, timeout=30.0)


def test_clocks_nonnegative_and_final_time_positive():
    def consumer(ctx, vol):
        f = h5.File("f.h5", "r", comm=ctx.comm, vol=vol)
        f["d"].read()
        f.close()
        return ctx.comm.vtime

    res = make_pair(normal_producer, consumer)
    assert res.vtime > 0
    assert all(t >= 0 for t in res.returns["consumer"])
