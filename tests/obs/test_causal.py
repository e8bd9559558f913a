"""Causal layer: flow edges, wait classification, conservation."""

import pytest

from repro.obs import ObsContext
from repro.obs.causal import (
    COLLECTIVE_STRAGGLER,
    EARLY_SENDER,
    FlowEdge,
    LATE_SENDER,
    PFS_CONTENTION,
    RPC_SERVER_BUSY,
    RankAccount,
    classify_waits,
    conservation,
    dominant_span,
)
from repro.simmpi import Engine


def _edge(obs, t_recv_start=0.0, t_recv=0.0, **kw):
    """Post and receive one message, boring defaults for unspecified
    fields."""
    post = dict(msg_id=1, src=0, dst=1, tag=5, comm_id=1, nbytes=8,
                t_post=0.0, t_arrival=0.0)
    post.update(kw)
    obs.causal.post(**post)
    obs.causal.receive(post["msg_id"], t_recv_start, t_recv)


class TestFlowEdgeMath:
    def test_late_sender_split(self):
        # Receiver posted at 0; sender posted at 2, delivery at 3.
        e = FlowEdge(1, 0, 1, 5, 1, 8, t_post=2.0, t_arrival=3.0,
                     t_recv_start=0.0, t_recv=3.1)
        assert e.blocked == 3.0
        assert e.wait == 2.0        # idle until the sender posted
        assert e.in_flight == 1.0   # then on the wire
        assert e.wire == 1.0
        assert e.buffered == 0.0

    def test_early_sender_buffers(self):
        # Message delivered at 1; receiver only asked at 5.
        e = FlowEdge(1, 0, 1, 5, 1, 8, t_post=0.0, t_arrival=1.0,
                     t_recv_start=5.0, t_recv=5.1)
        assert e.blocked == 0.0 and e.wait == 0.0 and e.in_flight == 0.0
        assert e.buffered == 4.0

    def test_fault_rewritten_arrival_clamps(self):
        # A wire_factor fault can pull arrival before the post time;
        # the split must stay non-negative and conserve blocked time.
        e = FlowEdge(1, 0, 1, 5, 1, 8, t_post=2.0, t_arrival=1.0,
                     t_recv_start=0.0, t_recv=1.0)
        assert e.blocked == 1.0
        assert e.wait == 1.0        # capped at blocked
        assert e.in_flight == 0.0
        assert e.wait + e.in_flight == e.blocked


class TestClassification:
    def test_late_sender_default(self):
        obs = ObsContext()
        _edge(obs, t_post=2.0, t_arrival=2.5, t_recv=2.5)
        ws, = classify_waits(obs)
        assert ws.category == LATE_SENDER
        assert (ws.rank, ws.cause_rank) == (1, 0)
        assert ws.seconds == pytest.approx(2.0)

    def test_pfs_span_on_sender_means_contention(self):
        obs = ObsContext()
        obs.spans.end(obs.spans.begin(0, "pfs.write", "pfs", 0.0), 2.0)
        _edge(obs, t_post=2.0, t_arrival=2.5, t_recv=2.5)
        ws, = classify_waits(obs)
        assert ws.category == PFS_CONTENTION
        assert ws.cause_span == "pfs.write"

    def test_serving_span_means_rpc_server_busy(self):
        obs = ObsContext()
        obs.spans.end(obs.spans.begin(0, "rpc.handle", "rpc", 0.0), 2.0)
        _edge(obs, t_post=2.0, t_arrival=2.5, t_recv=2.5)
        ws, = classify_waits(obs)
        assert ws.category == RPC_SERVER_BUSY

    def test_reply_tag_fallback_means_rpc_server_busy(self):
        obs = ObsContext()
        _edge(obs, tag=702, t_post=2.0, t_arrival=2.5, t_recv=2.5)
        ws, = classify_waits(obs)
        assert ws.category == RPC_SERVER_BUSY

    def test_innermost_span_wins(self):
        # The sender's wait-covering activity is the *deepest* span:
        # pfs.write inside task.producer.
        obs = ObsContext()
        obs.spans.end(
            obs.spans.begin(0, "task.producer", "workflow", 0.0), 10.0)
        obs.spans.end(obs.spans.begin(0, "pfs.write", "pfs", 0.0), 2.0)
        _edge(obs, t_post=2.0, t_arrival=2.5, t_recv=2.5)
        ws, = classify_waits(obs)
        assert ws.category == PFS_CONTENTION

    def test_buffered_message_is_informational_early_sender(self):
        obs = ObsContext()
        _edge(obs, t_post=0.0, t_arrival=1.0, t_recv_start=5.0,
              t_recv=5.1)
        ws, = classify_waits(obs)
        assert ws.category == EARLY_SENDER
        assert (ws.t0, ws.t1) == (1.0, 5.0)

    def test_collective_straggler(self):
        obs = ObsContext()
        obs.spans.end(obs.spans.begin(2, "lowfive.index", "lowfive", 0.0,
                                      {"phase": "index"}), 3.0)
        obs.causal.collective("barrier", 1, 0,
                              {0: 1.0, 1: 2.0, 2: 3.0}, 3.0, 3.5)
        waits = classify_waits(obs)
        assert [w.rank for w in waits] == [0, 1]  # straggler never waits
        assert all(w.category == COLLECTIVE_STRAGGLER for w in waits)
        assert all(w.cause_rank == 2 for w in waits)
        assert waits[0].cause_span == "lowfive.index"
        assert waits[0].seconds == pytest.approx(2.0)


class TestDominantSpan:
    def test_no_spans_is_none(self):
        assert dominant_span([], 0.0, 1.0) is None

    def test_deepest_covering_span_wins_per_slice(self):
        rec = ObsContext().spans
        rec.end(rec.begin(0, "outer", "", 0.0), 10.0)
        inner = rec.end(rec.begin(0, "inner", "", 2.0), 4.0)
        spans = rec.spans()
        assert dominant_span(spans, 2.0, 4.0).name == "inner"
        # Over the full interval the outer span covers 8 of 10 seconds.
        assert dominant_span(spans, 0.0, 10.0).name == "outer"
        assert dominant_span(spans, 2.5, 3.5).span_id == inner.span_id

    def test_empty_interval_is_none(self):
        rec = ObsContext().spans
        rec.end(rec.begin(0, "s", "", 0.0), 1.0)
        assert dominant_span(rec.spans(), 0.5, 0.5) is None


class TestMessageRecord:
    """One record per message: ``post`` creates it, ``receive``
    completes it in place."""

    def test_receive_completes_the_posted_record(self):
        c = ObsContext().causal
        c.post(7, 0, 1, 5, 1, 8, 1.0, 2.0)
        c.post(3, 1, 0, 6, 1, 8, 1.5, 2.5)
        assert [m.msg_id for m in c.messages()] == [3, 7]
        rec = c.messages()[1]
        assert rec.t_recv is None and c.edges() == []
        c.receive(7, 0.5, 2.1, (-1, 5))
        e, = c.edges()
        assert e is rec
        assert (e.t_recv_start, e.t_recv, e.spec) == (0.5, 2.1, (-1, 5))
        assert c.messages()[0].t_recv is None  # msg 3: never received

    def test_edges_keep_receive_completion_order(self):
        c = ObsContext().causal
        for i in (1, 2, 3):
            c.post(i, 0, 1, 0, 1, 8, 0.0, 0.0)
        for i in (3, 1, 2):
            c.receive(i, 0.0, 1.0)
        assert [e.msg_id for e in c.edges()] == [3, 1, 2]
        assert [m.msg_id for m in c.messages()] == [1, 2, 3]
        assert all(m.spec is None for m in c.messages())

    @staticmethod
    def _assert_one_record_per_message(res):
        msgs = res.obs.causal.messages()
        edges = res.obs.causal.edges()
        assert len(msgs) == res.messages
        received = [m for m in msgs if m.t_recv is not None]
        assert len(edges) == len(received)
        assert {id(e) for e in edges} == {id(m) for m in received}
        assert any(e.spec is not None for e in edges)

    def test_halo_ring(self):
        from repro.simmpi import ANY_SOURCE, run_world

        def ring(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for step in range(4):
                comm.send(step, dest=right, tag=1)
                comm.send(step, dest=left, tag=2)
                comm.recv(source=left, tag=1)
                comm.recv(source=ANY_SOURCE, tag=2)

        res = run_world(6, ring, timeout=30.0)
        assert res.messages == 48
        self._assert_one_record_per_message(res)
        assert all(m.t_recv is not None for m in res.obs.causal.messages())

    def test_fig5_memory(self):
        from repro.bench.drivers import lowfive_workflow
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore
        from repro.synth import SyntheticWorkload

        res = lowfive_workflow(
            2, 1, SyntheticWorkload(512, 256), THETA_KNL, "memory",
            PFSStore()).run(model=THETA_KNL.net, timeout=240.0)
        assert all(res.returns["consumer"])  # consumer-side validation
        self._assert_one_record_per_message(res)


class TestRecorderFilters:
    def _obs(self):
        obs = ObsContext()
        _edge(obs, msg_id=1, src=0, dst=1, tag=5)
        _edge(obs, msg_id=2, src=1, dst=0, tag=6)
        _edge(obs, msg_id=3, src=0, dst=1, tag=6)
        return obs

    def test_filters(self):
        c = self._obs().causal
        assert len(c.edges()) == 3
        assert [e.msg_id for e in c.edges(src=0)] == [1, 3]
        assert [e.msg_id for e in c.edges(dst=0)] == [2]
        assert [e.msg_id for e in c.edges(tag=6)] == [2, 3]
        assert [e.msg_id for e in c.edges(src=0, tag=6)] == [3]

    def test_account_is_per_rank_singleton(self):
        c = ObsContext().causal
        a = c.account(3)
        a.compute += 1.5
        assert c.account(3) is a
        assert c.accounts()[3].compute == 1.5


class TestEngineIntegration:
    def test_late_sender_recorded_and_conserved(self):
        eng = Engine(2)

        def main(world):
            if world.rank == 0:
                world.compute(1.0)
                world.send(b"payload", 1, tag=5)
            else:
                world.recv(source=0, tag=5)

        res = eng.run(main)
        e, = eng.obs.causal.edges()
        assert (e.src, e.dst, e.tag) == (0, 1, 5)
        # Posted at 1.0 plus the model's tiny per-message overhead.
        assert e.t_post == pytest.approx(1.0, abs=1e-4)
        assert e.wait == pytest.approx(1.0, abs=1e-4)
        ws = [w for w in classify_waits(eng.obs)
              if w.category == LATE_SENDER]
        assert ws and ws[0].rank == 1 and ws[0].cause_rank == 0
        conservation(eng.obs, res.clocks).raise_if_violated()

    def test_early_sender_recorded_and_conserved(self):
        eng = Engine(2)

        def main(world):
            if world.rank == 0:
                world.send(b"payload", 1, tag=5)
            else:
                world.compute(1.0)
                world.recv(source=0, tag=5)

        res = eng.run(main)
        e, = eng.obs.causal.edges()
        assert e.wait == 0.0
        assert e.buffered > 0.0
        cats = {w.category for w in classify_waits(eng.obs)}
        assert cats == {EARLY_SENDER}
        rep = conservation(eng.obs, res.clocks)
        rep.raise_if_violated()
        # The receiver never idled: its wait ledger is zero.
        assert rep.rows[1].wait == 0.0

    def test_collective_straggler_recorded_and_conserved(self):
        eng = Engine(3)

        def main(world):
            if world.rank == 2:
                world.compute(1.0)
            world.barrier()

        res = eng.run(main)
        rec, = eng.obs.causal.collectives()
        assert rec.kind == "barrier"
        assert rec.straggler == 2
        assert rec.wait_of(0) == pytest.approx(1.0)
        assert rec.wait_of(2) == 0.0
        waits = classify_waits(eng.obs)
        assert {w.rank for w in waits} == {0, 1}
        assert all(w.cause_rank == 2 for w in waits)
        conservation(eng.obs, res.clocks).raise_if_violated()

    def test_mixed_program_conserves(self):
        eng = Engine(3)

        def main(world):
            world.compute(0.1 * (world.rank + 1))
            world.barrier()
            if world.rank == 0:
                for dst in (1, 2):
                    world.send(b"x" * 1000, dst, tag=7)
            else:
                world.recv(source=0, tag=7)
            world.allreduce(world.rank)

        res = eng.run(main)
        rep = conservation(eng.obs, res.clocks)
        rep.raise_if_violated()
        assert rep.max_residual <= 1e-9
        assert rep.max_wait_residual <= 1e-9

    def test_msg_ids_are_unique(self):
        eng = Engine(2)

        def main(world):
            if world.rank == 0:
                for i in range(5):
                    world.send(i, 1, tag=i)
            else:
                for i in range(5):
                    world.recv(source=0, tag=i)

        eng.run(main)
        ids = [e.msg_id for e in eng.obs.causal.edges()]
        assert len(ids) == 5 and len(set(ids)) == 5


class TestConservationReport:
    def test_violation_raises_with_worst_rank(self):
        eng = Engine(2)

        def main(world):
            world.compute(0.5)
            world.barrier()

        res = eng.run(main)
        # Tamper with a ledger: conservation must notice.
        eng.obs.causal.account(1).compute += 1.0
        rep = conservation(eng.obs, res.clocks)
        assert not rep.ok
        with pytest.raises(AssertionError, match="rank 1"):
            rep.raise_if_violated()

    def test_missing_account_counts_as_zero(self):
        obs = ObsContext()
        rep = conservation(obs, [0.0, 1.0])
        assert rep.rows[0].residual == 0.0
        assert rep.rows[1].residual == 1.0
        assert not rep.ok

    def test_to_dict_is_json_shape(self):
        import json

        obs = ObsContext()
        obs.causal.account(0).compute = 1.0
        rep = conservation(obs, [1.0])
        assert rep.ok
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["ok"] is True
        assert d["ranks"][0]["compute"] == 1.0

    def test_rank_account_total(self):
        a = RankAccount(0)
        a.compute, a.transfer, a.wait = 1.0, 2.0, 3.0
        assert a.total == 6.0
        assert a.to_dict() == {"rank": 0, "compute": 1.0,
                               "transfer": 2.0, "wait": 3.0}
