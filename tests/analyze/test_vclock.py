"""Vector-clock construction: ordering axioms and trace replay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze import (
    TraceInconsistency,
    build_happens_before,
    concurrent,
    happens_before,
)
from repro.analyze.vclock import leq
from repro.simmpi import ANY_SOURCE, run_world


def pingpong(comm):
    if comm.rank == 0:
        comm.send("ping", dest=1, tag=1)
        return comm.recv(source=1, tag=2)[0]
    got = comm.recv(source=0, tag=1)[0]
    comm.send("pong", dest=0, tag=2)
    return got


def fan_in(comm):
    if comm.rank == 0:
        return [comm.recv(source=ANY_SOURCE, tag=0)[0]
                for _ in range(comm.size - 1)]
    comm.compute(comm.rank * 1e-3)
    comm.send(comm.rank, dest=0, tag=0)
    return None


class TestAxioms:
    """The derived relation is a strict partial order."""

    def _vcs(self):
        res = run_world(2, pingpong, timeout=30.0)
        hb = build_happens_before(res.obs)
        return list(hb.send_vc.values()) + list(hb.recv_vc.values())

    def test_irreflexive_and_antisymmetric(self):
        vcs = self._vcs()
        for a in vcs:
            assert not happens_before(a, a)
        for a in vcs:
            for b in vcs:
                assert not (happens_before(a, b) and happens_before(b, a))

    def test_exactly_one_of_hb_or_concurrent(self):
        vcs = self._vcs()
        for a in vcs:
            for b in vcs:
                if a == b:
                    continue
                n = sum([happens_before(a, b), happens_before(b, a),
                         concurrent(a, b)])
                assert n == 1, (a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 5)), min_size=3, max_size=3))
    def test_transitivity_on_random_clocks(self, vcs):
        a, b, c = vcs
        if happens_before(a, b) and happens_before(b, c):
            assert happens_before(a, c)
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


class TestReplay:
    def test_pingpong_is_fully_ordered(self):
        res = run_world(2, pingpong, timeout=30.0)
        hb = build_happens_before(res.obs)
        # one message each way; the first send precedes the reply send
        assert len(hb.send_vc) == 2
        first, second = sorted(hb.send_vc)
        assert happens_before(hb.send_vc[first], hb.send_vc[second])

    def test_fan_in_sends_are_concurrent(self):
        res = run_world(4, fan_in, timeout=30.0)
        hb = build_happens_before(res.obs)
        vcs = list(hb.send_vc.values())
        assert len(vcs) == 3
        for i, a in enumerate(vcs):
            for b in vcs[i + 1:]:
                assert concurrent(a, b)

    def test_hb_is_consistent_with_virtual_time(self):
        """a HB b implies t(a) <= t(b): causality never runs backwards
        against the virtual clock."""
        res = run_world(4, fan_in, timeout=30.0)
        causal = res.obs.causal
        hb = build_happens_before(res.obs)
        t_post = {p.msg_id: p.t_post for p in causal.messages()}
        for a, ta in t_post.items():
            for b, tb in t_post.items():
                if happens_before(hb.send_vc[a], hb.send_vc[b]):
                    assert ta <= tb + 1e-12

    def test_collective_orders_across_ranks(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("pre", dest=1, tag=1)
            comm.barrier()
            if comm.rank == 1:
                comm.send("post", dest=0, tag=2)
                return None
            return comm.recv(source=1, tag=2)[0]

        res = run_world(2, main, timeout=30.0)
        hb = build_happens_before(res.obs)
        pre, post = sorted(hb.send_vc)
        # the pre-barrier send happens-before the post-barrier send,
        # even though different ranks posted them
        assert happens_before(hb.send_vc[pre], hb.send_vc[post])

    def test_inconsistent_trace_raises(self):
        """A cyclically-forged trace (each rank receives the other's
        message before sending its own) admits no replay."""
        from tests.analyze.tracestub import StubObs, msg

        obs = StubObs(messages=[
            msg(msg_id=2, src=1, dst=0, t_post=2.0, t_recv=1.0),
            msg(msg_id=1, src=0, dst=1, t_post=2.0, t_recv=1.0),
        ])
        with pytest.raises(TraceInconsistency):
            build_happens_before(obs)
