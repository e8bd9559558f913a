"""Scheduler semantics: wildcard ordering, wakeups, determinism.

These tests pin down the semantics of the baton scheduler and the
indexed mailboxes -- wildcard matching order, a parked rank resumed by
exactly the message it waits for (also under fault-injected duplicates
and delays), run-to-run determinism, exact deadlock detection, the
rank threads' scheduling policy -- plus a perf smoke test asserting
that receive matching does no work proportional to unrelated queued
traffic. Order is virtual: a ``compute()`` delay, never a real stall,
decides who is parked first.
"""

import os

import pytest

from repro.faults import FaultPlan, MessageFaultRule
from repro.simmpi import ANY_SOURCE, ANY_TAG, Engine, run_world


def _mailbox_examined(engine: Engine) -> int:
    """Total bucket heads inspected by matching across all ranks."""
    return sum(mbox.examined
               for p in engine.procs
               for mbox in p.mailbox.values())


def _nothing_queued(comm) -> bool:
    """No live message left for the calling rank on ``comm``: dead
    twins are purged, and a live one would be the best match."""
    proc = comm.engine.current_proc()
    return proc.best_match(((comm.comm_id, ANY_SOURCE, ANY_TAG),)) is None


class TestWildcardOrdering:
    def test_any_source_follows_arrival_order(self):
        """A wildcard receive takes the queued message with the
        earliest (arrival, src, seq), not FIFO-of-delivery."""

        def main(comm):
            if comm.rank == 0:
                comm.barrier()
                got = [comm.recv(source=ANY_SOURCE, tag=0)[0]
                       for _ in range(comm.size - 1)]
                # Rank k computed (size - k) ms before sending, so
                # arrival order is the *reverse* of rank order.
                assert got == sorted(
                    got, key=lambda payload: -payload
                )
                return got
            comm.compute((comm.size - comm.rank) * 1e-3)
            comm.send(comm.rank, dest=0, tag=0)
            comm.barrier()

        run_world(5, main)

    def test_any_tag_prefers_earlier_arrival(self):
        def main(comm):
            if comm.rank == 1:
                # Big payload first: its wire time makes it arrive
                # *after* the small message sent later.
                comm.send(bytes(2_000_000), dest=0, tag=7)
                comm.send(b"x", dest=0, tag=8)
                comm.barrier()
            elif comm.rank == 0:
                comm.barrier()
                _, st1 = comm.recv(source=1, tag=ANY_TAG)
                _, st2 = comm.recv(source=1, tag=ANY_TAG)
                assert (st1.tag, st2.tag) == (8, 7)
            else:
                comm.barrier()

        run_world(2, main)

    def test_arrival_tie_breaks_by_source_rank(self):
        """Equal arrivals resolve by the lower sender rank."""

        def main(comm):
            if comm.rank == 0:
                comm.barrier()
                sources = [comm.recv()[1].source
                           for _ in range(comm.size - 1)]
                assert sources == sorted(sources)
            else:
                # Identical payloads and clocks: identical arrivals.
                comm.send(b"tie", dest=0)
                comm.barrier()

        run_world(4, main)


class TestTargetedWakeups:
    def test_blocked_recv_survives_nonmatching_flood(self):
        """A rank waiting on a specific (source, tag) must still be
        woken by its one matching message arriving after a flood of
        non-matching traffic (a missed wakeup is a DeadlockError)."""

        def main(comm):
            if comm.rank == 0:
                # Blocks immediately; the match arrives last.
                payload, st = comm.recv(source=comm.size - 1, tag=99)
                assert payload == "the-one" and st.tag == 99
                for src in range(1, comm.size - 1):
                    for k in range(10):
                        comm.recv(source=src, tag=0)
                return True
            if comm.rank < comm.size - 1:
                for k in range(10):
                    comm.send((comm.rank, k), dest=0, tag=0)
            else:
                comm.compute(1e-3)  # the match is posted and arrives last
                comm.send("the-one", dest=0, tag=99)
            return True

        res = run_world(6, main, timeout=10.0)
        assert all(res.returns)

    def test_wildcard_waiter_woken_by_any_match(self):
        def main(comm):
            if comm.rank == 0:
                payload, _ = comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                assert payload == "hello"
            elif comm.rank == 1:
                comm.compute(0.05)  # rank 0 is parked long before this
                comm.send("hello", dest=0, tag=3)

        run_world(2, main, timeout=10.0)

    def test_wakeups_correct_under_duplicates_and_delays(self):
        """Fault-injected duplicates and delays reorder and clone
        traffic; matching must still consume each logical message
        exactly once and never hang on a duplicate."""
        rules = [MessageFaultRule(p_delay=0.5, max_delay=5e-4,
                                  p_duplicate=0.5)]

        def main(comm):
            if comm.rank == 0:
                seen = []
                for _ in range(3 * (comm.size - 1)):
                    payload, _ = comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                    seen.append(payload)
                assert sorted(seen) == sorted(
                    (src, k) for src in range(1, comm.size)
                    for k in range(3)
                )
                return len(seen)
            for k in range(3):
                comm.send((comm.rank, k), dest=0, tag=k)
            return 0

        res = run_world(4, main, timeout=10.0,
                        faults=FaultPlan(11, messages=rules))
        assert res.returns[0] == 9

    def test_specific_recv_with_duplicates(self):
        rules = [MessageFaultRule(p_duplicate=1.0)]

        def main(comm):
            if comm.rank == 0:
                for src in range(comm.size - 1, 0, -1):
                    payload, _ = comm.recv(source=src, tag=src)
                    assert payload == src * 10
                # Duplicates were deduped: nothing is left to match.
                assert _nothing_queued(comm)
            else:
                comm.send(comm.rank * 10, dest=0, tag=comm.rank)

        run_world(4, main, timeout=10.0,
                  faults=FaultPlan(5, messages=rules))


#: Every message duplicated, with and without delays (a delayed
#: original also delays its twin, by ``dup_delay`` more).
DUP_RULES = {
    "dup": MessageFaultRule(p_duplicate=1.0),
    "dup+delay": MessageFaultRule(p_duplicate=1.0, p_delay=1.0,
                                  max_delay=1e-3),
}


class TestDuplicateTwinsNeverMatch:
    """An injected twin arrives no earlier than its original, gets a
    later seq and shares its ``(src, tag)`` bucket, so it always sorts
    after it; taking the original purges it. No receive -- concrete,
    wildcard or serve lane -- can ever take a twin, which is why the
    causal record holds one record per original and none per twin."""

    @pytest.fixture
    def popped(self, monkeypatch):
        """``(source, tag, message)`` of every receive: ``recv`` and
        serve loops both dequeue through ``Comm._take_match``."""
        from repro.simmpi.comm import Comm

        out = []
        real = Comm._take_match

        def spy(self, proc, msg, source, tag, t_start):
            out.append((source, tag, msg))
            return real(self, proc, msg, source, tag, t_start)

        monkeypatch.setattr(Comm, "_take_match", spy)
        return out

    @staticmethod
    def _assert_no_twin(popped):
        assert popped
        assert all(m.dup_of is None for _, _, m in popped)
        assert any(m.has_dup for _, _, m in popped)  # twins did exist

    @pytest.mark.parametrize("rule", list(DUP_RULES))
    def test_concrete_and_wildcard_receives(self, popped, rule):
        def main(comm):
            if comm.rank == 0:
                for src in range(1, comm.size):
                    for k in range(3):
                        assert comm.recv(source=src, tag=k)[0] == (src, k)
                got = sorted(comm.recv(source=ANY_SOURCE, tag=ANY_TAG)[0]
                             for _ in range(3 * (comm.size - 1)))
                assert got == sorted((src, 10 + k)
                                     for src in range(1, comm.size)
                                     for k in range(3))
                assert _nothing_queued(comm)
                return
            for k in (0, 1, 2, 10, 11, 12):
                comm.send((comm.rank, k), dest=0, tag=k)

        run_world(4, main, timeout=30.0,
                  faults=FaultPlan(3, messages=[DUP_RULES[rule]]))
        self._assert_no_twin(popped)
        assert {s == ANY_SOURCE for s, _, _ in popped} == {True, False}

    @pytest.mark.parametrize("rule", list(DUP_RULES))
    def test_serve_lane_receives(self, popped, rule):
        from repro.bench.drivers import _check, lowfive_workflow
        from repro.lowfive.rpc import TAG_REQUEST
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore
        from repro.synth import SyntheticWorkload

        wf = lowfive_workflow(
            2, 1, SyntheticWorkload(grid_points_per_proc=512,
                                    particles_per_proc=256),
            THETA_KNL, "memory", PFSStore())
        res = wf.run(model=THETA_KNL.net, timeout=60.0,
                     faults=FaultPlan(3, messages=[DUP_RULES[rule]]))
        assert _check(res.returns["consumer"])
        self._assert_no_twin(popped)
        assert any(s == ANY_SOURCE and t == TAG_REQUEST
                   for s, t, _ in popped)


class TestDeterminism:
    def test_repeated_runs_identical(self):
        """Same program, same seed => bit-identical virtual results,
        independent of thread scheduling."""

        def main(comm):
            me = comm.rank
            comm.compute(1e-4 * (me + 1))
            right = (me + 1) % comm.size
            left = (me - 1) % comm.size
            comm.send(me, dest=right, tag=1)
            got, _ = comm.recv(source=left, tag=1)
            total = comm.allreduce(got)
            comm.barrier()
            return total

        results = [run_world(8, main) for _ in range(3)]
        first = results[0]
        for res in results[1:]:
            assert res.vtime == first.vtime  # noqa: ANL004
            assert res.clocks == first.clocks
            assert res.messages == first.messages
            assert res.bytes_sent == first.bytes_sent
            assert res.returns == first.returns

    def test_faulty_runs_deterministic(self):
        rules = [MessageFaultRule(p_delay=0.4, max_delay=1e-3,
                                  p_duplicate=0.3)]

        def main(comm):
            # Rendezvous before receiving: with every message already
            # queued, wildcard matching order -- and hence the clock
            # trajectory -- is a pure function of the fault plan.
            if comm.rank == 0:
                comm.barrier()
                return [comm.recv()[0] for _ in range(comm.size - 1)]
            comm.send(comm.rank, dest=0, tag=comm.rank % 2)
            comm.barrier()
            return None

        runs = [
            run_world(5, main, faults=FaultPlan(21, messages=rules),
                      timeout=10.0)
            for _ in range(2)
        ]
        assert runs[0].vtime == runs[1].vtime  # noqa: ANL004
        assert runs[0].clocks == runs[1].clocks
        assert runs[0].returns[0] == runs[1].returns[0]


class TestMatchingCost:
    """Perf smoke: matching work must not scale with unrelated traffic."""

    @staticmethod
    def _run_flood(n_unrelated: int) -> int:
        """Rank 0 receives 10 (source=1, tag=5) messages while rank 2
        floods it with ``n_unrelated`` messages it never matches.
        Returns the bucket heads examined by rank 0's matching."""
        eng = Engine(3, timeout=30.0)

        def main(comm):
            if comm.rank == 0:
                comm.barrier()
                for _ in range(10):
                    comm.recv(source=1, tag=5)
                return True
            if comm.rank == 1:
                for k in range(10):
                    comm.send(k, dest=0, tag=5)
            else:
                for k in range(n_unrelated):
                    comm.send(k, dest=0, tag=1000 + (k % 16))
            comm.barrier()
            return True

        eng.run(main)
        return _mailbox_examined(eng)

    def test_examined_heads_independent_of_unrelated_queue(self):
        small = self._run_flood(20)
        large = self._run_flood(2000)
        # Fully-qualified matching inspects exactly one bucket head per
        # attempt regardless of how much unrelated traffic is queued.
        assert large <= small + 16, (small, large)

    def test_wildcard_scales_with_buckets_not_messages(self):
        """ANY_SOURCE matching may inspect one head per candidate
        bucket, but never one per queued message."""
        n_unrelated = 3000
        eng = Engine(3, timeout=30.0)

        def main(comm):
            if comm.rank == 0:
                comm.barrier()
                for _ in range(10):
                    comm.recv(source=ANY_SOURCE, tag=5)
                return True
            if comm.rank == 1:
                for k in range(10):
                    comm.send(k, dest=0, tag=5)
            else:
                for k in range(n_unrelated):
                    comm.send(k, dest=0, tag=1000 + (k % 16))
            comm.barrier()
            return True

        eng.run(main)
        examined = _mailbox_examined(eng)
        # 10 matches x (<= #live buckets, bounded by 2 senders x 17
        # tags) plus barrier bookkeeping -- far below one per message.
        assert examined < n_unrelated / 2, examined


class TestTimeoutAccounting:
    """What ``timeout`` does and does not account for: a deadlock is
    detected exactly; the real-time bound is for bodies outside simmpi."""

    def test_deadlock_still_detected(self):
        from repro.simmpi import DeadlockError

        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # never sent

        # Exact, not timed: a detection that leaned on the real-time
        # bound would hang the suite for an hour.
        with pytest.raises(DeadlockError):
            run_world(2, main, timeout=3600)

    def test_real_time_bound_covers_a_body_that_never_yields(self):
        """``timeout`` bounds the whole run in real time: the one case
        the scheduler cannot see is a body stuck outside simmpi."""
        import threading

        from repro.simmpi import DeadlockError, RunTimeout

        stuck = threading.Event()  # noqa: ANL003 - the stall under test

        def main(comm):
            if comm.rank == 0:
                stuck.wait(30.0)

        try:
            with pytest.raises(RunTimeout, match="real time") as info:
                run_world(2, main, timeout=0.2)
        finally:
            stuck.set()
        # Too slow is not deadlocked.
        assert not isinstance(info.value, DeadlockError)


def _halo(comm):
    """A ring exchange with a periodic allreduce: sends, receives,
    collectives and nonblocking requests in one body."""
    me, n = comm.rank, comm.size
    left, right = (me - 1) % n, (me + 1) % n
    total = 0
    for it in range(6):
        reqs = [comm.isend((me, it), dest=left, tag=0),
                comm.isend((me, it), dest=right, tag=1)]
        comm.recv(source=right, tag=0)
        comm.recv(source=left, tag=1)
        for r in reqs:
            r.wait()
        if it % 3 == 2:
            total += comm.allreduce(me)
    return total


def _policy(comm):
    """The scheduling policy of the thread running the rank."""
    return os.sched_getscheduler(0)


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                    reason="no SCHED_BATCH on this platform")
class TestSchedulingPolicy:
    """Rank threads run under ``SCHED_BATCH``, so a baton handoff is one
    context switch; the policy is a host-time matter only."""

    def test_rank_bodies_run_under_batch(self):
        res = run_world(4, lambda comm: os.sched_getscheduler(0))
        assert res.returns == [os.SCHED_BATCH] * 4

    def test_caller_keeps_its_policy(self):
        before = os.sched_getscheduler(0)
        run_world(4, _halo)
        assert os.sched_getscheduler(0) == before

    def test_refused_policy_changes_nothing_virtual(self, monkeypatch):
        """A worker takes its policy once, when it starts, so a refused
        policy reaches the workers a run larger than the pool starts."""
        run_world(1, _policy)  # the pool shrinks to one worker

        refused = []

        def refuse(*args):
            refused.append(args)
            raise OSError("policy refused")

        monkeypatch.setattr(os, "sched_setscheduler", refuse)
        policies = run_world(8, _policy)
        assert policies.returns == (
            [os.SCHED_BATCH] + [os.sched_getscheduler(0)] * 7)
        default = run_world(8, _halo)  # ranks 1-7 on refused workers
        assert len(refused) == 7  # once per started worker, not per run
        monkeypatch.undo()
        run_world(1, _policy)  # the refused workers leave the pool
        batch = run_world(8, _halo)
        assert run_world(8, _policy).returns == [os.SCHED_BATCH] * 8
        assert (default.vtime, default.messages, default.bytes_sent) == (
            batch.vtime, batch.messages, batch.bytes_sent)
        assert default.returns == batch.returns
