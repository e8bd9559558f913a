"""Rank workers outlive a run.

``simmpi.engine`` keeps one persistent thread per rank of the last run:
rank ``r`` runs on the ``r``-th idle worker, a worker keeps nothing of a
finished run, the pool shrinks to each run's size, a worker stuck in a
timed-out body is never handed out again, nested and concurrent runs
take only idle workers, and a forked child starts from an empty pool.
"""

import gc
import os
import sys
import threading

import pytest

from repro.bench import run_lowfive_memory
from repro.bench.drivers import stream_workflow
from repro.h5.objects import FileNode
from repro.pfs import PFSStore
from repro.simmpi import Engine, RunTimeout, run_world
from repro.simmpi.comm import Comm
from repro.simmpi.engine import Proc
from repro.synth import SyntheticWorkload
from tests.lowfive.test_staged import build as build_staged

RUN_STATE = (Engine, Proc, Comm, PFSStore, FileNode)


def _thread(comm):
    return threading.current_thread()


def _run_state() -> list:
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, RUN_STATE)]


def _ring(comm):
    me, n = comm.rank, comm.size
    comm.send(me, dest=(me + 1) % n)
    return comm.recv(source=(me - 1) % n)[0]


class TestNothingOutlivesARun:
    """No engine, rank, communicator, store or file tree a run made
    stays reachable once it returns, even while its result is held (the
    gc shape of ``test_file_mode_run_retains_no_file_state``); an idle
    worker holding its last job would keep them alive."""

    @pytest.mark.parametrize("run", [
        lambda: run_world(4, _ring),
        lambda: run_lowfive_memory(3, 1, SyntheticWorkload(2000, 2000)),
        lambda: build_staged(3, 2, 1),
        lambda: stream_workflow(2, 2, 3).run(),
    ], ids=["run_world", "memory", "staged", "stream"])
    def test_run_leaves_nothing_alive(self, run):
        for _ in range(2):  # the second run is on warm workers
            before = _run_state()  # held: no new object reuses an id
            known = {id(o) for o in before}
            result = run()
            left = [type(o).__name__ for o in _run_state()
                    if id(o) not in known]
            assert result is not None and left == []
            del before


class TestPool:
    def test_rank_keeps_its_worker(self):
        first = run_world(6, _thread).returns
        assert run_world(6, _thread).returns == first
        assert run_world(4, _thread).returns == first[:4]
        assert len(set(first)) == 6

    def test_pool_keeps_the_last_runs_size(self):
        run_world(64, _thread)
        at64 = threading.active_count()
        run_world(16, _thread)
        assert threading.active_count() == at64 - 48
        run_world(64, _thread)
        assert threading.active_count() == at64

    def test_timed_out_worker_is_never_reused(self):
        stuck = threading.Event()  # noqa: ANL003 - holds a body outside simmpi
        release = threading.Event()  # noqa: ANL003

        def body(comm):
            if comm.rank == 0:
                stuck.set()
                release.wait(30)
            return comm.allreduce(1)

        old = run_world(2, _thread).returns
        with pytest.raises(RunTimeout):
            run_world(2, body, timeout=0.2)
        assert stuck.is_set()
        try:
            res = run_world(2, _ring, timeout=10)
            assert res.returns == [1, 0]
            assert not set(run_world(2, _thread).returns) & set(old)
        finally:
            release.set()
        for t in old:  # both leave: rank 1's worker never started
            t.join(10)
            assert not t.is_alive()

    def test_run_inside_a_rank_body(self):
        res = run_world(3, lambda comm: run_world(4, _ring,
                                                  timeout=10).returns)
        assert res.returns == [[3, 0, 1, 2]] * 3

    def test_engines_on_concurrent_threads(self):
        """Runs from four Python threads at once, with thread switches
        forced often: each takes only idle workers, every run completes,
        and none leaves a worker marked busy (the pool then shrinks to
        one worker, as after any one-rank run)."""
        run_world(1, _ring)
        baseline = threading.active_count()
        out = {}

        def drive(key):
            out[key] = [run_world(n, _ring, timeout=10).returns
                        for n in (8, 3, 5, 2, 8)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(k,))  # noqa: ANL003
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        ring = [[(r - 1) % n for r in range(n)] for n in (8, 3, 5, 2, 8)]
        assert out == {k: ring for k in range(4)}
        run_world(1, _ring)
        assert threading.active_count() == baseline

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_starts_its_own_workers(self):
        run_world(4, _ring)  # the parent's pool is not empty
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            ok = False
            try:
                ok = run_world(4, _ring, timeout=5).returns == [3, 0, 1, 2]
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
