"""Critical path: exact telescoping walk, breakdowns, full reports."""

import pytest

from repro.obs import ObsContext
from repro.obs.causal import RankAccount
from repro.obs.critpath import (
    CATEGORIES,
    analyze,
    critical_path,
    imbalance,
)
from repro.simmpi import Engine


def _edge(obs, t_recv_start=0.0, t_recv=0.0, **kw):
    post = dict(msg_id=1, src=0, dst=1, tag=5, comm_id=1, nbytes=8,
                t_post=0.0, t_arrival=0.0)
    post.update(kw)
    obs.causal.post(**post)
    obs.causal.receive(post["msg_id"], t_recv_start, t_recv)


class TestSyntheticWalks:
    def test_single_rank_pure_compute(self):
        cp = critical_path(ObsContext(), [5.0])
        assert cp.makespan == 5.0
        seg, = cp.segments
        assert (seg.t0, seg.t1, seg.rank) == (0.0, 5.0, 0)
        assert seg.category == "compute"
        assert cp.residual == 0.0

    def test_empty_run(self):
        cp = critical_path(ObsContext(), [])
        assert cp.makespan == 0.0 and cp.segments == ()
        assert critical_path(ObsContext(), [0.0]).segments == ()

    def test_late_recv_hops_to_sender(self):
        obs = ObsContext()
        # Sender (rank 0) works until 3.0, message lands at 4.0.
        _edge(obs, t_post=3.0, t_arrival=4.0, t_recv_start=0.0,
              t_recv=4.0)
        cp = critical_path(obs, [3.0, 4.0])
        kinds = [s.kind for s in cp.segments]
        assert kinds == ["local", "wire", "recv"]
        wire = cp.segments[1]
        assert wire.rank == 0  # wire time is resident on the sender
        assert (wire.t0, wire.t1) == (3.0, 4.0)
        assert cp.segments[0].rank == 0
        assert cp.residual == 0.0
        # Path seconds by rank: 3 on the sender + 1 wire; the receiver
        # contributes only the zero-width delivery point.
        assert cp.rank_residence() == {0: 4.0, 1: 0.0}

    def test_early_recv_stays_on_receiver(self):
        obs = ObsContext()
        _edge(obs, t_post=0.0, t_arrival=1.0, t_recv_start=2.0,
              t_recv=2.5)
        cp = critical_path(obs, [0.5, 2.5])
        assert [s.kind for s in cp.segments] == ["local", "recv"]
        assert all(s.rank == 1 for s in cp.segments)
        assert cp.residual == 0.0

    def test_collective_hops_to_straggler(self):
        obs = ObsContext()
        obs.causal.collective("barrier", 1, 0, {0: 1.0, 1: 3.0},
                              3.0, 3.5)
        cp = critical_path(obs, [3.5, 3.5])
        assert [s.kind for s in cp.segments] == ["local", "collective"]
        local, coll = cp.segments
        assert local.rank == 1  # the straggler's work is on the path
        assert (local.t0, local.t1) == (0.0, 3.0)
        assert "straggler rank 1" in coll.detail
        assert cp.residual == 0.0

    def test_chain_recv_then_collective(self):
        obs = ObsContext()
        obs.causal.collective("barrier", 1, 0, {0: 1.0, 1: 2.0},
                              2.0, 2.2)
        # After the barrier, rank 1 sends to rank 0; rank 0 blocked.
        _edge(obs, src=1, dst=0, t_post=3.2, t_arrival=3.4,
              t_recv_start=2.2, t_recv=3.4)
        cp = critical_path(obs, [3.4, 3.2])
        assert [s.kind for s in cp.segments] == \
            ["local", "collective", "local", "wire", "recv"]
        assert cp.residual == 0.0
        assert cp.total == pytest.approx(3.4)

    def test_category_split_by_deepest_span(self):
        obs = ObsContext()
        obs.spans.add("task.sim", "workflow", 0, 0.0, 5.0)
        obs.spans.add("pfs.write", "pfs", 0, 1.0, 2.0)
        obs.spans.add("lowfive.index", "lowfive", 0, 3.0, 4.5,
                      {"phase": "index"})
        cp = critical_path(obs, [5.0])
        bd = cp.category_breakdown()
        assert set(bd) == set(CATEGORIES)
        assert bd["pfs"] == pytest.approx(1.0)
        assert bd["lowfive"] == pytest.approx(1.5)
        assert bd["compute"] == pytest.approx(2.5)
        assert sum(bd.values()) == pytest.approx(cp.makespan)
        assert cp.phase_breakdown() == {"index": pytest.approx(1.5)}
        shares = cp.category_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_top_segments_sorted_descending(self):
        obs = ObsContext()
        _edge(obs, t_post=3.0, t_arrival=4.0, t_recv_start=0.0,
              t_recv=4.0)
        cp = critical_path(obs, [3.0, 4.0])
        top = cp.top_segments(2)
        assert len(top) == 2
        assert top[0].duration >= top[1].duration


class TestImbalance:
    def test_balanced_is_zero(self):
        a, b = RankAccount(0), RankAccount(1)
        a.compute = b.compute = 2.0
        assert imbalance({0: a, 1: b}, 2) == pytest.approx(0.0)

    def test_skew(self):
        a, b = RankAccount(0), RankAccount(1)
        a.compute, b.compute = 3.0, 1.0
        assert imbalance({0: a, 1: b}, 2) == pytest.approx(0.5)

    def test_degenerate(self):
        assert imbalance({}, 0) == 0.0
        assert imbalance({}, 4) == 0.0


class TestEngineExactness:
    def _run(self, nprocs, main):
        eng = Engine(nprocs)
        res = eng.run(main)
        return eng, res

    def test_residual_zero_on_mixed_program(self):
        def main(world):
            world.compute(0.05 * (world.rank + 1))
            world.barrier()
            if world.rank == 0:
                world.send(b"x" * 4096, 1, tag=9)
            elif world.rank == 1:
                world.recv(source=0, tag=9)
            world.allgather(world.rank)

        eng, res = self._run(3, main)
        cp = critical_path(eng.obs, res.clocks)
        assert abs(cp.residual) <= 1e-9
        # Segments telescope: each starts where the previous ended.
        for a, b in zip(cp.segments, cp.segments[1:]):
            assert a.t1 == pytest.approx(b.t0, abs=1e-12) or \
                a.t1 >= b.t0  # wire hop lands at the sender's post time

    def test_analyze_bundles_everything(self):
        def main(world):
            world.compute(0.1 if world.rank else 0.3)
            world.barrier()

        eng, res = self._run(2, main)
        rep = analyze(eng.obs, res.clocks)
        assert rep.conservation.ok
        assert abs(rep.path.residual) <= 1e-9
        assert rep.makespan == max(res.clocks)
        assert sum(rep.shares.values()) == pytest.approx(1.0)
        assert rep.wait_by_category()  # rank 1 waited on the straggler
        s = rep.summary()
        assert s["conservation_ok"] is True
        d = rep.to_dict()
        assert len(d["segments"]) == len(rep.path.segments)
        import json

        json.dumps(d)  # JSON-able end to end


class TestWorkflowReport:
    def test_causal_report_via_workflow(self):
        from repro.workflow import Workflow

        def producer(ctx):
            ctx.comm.compute(0.01)
            ctx.intercomm("ana").send(b"data", 0, tag=1)
            return True

        def ana(ctx):
            ctx.intercomm("sim").recv(source=0, tag=1)
            return True

        wf = Workflow()
        wf.add_task("sim", 1, producer)
        wf.add_task("ana", 1, ana)
        wf.add_link("sim", "ana")
        res = wf.run()
        rep = res.causal_report()
        assert rep.conservation.ok
        assert abs(rep.path.residual) <= 1e-9

    def test_causal_report_needs_obs(self):
        from repro.workflow.runner import WorkflowResult

        with pytest.raises(ValueError):
            WorkflowResult(vtime=0.0).causal_report()


class TestFig5Attribution:
    """The acceptance criterion: fig5-shaped workloads, both modes."""

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.bench.drivers import _lowfive_wf
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore
        from repro.synth import SyntheticWorkload

        wl = SyntheticWorkload(grid_points_per_proc=3000,
                               particles_per_proc=3000)
        out = {}
        for mode in ("memory", "file"):
            wf = _lowfive_wf(2, 1, wl, THETA_KNL, mode, PFSStore())
            res = wf.run(model=THETA_KNL.net, timeout=120.0)
            out[mode] = res.causal_report()
        return out

    def test_exact_and_conserved_in_both_modes(self, reports):
        for rep in reports.values():
            assert abs(rep.path.residual) <= 1e-9
            rep.conservation.raise_if_violated()

    def test_file_mode_is_pfs_dominated(self, reports):
        rep = reports["file"]
        assert rep.path.category_shares()["pfs"] > 0.5
        assert rep.wait_by_category().get("pfs-contention", 0.0) > 0.0

    def test_memory_mode_never_touches_the_pfs(self, reports):
        rep = reports["memory"]
        shares = rep.path.category_shares()
        assert shares["pfs"] < 0.05
        assert shares["lowfive"] + shares["simmpi"] > 0.5
        assert "pfs-contention" not in rep.wait_by_category()

    def test_phase_attribution_present(self, reports):
        phases = reports["memory"].path.phase_breakdown()
        assert phases  # index/serve/query time shows up on the path
