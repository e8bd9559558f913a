"""Timeline/communication-matrix views of the always-on causal record."""

import numpy as np

from repro.obs import ObsContext
from repro.simmpi import Engine
from repro.tools import communication_matrix, render_matrix, render_timeline
from repro.workflow import Workflow


def recorded_run():
    eng = Engine(3)

    def main(comm):
        if comm.rank == 0:
            comm.send(b"x" * 100, dest=1, tag=1)
            comm.send(b"y" * 50, dest=2, tag=2)
        elif comm.rank == 1:
            comm.recv(source=0)
        else:
            comm.recv(source=0)
        comm.barrier()

    eng.run(main)
    return eng


def send(obs, t, src, dst, nbytes=10, msg_id=None):
    """Hand-record one posted message; returns its id."""
    msg_id = len(obs.causal.messages()) if msg_id is None else msg_id
    obs.causal.post(msg_id, src, dst, 0, 1, nbytes, t, t)
    return msg_id


def recv(obs, t, src, dst, nbytes=10):
    """Hand-record one message posted and received at ``t``."""
    obs.causal.receive(send(obs, t, src, dst, nbytes), t, t)


def coll(obs, t, ranks=(0,), nbytes=0):
    """Hand-record one completed collective."""
    obs.causal.collective("barrier", 1, nbytes, {r: t for r in ranks},
                          t, t)


class TestCausalRecord:
    def test_events_recorded(self):
        causal = recorded_run().obs.causal
        assert len(causal.messages()) == 2
        assert len(causal.edges()) == 2
        barrier, = causal.collectives()
        assert sorted(barrier.enter_clocks) == [0, 1, 2]  # each rank

    def test_events_carry_world_ranks_and_bytes(self):
        causal = recorded_run().obs.causal
        assert {(p.src, p.dst, p.nbytes) for p in causal.messages()} == {
            (0, 1, 100), (0, 2, 50)
        }
        assert all(e.src == 0 for e in causal.edges())

    def test_posts_ordered_by_sender_stream(self):
        posts = recorded_run().obs.causal.messages()
        assert [p.t_post for p in posts] == sorted(p.t_post for p in posts)

    def test_workflow_record_passthrough(self):
        def a(ctx):
            ctx.intercomm("b").send(b"hello", dest=0)

        def b(ctx):
            ctx.intercomm("a").recv()

        wf = Workflow()
        wf.add_task("a", 1, a)
        wf.add_task("b", 1, b)
        wf.add_link("a", "b")
        res = wf.run()
        assert res.obs.causal.messages()
        # Intercomm recv resolves the sender's *world* rank.
        edge = res.obs.causal.edges()[0]
        assert (edge.dst, edge.src) == (1, 0)

    def test_solo_workflow_has_no_messages(self):
        wf = Workflow()
        wf.add_task("solo", 1, lambda ctx: None)
        assert wf.run().obs.causal.messages() == []


class TestTimeline:
    def test_render_contains_lanes_and_marks(self):
        eng = recorded_run()
        out = render_timeline(eng.obs, 3, width=40, title="T")
        assert out.startswith("T\n")
        assert "rank   0 |" in out and "rank   2 |" in out
        assert "s" in out and "r" in out and "C" in out

    def test_three_rank_run_renders_as_before(self):
        # Pinned rendering: sends at t_post, receives at t_recv, one
        # collective mark per participant at the common exit clock.
        assert render_timeline(recorded_run().obs, 3, width=40,
                               title="T") == (
            "T\n"
            "rank   0 |    s   s                              C|\n"
            "rank   1 |           r                           C|\n"
            "rank   2 |                r                      C|\n"
            "         0         virtual time         1.78e-05s\n"
            "         s=send r=recv C=collective *=mixed\n"
        )

    def test_render_empty(self):
        assert "no events" in render_timeline(ObsContext(), 2)

    def test_mixed_marker(self):
        obs = ObsContext()
        send(obs, 0.5, 0, 1)
        recv(obs, 0.5, 1, 0)
        coll(obs, 1.0)
        out = render_timeline(obs, 1, width=10)
        assert "*" in out

    def test_mixing_is_order_independent(self):
        # A collective mark sharing a cell with a send mixes to "*"
        # whichever was recorded first (edges arrive in thread order).
        a, b = ObsContext(), ObsContext()
        coll(a, 0.0)
        send(a, 0.0, 0, 1)
        coll(a, 1.0)
        send(b, 0.0, 0, 1)
        coll(b, 1.0)
        coll(b, 0.0)
        assert render_timeline(a, 2, width=10) == \
            render_timeline(b, 2, width=10)
        assert "*" in render_timeline(a, 2, width=10)

    def test_rank_beyond_nprocs_grows_lanes(self):
        # Regression: events from a larger world than the caller's
        # nprocs used to crash (IndexError) or mislabel lanes.
        obs = ObsContext()
        send(obs, 0.5, 5, 1)
        coll(obs, 1.0)
        out = render_timeline(obs, 2, width=20)
        assert "rank   5 |" in out
        lane5 = [ln for ln in out.splitlines()
                 if ln.startswith("rank   5")][0]
        assert "s" in lane5

    def test_spans_render_as_intervals(self):
        obs = ObsContext()
        obs.spans.end(obs.spans.begin(0, "lowfive.index", "lowfive", 0.0), 0.5)
        obs.spans.end(obs.spans.begin(1, "pfs.write", "pfs", 0.5), 1.0)
        coll(obs, 1.0)
        out = render_timeline(obs, 2, width=20, spans=obs.spans.spans())
        assert "LLL" in out and "PPP" in out  # painted extents
        assert "C" in out                     # points drawn on top
        assert "L=lowfive" in out             # legend extended

    def test_spans_are_opt_in(self):
        obs = ObsContext()
        obs.spans.end(obs.spans.begin(0, "lowfive.index", "lowfive", 0.0), 0.5)
        coll(obs, 1.0)
        assert "L" not in render_timeline(obs, 1, width=20).split("\n")[0]

    def test_unknown_span_category_mark(self):
        obs = ObsContext()
        obs.spans.end(obs.spans.begin(0, "custom", "mystery", 0.0), 1.0)
        assert "=" in render_timeline(obs, 1, width=12,
                                      spans=obs.spans.spans())


class TestMatrix:
    def test_matrix_counts_bytes(self):
        eng = recorded_run()
        m = communication_matrix(eng.obs, 3)
        assert m[0, 1] == 100 and m[0, 2] == 50
        assert m.sum() == 150

    def test_collectives_excluded(self):
        obs = ObsContext()
        coll(obs, 0.1, nbytes=999)
        m = communication_matrix(obs, 2)
        assert m.sum() == 0

    def test_matrix_grows_beyond_nprocs(self):
        obs = ObsContext()
        send(obs, 0.1, 4, 1)
        m = communication_matrix(obs, 2)
        assert m.shape == (5, 5)
        assert m[4, 1] == 10

    def test_fig5_matrix_accounts_for_every_message(self):
        # The causal record is complete: one post per message, and the
        # matrix carries every payload byte the engine counted.
        from repro.bench.drivers import lowfive_workflow
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore
        from repro.synth import SyntheticWorkload

        res = lowfive_workflow(
            2, 1, SyntheticWorkload(512, 256), THETA_KNL, "memory",
            PFSStore()).run(model=THETA_KNL.net, timeout=240.0)
        assert all(res.returns["consumer"])  # consumer-side validation
        assert len(res.obs.causal.messages()) == res.messages
        assert communication_matrix(res.obs, 3).sum() == res.bytes_sent

    def test_render_matrix_totals(self):
        m = np.array([[0, 100], [25, 0]])
        out = render_matrix(m, title="bytes")
        assert out.startswith("bytes")
        assert "125" in out  # grand total
        assert "100" in out and "25" in out
