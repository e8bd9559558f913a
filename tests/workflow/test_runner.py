"""Workflow runner tests."""

import pytest

from repro.workflow import Workflow


def test_single_task():
    wf = Workflow()
    wf.add_task("solo", 3, lambda ctx: ctx.rank * 10)
    res = wf.run()
    assert res.returns == {"solo": [0, 10, 20]}


def test_task_sees_own_comm_and_name():
    def main(ctx):
        return (ctx.name, ctx.rank, ctx.size, ctx.comm.allgather(ctx.rank))

    wf = Workflow()
    wf.add_task("a", 2, main)
    wf.add_task("b", 3, main)
    res = wf.run()
    assert res.returns["a"] == [("a", 0, 2, [0, 1]), ("a", 1, 2, [0, 1])]
    assert res.returns["b"][0] == ("b", 0, 3, [0, 1, 2])


def test_link_intercomm_exchange():
    def left(ctx):
        ctx.intercomm("right").send(f"hi-{ctx.rank}", dest=0)

    def right(ctx):
        if ctx.rank == 0:
            inter = ctx.intercomm("left")
            got = sorted(inter.recv(source=i)[0] for i in range(2))
            assert got == ["hi-0", "hi-1"]

    wf = Workflow()
    wf.add_task("left", 2, left)
    wf.add_task("right", 2, right)
    wf.add_link("left", "right")
    wf.run()


def test_links_property_and_missing_link():
    def main(ctx):
        assert sorted(ctx.links) == ["b"] if ctx.name == "a" else ["a"]
        with pytest.raises(KeyError):
            ctx.intercomm("nope")
        return True

    wf = Workflow()
    wf.add_task("a", 1, main)
    wf.add_task("b", 1, main)
    wf.add_link("a", "b")
    res = wf.run()
    assert res.returns == {"a": [True], "b": [True]}


def test_singleton_shared_per_task():
    created = []

    def main(ctx):
        obj = ctx.singleton("thing", lambda: created.append(ctx.name) or
                            {"owner": ctx.name})
        return id(obj)

    wf = Workflow()
    wf.add_task("a", 3, main)
    wf.add_task("b", 2, main)
    res = wf.run()
    assert len(set(res.returns["a"])) == 1
    assert len(set(res.returns["b"])) == 1
    assert res.returns["a"][0] != res.returns["b"][0]
    assert sorted(created) == ["a", "b"]


def test_singleton_factory_that_blocks_raises():
    """A factory that waits in simmpi lets a second rank ask for the
    same key before the object exists: that rank gets a RuntimeError
    naming the key instead of a second object or a hang."""
    def main(ctx):
        def factory():
            ctx.comm.barrier()
            return object()

        return ctx.singleton("shared-vol", factory)

    wf = Workflow()
    wf.add_task("a", 2, main)
    with pytest.raises(RuntimeError, match="'shared-vol'"):
        wf.run(timeout=5)


def test_validation_errors():
    wf = Workflow()
    wf.add_task("a", 1, lambda ctx: None)
    with pytest.raises(ValueError):
        wf.add_task("a", 1, lambda ctx: None)
    with pytest.raises(ValueError):
        wf.add_link("a", "missing")
    with pytest.raises(ValueError):
        wf.add_link("a", "a")
    with pytest.raises(ValueError):
        wf.add_task("bad", 0, lambda ctx: None)
    with pytest.raises(ValueError):
        Workflow().run()


def test_total_procs_and_traffic_stats():
    def chatty(ctx):
        ctx.intercomm("sink").send(b"x" * 100, dest=0)

    def sink(ctx):
        for _ in range(4):
            ctx.intercomm("src").recv()

    wf = Workflow()
    wf.add_task("src", 4, chatty)
    wf.add_task("sink", 1, sink)
    wf.add_link("src", "sink")
    assert wf.total_procs == 5
    res = wf.run()
    assert res.messages == 4
    assert res.bytes_sent == 400
    assert res.vtime > 0


def test_three_stage_pipeline():
    def stage1(ctx):
        ctx.intercomm("stage2").send(ctx.rank + 1, dest=0)

    def stage2(ctx):
        total = sum(
            ctx.intercomm("stage1").recv(source=i)[0] for i in range(2)
        )
        ctx.intercomm("stage3").send(total * 2, dest=0)

    def stage3(ctx):
        val, _ = ctx.intercomm("stage2").recv(source=0)
        return val

    wf = Workflow()
    wf.add_task("stage1", 2, stage1)
    wf.add_task("stage2", 1, stage2)
    wf.add_task("stage3", 1, stage3)
    wf.add_link("stage1", "stage2")
    wf.add_link("stage2", "stage3")
    res = wf.run()
    assert res.returns["stage3"] == [6]
