"""Workflow restart policies: retry after a crash, or amputate and
continue with the independent part of the task graph."""

import pytest

from repro.faults import CrashRule, FaultPlan
from repro.simmpi import RankFailure
from repro.workflow import RestartPolicy, Workflow


def compute_body(seconds=1.0, ret="ok"):
    def body(ctx):
        ctx.comm.compute(seconds)
        return f"{ctx.name}:{ret}"

    return body


def pipe_pair(wf, prod, cons):
    """Producer sends one message to consumer over their link."""
    def p_body(ctx):
        ctx.comm.compute(1.0)
        ctx.intercomm(cons).send({"from": ctx.name}, dest=0, tag=1)
        return "sent"

    def c_body(ctx):
        msg, _ = ctx.intercomm(prod).recv(source=0, tag=1)
        return msg["from"]

    wf.add_task(prod, 1, p_body)
    wf.add_task(cons, 1, c_body)
    wf.add_link(prod, cons)


def test_default_policy_reraises_rank_failure():
    wf = Workflow()
    wf.add_task("t", 2, compute_body())
    plan = FaultPlan(0, crashes=[CrashRule(rank=1, at_vtime=0.5)])
    with pytest.raises(RankFailure) as exc_info:
        wf.run(faults=plan)
    assert exc_info.value.rank == 1


def test_retry_recovers_from_transient_crash():
    # times=1: the crash fires on attempt 1 and the retry runs clean
    # (the plan instance is carried across attempts on purpose).
    wf = Workflow()
    wf.add_task("t", 2, compute_body())
    plan = FaultPlan(0, crashes=[CrashRule(rank=1, at_vtime=0.5,
                                           times=1)])
    res = wf.run(faults=plan, restart=RestartPolicy(max_retries=2))
    assert res.attempts == 2
    assert res.failed_tasks == ()
    assert res.returns["t"] == ["t:ok", "t:ok"]
    assert plan.injected_counts()["crash"] == 1
    attempt = res.obs.series.get("workflow.attempt")
    assert attempt is not None and attempt.points()[0][1].vmax == 2


def test_retries_exhausted_reraises():
    wf = Workflow()
    wf.add_task("t", 2, compute_body())
    plan = FaultPlan(0, crashes=[CrashRule(rank=1, at_vtime=0.5,
                                           times=100)])
    with pytest.raises(RankFailure):
        wf.run(faults=plan, restart=RestartPolicy(max_retries=2))
    # Each of the 3 attempts (first + 2 retries) crashed.
    assert plan.injected_counts()["crash"] == 3


def test_continue_drops_failed_component_and_runs_rest():
    # Tasks p1,c1,p2,c2 get world ranks 0..3; rank 2 (p2) is
    # persistently faulty. The p2->c2 chain is amputated and the
    # independent p1->c1 chain still completes.
    wf = Workflow()
    pipe_pair(wf, "p1", "c1")
    pipe_pair(wf, "p2", "c2")
    plan = FaultPlan(0, crashes=[CrashRule(rank=2, at_vtime=0.5,
                                           times=100)])
    res = wf.run(faults=plan,
                 restart=RestartPolicy(on_exhausted="continue"))
    assert res.failed_tasks == ("c2", "p2")
    assert res.attempts == 2
    assert res.returns == {"p1": ["sent"], "c1": ["p1"]}


def test_continue_with_all_tasks_connected_reraises():
    # One connected graph: amputating the failed component leaves
    # nothing, so the failure propagates.
    wf = Workflow()
    pipe_pair(wf, "p1", "c1")
    plan = FaultPlan(0, crashes=[CrashRule(rank=0, at_vtime=0.5,
                                           times=100)])
    with pytest.raises(RankFailure):
        wf.run(faults=plan,
               restart=RestartPolicy(on_exhausted="continue"))


def test_continue_also_retries_the_survivors():
    # Retries apply per task subset: the survivor subset gets its own
    # retry budget after amputation.
    wf = Workflow()
    pipe_pair(wf, "p1", "c1")
    pipe_pair(wf, "p2", "c2")
    plan = FaultPlan(0, crashes=[
        CrashRule(rank=2, at_vtime=0.5, times=1),   # p2, transient
    ])
    res = wf.run(faults=plan, restart=RestartPolicy(max_retries=1))
    # The transient crash is retried before any amputation is needed.
    assert res.attempts == 2
    assert res.failed_tasks == ()
    assert res.returns["c2"] == ["p2"]


def test_restart_policy_validates_on_exhausted():
    with pytest.raises(ValueError, match="on_exhausted"):
        RestartPolicy(on_exhausted="explode")


def test_crashed_consumer_does_not_hang_blocked_producer():
    # The consumer dies while the producer sits in send/recv: the
    # producer must be torn down, not deadlocked, and the typed error
    # must identify the consumer.
    wf = Workflow()
    pipe_pair(wf, "p1", "c1")
    plan = FaultPlan(0, crashes=[CrashRule(rank=1, at_vtime=0.0,
                                           times=100)])
    with pytest.raises(RankFailure) as exc_info:
        wf.run(faults=plan, timeout=10.0)
    assert exc_info.value.rank == 1
