"""Workflow runner: allocate ranks, wire intercomms, run the task graph."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simmpi import Engine, Intercomm, NetworkModel, RankFailure
from repro.workflow.task import Task, TaskContext


@dataclass(frozen=True)
class RestartPolicy:
    """What the runner does when a simulated rank crashes.

    Attributes
    ----------
    max_retries:
        Whole-workflow reruns allowed after a
        :class:`~repro.simmpi.RankFailure` (the fault plan is carried
        over, so a ``times=1`` crash fires once and the retry runs
        clean).
    on_exhausted:
        ``"raise"`` re-raises the failure once retries are spent;
        ``"continue"`` drops the failed task and everything connected
        to it, then reruns the independent remainder of the graph.
    """

    max_retries: int = 0
    on_exhausted: str = "raise"

    def __post_init__(self):
        if self.on_exhausted not in ("raise", "continue"):
            raise ValueError(
                "on_exhausted must be 'raise' or 'continue'"
            )


@dataclass
class WorkflowResult:
    """Result of a workflow run.

    Attributes
    ----------
    vtime:
        Simulated completion time (max over every rank of every task).
    returns:
        ``{task name: [per-rank return values]}``.
    messages, bytes_sent:
        Total traffic (point-to-point) across the whole job.
    """

    vtime: float
    returns: dict = field(default_factory=dict)
    messages: int = 0
    bytes_sent: int = 0
    #: The run's :class:`~repro.obs.ObsContext` (metrics, spans,
    #: causal trace, series) -- always populated.
    obs: object = None
    #: Final virtual clock of every rank of the successful attempt.
    clocks: list = field(default_factory=list)
    #: How many runs it took (1 = no restart was needed).
    attempts: int = 1
    #: Tasks dropped by a ``RestartPolicy(on_exhausted="continue")``.
    failed_tasks: tuple = ()

    def causal_report(self, tol: float = 1e-9):
        """Causal analysis of the run: critical path, wait-state
        classification, per-rank conservation check.

        Returns a :class:`~repro.obs.critpath.CausalReport`; ``tol`` is
        the conservation tolerance in virtual seconds.
        """
        from repro.obs.critpath import analyze

        if self.obs is None or not self.clocks:
            raise ValueError(
                "causal_report() needs the run's obs and clocks"
            )
        return analyze(self.obs, self.clocks, tol=tol)

    def run_record(self, workload: str, **kw):
        """Distill this run into a ledger
        :class:`~repro.obs.ledger.RunRecord` (see
        :func:`repro.obs.ledger.record_from_result` for the keyword
        arguments: ``mode``, ``params``, ``seed``, ``costs``,
        ``wall_seconds``, ``extra``...)."""
        from repro.obs.ledger import record_from_result

        return record_from_result(self, workload, **kw)


class Workflow:
    """A directed graph of tasks linked producer -> consumer.

    Ranks are allocated contiguously in task-insertion order (like a
    Henson job script listing executables with process counts). Links
    create intercommunicators; arbitrary fan-in/fan-out is allowed
    (paper Sec. I: "more than one task can produce ... and more than one
    task can consume").
    """

    def __init__(self):
        self._tasks: list[Task] = []
        self._links: list[tuple[str, str]] = []

    def add_task(self, name: str, nprocs: int, main) -> None:
        """Declare a task; ``main(ctx)`` runs on each of its ranks."""
        if any(t.name == name for t in self._tasks):
            raise ValueError(f"duplicate task name {name!r}")
        self._tasks.append(Task(name, nprocs, main))

    def add_link(self, producer: str, consumer: str) -> None:
        """Declare a producer -> consumer link (an intercommunicator)."""
        names = {t.name for t in self._tasks}
        for n in (producer, consumer):
            if n not in names:
                raise ValueError(f"unknown task {n!r}")
        if producer == consumer:
            raise ValueError("a task cannot link to itself")
        self._links.append((producer, consumer))

    @property
    def total_procs(self) -> int:
        """Total simulated ranks across all tasks."""
        return sum(t.nprocs for t in self._tasks)

    def run(self, model: NetworkModel | None = None,
            timeout: float = 60.0, faults=None,
            restart: RestartPolicy | None = None,
            obs=None) -> WorkflowResult:
        """Execute the workflow on a fresh simulated machine.

        Every communication event lands in ``WorkflowResult.obs`` (see
        :mod:`repro.tools.timeline`). ``faults`` installs a
        :class:`~repro.faults.FaultPlan` on the machine; ``restart``
        governs recovery when an injected crash kills a rank (default:
        the :class:`~repro.simmpi.RankFailure` propagates). ``obs``
        overrides the machine's observability context -- pass a
        :class:`~repro.obs.noop.NullObsContext` to run with telemetry
        disabled (overhead measurement).
        """
        if not self._tasks:
            raise ValueError("no tasks declared")
        policy = restart if restart is not None else RestartPolicy()
        include = [t.name for t in self._tasks]
        failed_tasks: list[str] = []
        attempts = 0
        tries_here = 0  # runs of the *current* task subset
        while True:
            attempts += 1
            tries_here += 1
            try:
                result = self._run_once(include, model, timeout, faults,
                                        attempts, obs)
            except RankFailure as exc:
                if tries_here <= policy.max_retries:
                    continue
                if policy.on_exhausted != "continue":
                    raise
                dead = self._component_of(include,
                                          self._task_of_rank(include,
                                                             exc.rank))
                failed_tasks.extend(sorted(dead))
                include = [n for n in include if n not in dead]
                if not include:
                    raise  # nothing independent left to salvage
                tries_here = 0
                continue
            result.attempts = attempts
            result.failed_tasks = tuple(failed_tasks)
            return result

    # -- restart support ---------------------------------------------------

    def _task_of_rank(self, include: list, world_rank: int) -> str:
        """Task owning ``world_rank`` under the ``include`` allocation."""
        start = 0
        for t in self._tasks:
            if t.name not in include:
                continue
            if start <= world_rank < start + t.nprocs:
                return t.name
            start += t.nprocs
        raise ValueError(f"rank {world_rank} belongs to no task")

    def _component_of(self, include: list, name: str) -> set:
        """Tasks reachable from ``name`` over links (either direction),
        restricted to ``include``: losing one task poisons everything it
        feeds or is fed by, but independent chains survive."""
        alive = set(include)
        component = {name}
        frontier = [name]
        while frontier:
            cur = frontier.pop()
            for a, b in self._links:
                for nxt in ((b,) if a == cur else ()) + \
                        ((a,) if b == cur else ()):
                    if nxt in alive and nxt not in component:
                        component.add(nxt)
                        frontier.append(nxt)
        return component

    def _run_once(self, include: list, model, timeout: float, faults,
                  attempt: int, obs=None) -> WorkflowResult:
        """One machine run of the tasks named in ``include``."""
        tasks = [t for t in self._tasks if t.name in include]
        engine = Engine(sum(t.nprocs for t in tasks), model=model,
                        timeout=timeout, faults=faults, obs=obs)
        engine.obs.series.record("workflow.attempt", 0.0, attempt)

        # Contiguous rank ranges per task.
        ranges: dict[str, list[int]] = {}
        start = 0
        for t in tasks:
            ranges[t.name] = list(range(start, start + t.nprocs))
            engine.obs.set_task(t.name, ranges[t.name])
            start += t.nprocs

        # One intercomm pair per link, shared objects across threads.
        links: dict[str, dict[str, Intercomm]] = {t.name: {} for t in tasks}
        for prod, cons in self._links:
            if prod not in ranges or cons not in ranges:
                continue
            p_view, c_view = Intercomm.create(
                engine, ranges[prod], ranges[cons]
            )
            links[prod][cons] = p_view
            links[cons][prod] = c_view

        task_of_rank: dict[int, Task] = {}
        for t in tasks:
            for r in ranges[t.name]:
                task_of_rank[r] = t

        contexts: dict[str, TaskContext] = {}

        def main(world):
            me = task_of_rank[world.rank]
            color = tasks.index(me)
            local = world.split(color)
            if world.rank == ranges[me.name][0]:
                contexts[me.name] = TaskContext(
                    me, local, world, links[me.name]
                )
            world.barrier()  # all contexts constructed
            ctx = contexts[me.name]
            # Each rank re-binds the local comm (same shared object works
            # for all ranks of the task; split returned equivalent comms).
            with engine.obs.span(world, f"task.{me.name}", cat="workflow",
                                 task=me.name, task_rank=ctx.rank):
                return me.main(ctx)

        res = engine.run(main)
        returns = {
            t.name: [res.returns[r] for r in ranges[t.name]]
            for t in tasks
        }
        return WorkflowResult(
            vtime=res.vtime,
            returns=returns,
            messages=res.messages,
            bytes_sent=res.bytes_sent,
            obs=engine.obs,
            clocks=res.clocks,
        )
