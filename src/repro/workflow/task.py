"""Workflow task descriptions and per-rank execution context."""

from __future__ import annotations

from dataclasses import dataclass

#: Placeholder held by a singleton whose factory is still running.
_BUILDING = object()


@dataclass
class Task:
    """One task (separate 'executable') of the workflow.

    Attributes
    ----------
    name:
        Unique task name, used to address links.
    nprocs:
        Number of simulated MPI processes allocated to the task.
    main:
        ``main(ctx)`` run on every rank of the task.
    """

    name: str
    nprocs: int
    main: object

    def __post_init__(self):
        if self.nprocs < 1:
            raise ValueError(f"task {self.name!r} needs nprocs >= 1")


class TaskContext:
    """What a task rank sees: its comm, its links, shared singletons."""

    def __init__(self, task: Task, comm, world, links: dict):
        self.task = task
        #: This task's local communicator.
        self.comm = comm
        #: The whole-job communicator (rarely needed; Henson-style jobs
        #: keep tasks isolated).
        self.world = world
        self._links = links
        self._singletons = {}

    @property
    def name(self) -> str:
        """This task's name."""
        return self.task.name

    @property
    def rank(self) -> int:
        """This rank within the task."""
        return self.comm.rank

    @property
    def size(self) -> int:
        """Number of ranks in the task."""
        return self.comm.size

    def intercomm(self, other: str):
        """The intercommunicator linking this task with task ``other``."""
        try:
            return self._links[other]
        except KeyError:
            raise KeyError(
                f"task {self.task.name!r} has no link to {other!r}; "
                f"available: {sorted(self._links)}"
            ) from None

    @property
    def links(self) -> dict:
        """All links of this task, keyed by peer task name."""
        return dict(self._links)

    def singleton(self, key: str, factory):
        """Create-once-per-task shared object (e.g. the task's VOL).

        Every rank calls this; the first caller runs ``factory()`` and
        all ranks get the same object back. ``factory`` must not block
        in simmpi: a rank asking for ``key`` while it is still being
        built gets a :class:`RuntimeError`.
        """
        if key not in self._singletons:
            self._singletons[key] = _BUILDING
            self._singletons[key] = factory()
        obj = self._singletons[key]
        if obj is _BUILDING:
            raise RuntimeError(
                f"singleton {key!r} requested while its factory is still "
                "running (a factory must not block in simmpi)"
            )
        return obj

    # -- streaming ---------------------------------------------------------

    def stream_producer(self, other: str, name: str, vol, config=None):
        """A :class:`~repro.stream.StreamProducer` publishing stream
        ``name`` to task ``other`` over this task's link.

        ``other`` may be a list of peer task names to fan the stream
        out to several consumer tasks.
        """
        from repro.stream import StreamProducer

        peers = [other] if isinstance(other, str) else list(other)
        inters = [self.intercomm(p) for p in peers]
        return StreamProducer(vol, self.comm, inters, name, config=config)

    def stream_consumer(self, other: str, name: str, vol, config=None):
        """A :class:`~repro.stream.StreamConsumer` subscribed to stream
        ``name`` published by task ``other``."""
        from repro.stream import StreamConsumer

        return StreamConsumer(vol, self.comm, self.intercomm(other),
                              name, config=config)
