"""Exception types raised by the simulated MPI runtime."""


class SimMPIError(Exception):
    """Base class for all simmpi errors."""


class DeadlockError(SimMPIError):
    """No rank can make progress.

    Raised at once when every live rank is blocked and nothing queued
    can wake one (e.g. mismatched send/recv or a rank that skipped a
    collective), with the wait-for explanation.
    """


class RunTimeout(SimMPIError):
    """The run outlived the engine's real-time bound.

    Some rank body held the baton past ``Engine(timeout=)`` seconds:
    the run is too slow (or stuck outside simmpi), not deadlocked.
    """


class WorkerAborted(SimMPIError):
    """Another rank raised an exception; this rank is being torn down.

    The engine re-raises the *original* exception from :meth:`Engine.run`,
    so user code normally never needs to catch this.
    """


class CommMismatchError(SimMPIError):
    """An operation addressed a rank outside the communicator."""


class RankFailure(SimMPIError):
    """A simulated rank crashed (fault injection).

    Raised on the crashing rank when its virtual clock reaches the
    :class:`~repro.faults.CrashRule` time; every peer is woken and torn
    down (via :class:`WorkerAborted`) instead of hanging, and
    :meth:`Engine.run` re-raises this original failure so callers see a
    typed error identifying the dead rank.
    """

    def __init__(self, rank: int, vtime: float = 0.0):
        super().__init__(
            f"rank {rank} crashed at virtual time {vtime:.6f}s"
        )
        #: World rank that crashed.
        self.rank = rank
        #: Virtual clock of the rank when the crash fired.
        self.vtime = vtime
