"""Simulated MPI runtime with virtual time.

``simmpi`` executes an SPMD program -- a Python callable ``main(comm)`` --
on ``n`` simulated ranks. Each rank owns a *virtual clock* and runs on
its own thread, one at a time in virtual-time order; message-passing
and collective operations advance the clocks according to a
configurable network cost model
(:class:`~repro.simmpi.netmodel.NetworkModel`, defaulting to Cray
Aries-like parameters). Payloads are real Python/numpy objects, so the
algorithms built on top (LowFive redistribution, DataSpaces staging, ...)
really move and validate data; the *reported completion time* is the
maximum virtual clock, which is what the paper's figures plot.

Quickstart::

    from repro.simmpi import run_world

    def main(comm):
        if comm.rank == 0:
            comm.send({"hello": comm.rank}, dest=1, tag=7)
        elif comm.rank == 1:
            msg, status = comm.recv(source=0, tag=7)
        comm.barrier()
        return comm.rank * 10

    result = run_world(4, main)
    result.returns    # [0, 10, 20, 30]
    result.vtime      # simulated seconds
"""

from repro.simmpi.errors import (
    SimMPIError,
    DeadlockError,
    RankFailure,
    RunTimeout,
    WorkerAborted,
)
from repro.simmpi.netmodel import NetworkModel, payload_nbytes
from repro.simmpi.message import VirtualPayload, Status, ANY_SOURCE, ANY_TAG
from repro.simmpi.request import Request
from repro.simmpi.comm import Comm, Intercomm
from repro.simmpi.engine import (
    Engine,
    WaitDesc,
    WorldResult,
    run_world,
)
from repro.simmpi.mailbox import CommMailbox

__all__ = [
    "SimMPIError",
    "DeadlockError",
    "RankFailure",
    "RunTimeout",
    "WorkerAborted",
    "NetworkModel",
    "payload_nbytes",
    "VirtualPayload",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "Comm",
    "Intercomm",
    "Engine",
    "WaitDesc",
    "WorldResult",
    "run_world",
    "CommMailbox",
]
