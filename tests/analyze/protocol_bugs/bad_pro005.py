"""Protocol bug: a string tag that can never match an int tag.

Rank 0 sends with ``tag=7``; rank 1 receives with ``tag="seven"``.
Tags are matched by equality, so the receive can never complete:
rank 1 blocks forever and the engine raises
:class:`~repro.simmpi.DeadlockError` (starvation: rank 0 already
exited, so there is no cycle -- just a receive nothing will wake).
"""

from repro.workflow import Workflow


def body(ctx):
    comm = ctx.comm
    if comm.rank == 0:
        comm.send(123, 1, tag=7)
    else:
        comm.recv(source=0, tag="seven")
    return None


def build_workflow():
    wf = Workflow()
    wf.add_task("confused", nprocs=2, main=body)
    return wf
