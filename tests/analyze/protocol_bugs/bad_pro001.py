"""Protocol bug: collective divergence on a rank guard.

Rank 0 enters a ``bcast`` while every other rank enters ``barrier``
at the same rendezvous. The run still completes (the engine pairs
collectives by arrival order, not by kind), and the
``collective-mismatch`` check flags the mixed kinds.
"""

from repro.workflow import Workflow


def body(ctx):
    comm = ctx.comm
    if comm.rank == 0:
        comm.bcast(17, root=0)
    else:
        comm.barrier()
    return None


def build_workflow():
    wf = Workflow()
    wf.add_task("diverge", nprocs=3, main=body)
    return wf
