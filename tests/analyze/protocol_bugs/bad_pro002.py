"""Protocol bug: a send nobody ever receives.

Rank 0 posts one message to rank 1; rank 1 never receives anything.
The run completes and the ``message-leak`` check reports the orphan
at finalize.
"""

from repro.workflow import Workflow


def body(ctx):
    comm = ctx.comm
    if comm.rank == 0:
        comm.send("orphan", 1, tag=99)
    comm.barrier()
    return None


def build_workflow():
    wf = Workflow()
    wf.add_task("orphan", nprocs=2, main=body)
    return wf
