"""Clean counterpart: rank-guarded protocol shapes done right.

A rank alias (``me = comm.rank``), a negated guard, tag arithmetic
(``BASE + me`` matching ``BASE + src``), and a root loop over
``range(nprocs)``. The run completes with no analyzer finding.
"""

from repro.workflow import Workflow

BASE = 100


def fanin(ctx):
    comm = ctx.comm
    me = comm.rank
    n = comm.size
    if me != 0:
        comm.send(me, 0, tag=BASE + me)
    else:
        for src in range(1, n):
            comm.recv(source=src, tag=BASE + src)
    comm.barrier()
    if not me == 0:
        out = comm.bcast(None, root=0)
    else:
        out = comm.bcast("payload", root=0)
    return out


def build_workflow():
    wf = Workflow()
    wf.add_task("fanin", nprocs=4, main=fanin)
    return wf
