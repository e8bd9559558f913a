"""Clean counterpart: send-before-recv ring.

The mirror image of ``bad_pro003``: every rank posts its (buffered)
send before blocking on the receive, so the run completes with no
analyzer finding -- same shape, correct order.
"""

from repro.workflow import Workflow


def ring(ctx):
    comm = ctx.comm
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    comm.send(ctx.rank, nxt, tag=0)
    token, _ = comm.recv(source=prv, tag=0)
    comm.barrier()
    return token


def build_workflow():
    wf = Workflow()
    wf.add_task("ring", nprocs=3, main=ring)
    return wf
