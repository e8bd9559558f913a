"""Protocol bug: recv-before-send ring (classic deadlock).

Every rank blocks receiving from its predecessor before sending to
its successor, so no send is ever posted. Running it raises
:class:`~repro.simmpi.DeadlockError`, whose explanation renders the
wait-for cycle ``0 -> 2 -> 1 -> 0``.
"""

from repro.workflow import Workflow


def ring(ctx):
    comm = ctx.comm
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    token, _ = comm.recv(source=prv, tag=0)
    comm.send(token, nxt, tag=0)
    return None


def build_workflow():
    wf = Workflow()
    wf.add_task("ring", nprocs=3, main=ring)
    return wf
