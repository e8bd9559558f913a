"""A minimal wildcard-receive race, for the schedule analyzer.

Three ranks in one task: ranks 1 and 2 each send one message to rank
0, which collects both with ``recv(source=ANY_SOURCE)`` while it is
busy computing -- so both messages are queued when the first wildcard
match happens. Rank 1 posts *earlier* than rank 2 (1 ms vs 2 ms of
compute before the send).

Clean run: arrivals follow post order, the match is stable, and

    python -m repro.tools run --example examples/race_demo.py --strict

reports no findings (exit 0). Delay rank 1's message past rank 2's
arrival and the earlier-posted message arrives *later* -- the wildcard
winner is now decided purely by modeled transfer times, which is
exactly what the race detector flags:

    python -m repro.tools run --example examples/race_demo.py \\
        --delay 0.01 --delay-src 1 --delay-dst 0 --strict

deterministically reports one wildcard-race finding naming both
candidates (exit 1).
"""

from repro.simmpi import ANY_SOURCE
from repro.workflow import Workflow


def peer(ctx):
    comm = ctx.comm
    if comm.rank == 0:
        comm.barrier()
        comm.compute(50e-3)  # busy while both messages arrive
        first = comm.recv(source=ANY_SOURCE, tag=0)[0]
        second = comm.recv(source=ANY_SOURCE, tag=0)[0]
        print(f"[rank 0] received from rank {first}, then rank {second}")
        return (first, second)
    comm.compute(comm.rank * 1e-3)  # rank 1 posts before rank 2
    comm.send(comm.rank, dest=0, tag=0)
    comm.barrier()
    return comm.rank


def build_workflow():
    """Used by ``python -m repro.tools run --example <this file>``."""
    wf = Workflow()
    wf.add_task("peer", nprocs=3, main=peer)
    return wf


def main():
    result = build_workflow().run()
    first, second = result.returns["peer"][0]
    assert (first, second) == (1, 2), "clean run follows post order"


if __name__ == "__main__":
    main()
