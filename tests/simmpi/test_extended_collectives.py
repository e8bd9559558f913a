"""Tests for sendrecv and for collectives carrying variable-size
payloads (the list forms MPI spells gatherv, scatterv and alltoallv)."""

from repro.simmpi import run_world


def test_sendrecv_ring_shift():
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        payload, status = comm.sendrecv(
            f"from-{comm.rank}", dest=right, source=left,
            sendtag=5, recvtag=5,
        )
        assert status.source == left
        return payload

    res = run_world(4, main)
    assert res.returns == ["from-3", "from-0", "from-1", "from-2"]


def test_gather_scatter_variable_sizes():
    def main(comm):
        chunk = list(range(comm.rank + 1))  # sizes 1, 2, 3
        gathered = comm.gather(chunk, root=0)
        if comm.rank == 0:
            assert gathered == [[0], [0, 1], [0, 1, 2]]
            spread = comm.scatter([["a"], ["b"] * 2, ["c"] * 3], root=0)
        else:
            spread = comm.scatter(None, root=0)
        return len(spread)

    res = run_world(3, main)
    assert res.returns == [1, 2, 3]


def test_alltoall_variable_sizes():
    def main(comm):
        sends = [[comm.rank] * (j + 1) for j in range(comm.size)]
        recv = comm.alltoall(sends)
        # From rank j we receive a list of length rank+1 filled with j.
        return [(len(x), x[0] if x else None) for x in recv]

    res = run_world(3, main)
    for i, got in enumerate(res.returns):
        assert got == [(i + 1, 0), (i + 1, 1), (i + 1, 2)]
