"""Collectives carrying variable-size payloads (the list form MPI
spells alltoallv)."""

from repro.simmpi import run_world


def test_alltoall_variable_sizes():
    def main(comm):
        sends = [[comm.rank] * (j + 1) for j in range(comm.size)]
        recv = comm.alltoall(sends)
        # From rank j we receive a list of length rank+1 filled with j.
        return [(len(x), x[0] if x else None) for x in recv]

    res = run_world(3, main)
    for i, got in enumerate(res.returns):
        assert got == [(i + 1, 0), (i + 1, 1), (i + 1, 2)]
