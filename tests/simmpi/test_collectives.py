"""Collective-operation tests for the simulated MPI runtime."""

import operator

import numpy as np

from repro.simmpi import run_world


def test_barrier_synchronizes_clocks():
    def main(comm):
        comm.compute(0.1 * comm.rank)  # ranks drift apart
        comm.barrier()
        return comm.vtime

    res = run_world(4, main)
    # After the barrier all clocks share the same value.
    assert len({round(t, 12) for t in res.returns}) == 1
    assert res.returns[0] >= 0.3  # at least the slowest rank's work


def test_allgather():
    def main(comm):
        return comm.allgather(chr(ord("a") + comm.rank))

    res = run_world(3, main)
    assert res.returns == [["a", "b", "c"]] * 3


def test_alltoall():
    def main(comm):
        sends = [f"{comm.rank}->{j}" for j in range(comm.size)]
        return comm.alltoall(sends)

    res = run_world(3, main)
    for i, received in enumerate(res.returns):
        assert received == [f"{j}->{i}" for j in range(3)]


def test_allreduce():
    def main(comm):
        return comm.allreduce(comm.rank, op=operator.add)

    res = run_world(5, main)
    assert res.returns == [10] * 5


def test_allreduce_numpy():
    def main(comm):
        return comm.allreduce(np.full(4, comm.rank))

    res = run_world(3, main)
    for r in res.returns:
        np.testing.assert_array_equal(r, np.full(4, 3))


def test_repeated_collectives_generations():
    def main(comm):
        acc = []
        for i in range(20):
            acc.append(comm.allreduce(i + comm.rank))
        return acc

    res = run_world(3, main)
    expected = [3 * i + 3 for i in range(20)]
    assert res.returns == [expected] * 3


def test_collective_advances_all_clocks_equally():
    def main(comm):
        comm.compute(0.05 if comm.rank == 0 else 0.0)
        comm.allgather(comm.rank)
        return comm.vtime

    res = run_world(4, main)
    assert len({round(t, 12) for t in res.returns}) == 1


def test_split_by_color():
    def main(comm):
        color = comm.rank % 2
        sub = comm.split(color)
        assert sub.size == 3
        members = sub.allgather(comm.rank)
        if color == 0:
            assert members == [0, 2, 4]
        else:
            assert members == [1, 3, 5]
        return sub.rank

    res = run_world(6, main)
    assert res.returns == [0, 0, 1, 1, 2, 2]


def test_split_with_key_reorders():
    def main(comm):
        sub = comm.split(0, key=-comm.rank)  # reverse order
        return sub.rank

    res = run_world(4, main)
    assert res.returns == [3, 2, 1, 0]


def test_split_none_opts_out():
    def main(comm):
        color = None if comm.rank == 0 else 1
        sub = comm.split(color)
        if comm.rank == 0:
            assert sub is None
            return -1
        return sub.size

    res = run_world(4, main)
    assert res.returns == [-1, 3, 3, 3]


def test_nested_split_communicators():
    def main(comm):
        half = comm.split(comm.rank // 2)
        quarter = half.split(half.rank % 2)
        return (half.size, quarter.size)

    res = run_world(4, main)
    assert res.returns == [(2, 1)] * 4
