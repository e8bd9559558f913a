"""Intercommunicator tests: the producer/consumer wiring LowFive relies on."""

import numpy as np
import pytest

from repro.simmpi import Engine, Intercomm
from repro.simmpi.errors import CommMismatchError


def run_with_intercomm(nprocs, group_a, group_b, main):
    """Launch ``main(world, local, inter)`` with A/B groups pre-wired."""
    eng = Engine(nprocs)
    ab, ba = Intercomm.create(eng, group_a, group_b)

    def runner(world):
        if world.rank in group_a:
            local = world.split(0)
            return main(world, local, ab, "a")
        local = world.split(1)
        return main(world, local, ba, "b")

    return eng.run(runner)


def test_intercomm_basic_exchange():
    def main(world, local, inter, side):
        if side == "a":
            # Each producer sends to consumer 0.
            inter.send((side, local.rank), dest=0, tag=1)
        else:
            if local.rank == 0:
                got = sorted(
                    inter.recv(source=i, tag=1)[0] for i in range(inter.remote_size)
                )
                assert got == [("a", 0), ("a", 1), ("a", 2)]

    run_with_intercomm(4, [0, 1, 2], [3], main)


def test_intercomm_remote_addressing_is_group_local():
    def main(world, local, inter, side):
        if side == "a":
            # dest=1 means rank 1 of the *remote* group (world rank 4).
            if local.rank == 0:
                inter.send("hello", dest=1)
        else:
            if local.rank == 1:
                payload, status = inter.recv(source=0)
                assert payload == "hello"
                assert status.source == 0  # sender's rank in its group
            return local.rank

    run_with_intercomm(5, [0, 1, 2], [3, 4], main)


def test_intercomm_sizes():
    def main(world, local, inter, side):
        if side == "a":
            assert inter.size == 3 and inter.remote_size == 2
        else:
            assert inter.size == 2 and inter.remote_size == 3

    run_with_intercomm(5, [0, 1, 2], [3, 4], main)


def test_intercomm_barrier_spans_groups():
    def main(world, local, inter, side):
        if side == "a":
            world_rank = world.rank
            inter.compute(0.1 * (world_rank + 1))
        inter.barrier()
        return inter.vtime

    res = run_with_intercomm(4, [0, 1], [2, 3], main)
    assert len({round(t, 12) for t in res.returns}) == 1


def test_intercomm_bidirectional():
    def main(world, local, inter, side):
        if side == "a":
            inter.send(np.arange(10), dest=0, tag=2)
            reply, _ = inter.recv(source=0, tag=3)
            assert reply == "ok"
        else:
            arr, _ = inter.recv(source=0, tag=2)
            np.testing.assert_array_equal(arr, np.arange(10))
            inter.send("ok", dest=0, tag=3)

    run_with_intercomm(2, [0], [1], main)


def test_intercomm_overlapping_groups_rejected():
    eng = Engine(3)
    with pytest.raises(CommMismatchError):
        Intercomm(eng, [0, 1], [1, 2])


def test_intercomm_out_of_range_dest():
    def main(world, local, inter, side):
        if side == "a" and local.rank == 0:
            with pytest.raises(CommMismatchError):
                inter.send("x", dest=5)

    run_with_intercomm(2, [0], [1], main)


def test_intercomm_no_split_or_dup():
    def main(world, local, inter, side):
        if local.rank == 0:
            with pytest.raises(NotImplementedError):
                inter.split(0)

    run_with_intercomm(2, [0], [1], main)


def test_two_intercomms_fan_out():
    """One producer group feeding two consumer groups (fan-out)."""
    eng = Engine(4)
    prod = [0, 1]
    cons1, cons2 = [2], [3]
    p_c1, c1_p = Intercomm.create(eng, prod, cons1)
    p_c2, c2_p = Intercomm.create(eng, prod, cons2)

    def main(world):
        r = world.rank
        if r in prod:
            local = world.split(0)
            p_c1.send(("to-c1", r), dest=0)
            p_c2.send(("to-c2", r), dest=0)
        elif r in cons1:
            world.split(1)
            got = sorted(c1_p.recv(source=i)[0] for i in range(2))
            assert got == [("to-c1", 0), ("to-c1", 1)]
        else:
            world.split(2)
            got = sorted(c2_p.recv(source=i)[0] for i in range(2))
            assert got == [("to-c2", 0), ("to-c2", 1)]

    eng.run(main)
