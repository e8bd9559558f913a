"""Point-to-point messaging tests for the simulated MPI runtime."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    Engine,
    NetworkModel,
    Status,
    VirtualPayload,
    run_world,
)
from repro.simmpi.message import Message
from repro.simmpi.request import SENT


def test_send_recv_roundtrip():
    def main(comm):
        if comm.rank == 0:
            comm.send({"x": 1}, dest=1, tag=5)
            payload, status = comm.recv(source=1, tag=6)
            assert payload == "reply"
            assert status.source == 1 and status.tag == 6
        elif comm.rank == 1:
            payload, status = comm.recv(source=0, tag=5)
            assert payload == {"x": 1}
            comm.send("reply", dest=0, tag=6)

    run_world(2, main)


def test_numpy_payload_moves_data_and_bytes():
    def main(comm):
        if comm.rank == 0:
            arr = np.arange(1000, dtype=np.float64)
            comm.send(arr, dest=1)
        else:
            arr, status = comm.recv(source=0)
            assert status.nbytes == 8000
            np.testing.assert_array_equal(arr, np.arange(1000, dtype=np.float64))

    res = run_world(2, main)
    assert res.bytes_sent == 8000
    assert res.messages == 1


def test_tag_matching_out_of_order():
    def main(comm):
        if comm.rank == 0:
            comm.send("a", dest=1, tag=1)
            comm.send("b", dest=1, tag=2)
        else:
            b, _ = comm.recv(source=0, tag=2)
            a, _ = comm.recv(source=0, tag=1)
            assert (a, b) == ("a", "b")

    run_world(2, main)


def test_any_source_any_tag():
    def main(comm):
        if comm.rank == 0:
            got = set()
            for _ in range(3):
                payload, status = comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.add((status.source, payload))
            assert got == {(1, "one"), (2, "two"), (3, "three")}
        else:
            names = {1: "one", 2: "two", 3: "three"}
            comm.send(names[comm.rank], dest=0, tag=comm.rank)

    run_world(4, main)


def test_fifo_per_source_and_tag():
    def main(comm):
        if comm.rank == 0:
            for i in range(10):
                comm.send(i, dest=1, tag=0)
        else:
            seq = [comm.recv(source=0, tag=0)[0] for _ in range(10)]
            assert seq == list(range(10))

    run_world(2, main)


def test_virtual_payload_costs_without_data():
    def main(comm):
        if comm.rank == 0:
            comm.send(VirtualPayload(10**9, "big"), dest=1)
        else:
            p, status = comm.recv(source=0)
            assert status.nbytes == 10**9
            assert p.label == "big"

    res = run_world(2, main)
    # 1 GB at 8 GB/s -> at least 0.125 virtual seconds.
    assert res.vtime >= 0.1


def test_explicit_nbytes_override():
    def main(comm):
        if comm.rank == 0:
            comm.send("tiny", dest=1, nbytes=10**8)
        else:
            comm.recv(source=0)

    res = run_world(2, main)
    assert res.bytes_sent == 10**8


def test_vtime_reflects_transfer_cost():
    model = NetworkModel(latency=1e-3, bandwidth=1e6)

    def main(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000, dtype=np.uint8), dest=1)
        else:
            comm.recv(source=0)

    res = run_world(2, main, model=model)
    # latency 1 ms + 1000 B / 1 MB/s = 2 ms, plus small overheads.
    assert 2e-3 <= res.vtime < 3e-3


def test_deadlock_detection():
    def main(comm):
        if comm.rank == 0:
            comm.recv(source=1)  # never sent

    with pytest.raises(DeadlockError):
        run_world(2, main, timeout=3600)


def test_exception_propagates_from_rank():
    def main(comm):
        if comm.rank == 1:
            raise RuntimeError("boom on rank 1")
        comm.recv(source=1)  # would deadlock, but failure should wake us

    with pytest.raises(RuntimeError, match="boom on rank 1"):
        run_world(2, main, timeout=5.0)


def test_self_send():
    def main(comm):
        comm.send("me", dest=comm.rank, tag=1)
        p, status = comm.recv(source=comm.rank, tag=1)
        assert p == "me" and status.source == comm.rank

    run_world(3, main)


def test_engine_reuse_forbidden_semantics():
    # Engines are single-run; a second run on a fresh engine is the pattern.
    eng = Engine(2)
    res = eng.run(lambda comm: comm.rank)
    assert res.returns == [0, 1]


class TestValueObjects:
    """The small objects every message builds or returns keep their
    public contracts."""

    def test_status_fields_equality_hash_repr(self):
        st = Status(3, 7, 64)
        assert (st.source, st.tag, st.nbytes) == (3, 7, 64)
        assert Status(source=3, tag=7, nbytes=64) == st
        assert st != Status(3, 7, 65)
        assert hash(st) == hash(Status(3, 7, 64))
        assert repr(st) == "Status(source=3, tag=7, nbytes=64)"

    def test_recv_status_describes_the_message(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(b"abcd", dest=1, tag=5)
                return None
            return comm.recv()[1]

        assert run_world(2, main).returns[1] == Status(0, 5, 4)

    def test_send_request_is_complete_and_reusable(self):
        def main(comm):
            req = comm.isend(comm.rank, dest=(comm.rank + 1) % 2)
            assert req.wait() is None and req.wait() is None
            comm.recv()
            return req

        reqs = run_world(2, main).returns
        assert reqs[0] is reqs[1] is SENT

    def test_message_keyword_construction_defaults(self):
        a = Message(comm_id=1, src=2, dst_world=3, tag=4, payload=None,
                    nbytes=0, arrival=1.5)
        b = Message(comm_id=1, src=2, dst_world=3, tag=4, payload=None,
                    nbytes=0, arrival=1.5)
        assert (a.src_world, a.sent_at, a.dup_of, a.has_dup) == (
            -1, 0.0, None, False)
        assert b.seq > a.seq  # the fallback id stream
        assert a.matches(2, 4) and a.matches(ANY_SOURCE, ANY_TAG)
        assert not a.matches(2, 5)
        with pytest.raises(AttributeError):
            a.extra = 1  # slotted
