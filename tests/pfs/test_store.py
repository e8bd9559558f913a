"""PFS byte-store tests."""

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.pfs import PFSStore
from repro.simmpi import run_world


def test_create_write_read():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(0, b"hello")
    assert h.pread(0, 5) == b"hello"
    assert h.size == 5


def test_pwrite_grows_and_zero_fills():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(4, b"xy")
    assert h.size == 6
    assert h.pread(0, 6) == b"\0\0\0\0xy"


def test_pwrite_overwrite_middle():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(0, b"abcdef")
    h.pwrite(2, b"XY")
    assert h.pread(0, 6) == b"abXYef"


def test_short_read_past_eof():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(0, b"abc")
    assert h.pread(1, 100) == b"bc"
    assert h.pread(10, 5) == b""


def test_namespace_ops():
    s = PFSStore()
    assert not s.exists("f")
    s.create("f")
    assert s.exists("f")
    assert s.listdir() == ["f"]
    assert s.size("f") == 0
    s.unlink("f")
    assert not s.exists("f")
    with pytest.raises(FileNotFoundError):
        s.unlink("f")
    with pytest.raises(FileNotFoundError):
        s.open("f")
    with pytest.raises(FileNotFoundError):
        s.size("f")


def test_create_truncates_or_rejects():
    s = PFSStore()
    s.create("f").pwrite(0, b"data")
    assert s.size("f") == 4
    s.create("f")  # truncate
    assert s.size("f") == 0
    with pytest.raises(FileExistsError):
        s.create("f", truncate=False)


def test_truncating_create_leaves_open_handles_their_bytes():
    s = PFSStore()
    s.create("f").pwrite(0, b"old contents")
    reader = s.open("f")
    s.create("f").pwrite(0, b"new")
    assert reader.pread(0, 100) == b"old contents"
    assert reader.size == 12
    assert s.open("f").pread(0, 100) == b"new"
    assert s.size("f") == 3


def test_reads_are_copies_and_never_pin_the_file():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(0, b"abcd")
    got = h.pread(0, 4)
    h.pwrite(2, b"XYZW")  # overwrites two bytes and extends by two
    assert got == b"abcd"
    assert h.pread(0, 10) == b"abXYZW"


def test_pwrite_takes_any_contiguous_buffer():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(0, np.arange(3, dtype="<u2"))
    h.pwrite(6, memoryview(bytearray(b"zz")))
    assert h.pread(0, 8) == b"\0\0\1\0\2\0zz"
    assert s.bytes_written == 8


def test_stats_counters():
    s = PFSStore()
    h = s.create("f")
    h.pwrite(0, b"abcd")
    h.pread(0, 2)
    assert s.bytes_written == 4
    assert s.bytes_read == 2
    assert s.n_creates == 1


def test_ranks_write_disjoint_ranges_through_one_handle():
    s = PFSStore()
    h = s.create("f")
    n, span = 8, 1000
    half = span // 2

    def writer(comm):
        i = comm.rank
        # Upper half first, so later ranks extend past holes that
        # earlier ranks fill after the baton has moved on.
        h.pwrite(i * span + half, bytes([i]) * (span - half))
        comm.barrier()
        h.pwrite(i * span, bytes([i]) * half)

    run_world(n, writer)
    assert h.size == n * span
    data = h.pread(0, n * span)
    for i in range(n):
        assert data[i * span:(i + 1) * span] == bytes([i]) * span


def test_create_adopts_the_image_as_the_file():
    s = PFSStore()
    image = bytearray(b"ab\0\0\1\0zz")
    h = s.create("f", image=image)
    assert h.pread(0, 100) == b"ab\0\0\1\0zz"
    assert s.bytes_written == s.size("f") == 8
    image[0:1] = b"A"  # the entry is the image itself, not a copy
    assert s.open("f").pread(0, 2) == b"Ab"
    h.pwrite(8, b"!")  # with no view taken, it grows like any other
    assert s.open("f").pread(6, 3) == b"zz!"


def test_view_counts_what_take_returns_and_reads_short():
    s = PFSStore()
    h = s.create("f", image=bytearray(range(20)))
    got = h.view(4, 8, lambda w: w[2:5])
    assert got.tobytes() == bytes([6, 7, 8]) and not got.flags.writeable
    assert s.bytes_read == 3
    assert h.view(4, 8, lambda w: None) is None and s.bytes_read == 3
    assert h.view(16, 8, lambda w: w).tobytes() == bytes([16, 17, 18, 19])
    assert s.bytes_read == 7


def test_same_file_tells_a_truncating_create():
    s = PFSStore()
    s.create("f", image=bytearray(b"old"))
    a, b = s.open("f"), s.open("f")
    assert a.same_file(b)
    s.create("f", image=bytearray(b"new"))
    c = s.open("f")
    assert not a.same_file(c) and a.pread(0, 3) == b"old"


def test_gather_counts_exactly_the_bytes_it_returns():
    s = PFSStore()
    h = s.create("f", image=bytearray(range(20)))
    got = h.gather(np.array([12, 0, 5]), 3)
    assert got.dtype == np.uint8
    assert got.tobytes() == bytes([12, 13, 14, 0, 1, 2, 5, 6, 7])
    assert s.bytes_read == 9
    assert h.gather(np.array([], dtype=np.int64), 3).size == 0
    assert s.bytes_read == 9


def test_gather_reads_short_past_eof():
    s = PFSStore()
    h = s.create("f", image=bytearray(b"abcdef"))
    assert h.gather([4, 0, 9], 3).tobytes() == b"efabc"
    assert s.bytes_read == 5


def test_gather_hands_out_no_view():
    s = PFSStore()
    h = s.create("f", image=bytearray(b"abcdef"))
    got = h.gather([1, 3], 2)
    h.pwrite(0, b"XXXXXX")
    h.pwrite(6, b"grows")  # no export pins the entry
    assert got.tobytes() == b"bcde"
    got[:] = 0
    assert h.pread(0, 6) == b"XXXXXX"


def test_close_writes_the_file_once():
    s = PFSStore()
    with h5.File("f.h5", "w", vol=NativeVOL(s)) as f:
        f.create_dataset("d", data=np.arange(1000))
    assert s.bytes_written == s.size("f.h5") > 8000
