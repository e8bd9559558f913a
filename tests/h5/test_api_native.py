"""API + native VOL tests, serial and parallel (over simmpi)."""

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5 import format as h5format
from repro.h5.errors import (
    ClosedError,
    ExistsError,
    H5Error,
    ModeError,
    NotFoundError,
    SelectionError,
)
from repro.h5.native import NativeVOL
from repro.h5.plist import DatasetCreateProps, TransferProps
from repro.pfs import PFSStore
from repro.simmpi import run_world


@pytest.fixture
def vol():
    return NativeVOL()


class TestSerial:
    def test_create_write_read_roundtrip(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("x", data=np.arange(10, dtype="i4"))
            assert d.shape == (10,)
        with h5.File("a.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["x"].read(), np.arange(10))

    def test_nested_paths_in_create_dataset(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("g1/g2/data", data=[1.5, 2.5])
        with h5.File("a.h5", "r", vol=vol) as f:
            assert "g1" in f
            assert f["g1"].keys() == ["g2"]
            np.testing.assert_array_equal(f["g1/g2/data"].read(), [1.5, 2.5])

    def test_groups_and_keys(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_group("b")
            f.create_group("a/inner")
            f.create_dataset("c", data=[1])
            assert sorted(f.keys()) == ["a", "b", "c"]
            items = dict(f.items())
            assert isinstance(items["a"], h5.Group)
            assert isinstance(items["c"], h5.Dataset)

    def test_hyperslab_write_read(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("m", shape=(6, 6), dtype=h5.FLOAT64)
            d.write(np.ones((3, 3)), file_select=h5.hyperslab((1, 1), (3, 3)))
            block = d.read(h5.hyperslab((0, 0), (3, 3)))
            assert block[0, 0] == 0 and block[1, 1] == 1

    def test_getitem_setitem_slicing(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("m", shape=(4, 4), dtype="i8")
            d[1:3, 1:3] = [[1, 2], [3, 4]]
            np.testing.assert_array_equal(d[1:3, 1:3], [[1, 2], [3, 4]])
            np.testing.assert_array_equal(d[2, 1:3], [3, 4])
            assert d[..., ] .shape == (4, 4)

    def test_negative_index(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("v", data=np.arange(5))
            assert d[-1,] if False else True
            assert d[(-1,)] == 4

    def test_attrs_mapping(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.attrs["run"] = 12
            g = f.create_group("g")
            g.attrs["origin"] = np.array([0.0, 1.0])
            assert "run" in f.attrs
            assert f.attrs.keys() == ["run"]
            assert len(g.attrs) == 1
        with h5.File("a.h5", "r", vol=vol) as f:
            assert f.attrs["run"] == 12
            np.testing.assert_array_equal(f["g"].attrs["origin"], [0.0, 1.0])

    def test_mode_enforcement(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=[1])
        with h5.File("a.h5", "r", vol=vol) as f:
            with pytest.raises(ModeError):
                f["d"].write([2])

    def test_exclusive_create(self, vol):
        h5.File("a.h5", "x", vol=vol).close()
        with pytest.raises(ExistsError):
            h5.File("a.h5", "x", vol=vol)

    def test_open_missing_raises(self, vol):
        with pytest.raises(NotFoundError):
            h5.File("missing.h5", "r", vol=vol)

    def test_bad_mode(self, vol):
        with pytest.raises(H5Error):
            h5.File("a.h5", "q", vol=vol)

    def test_double_close(self, vol):
        f = h5.File("a.h5", "w", vol=vol)
        f.close()
        with pytest.raises(ClosedError):
            f.close()

    def test_append_mode_reopens(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=[1, 2])
        with h5.File("a.h5", "a", vol=vol) as f:
            f.create_dataset("e", data=[3])
        with h5.File("a.h5", "r", vol=vol) as f:
            assert sorted(f.keys()) == ["d", "e"]

    def test_truncate_on_w(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("old", data=[1])
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("new", data=[2])
        with h5.File("a.h5", "r", vol=vol) as f:
            assert f.keys() == ["new"]

    def test_open_reader_keeps_the_file_it_opened(self, vol):
        """Pieces are fetched at first touch, from the contents that were
        open -- not from whatever the name points at by then."""
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=np.arange(6))
        reader = h5.File("a.h5", "r", vol=vol)
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=np.arange(6) + 100)
        np.testing.assert_array_equal(reader["d"].read(), np.arange(6))
        reader.close()
        with h5.File("a.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), np.arange(6) + 100)

    def test_append_roundtrips_pieces_it_never_read(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=np.arange(6))
        size = vol.store.size("a.h5")
        with h5.File("a.h5", "a", vol=vol) as f:
            f.create_dataset("e", data=[3])
            # Header and metadata only: the payload of d is still on file.
            assert vol.store.bytes_read == size - 6 * 8
        with h5.File("a.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), np.arange(6))
            np.testing.assert_array_equal(f["e"].read(), [3])

    def test_fill_value_dcpl(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", shape=(3,), dtype="i4",
                             dcpl=DatasetCreateProps(fill_value=9))
        with h5.File("a.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), [9, 9, 9])

    def test_create_dataset_conflicting_type(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("d", shape=(3,), dtype="i4")
            with pytest.raises(ExistsError):
                f.create_dataset("d", shape=(3,), dtype="f8")

    def test_create_dataset_needs_shape(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            with pytest.raises(H5Error):
                f.create_dataset("d")

    def test_write_size_mismatch(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("d", shape=(4,), dtype="i4")
            with pytest.raises(SelectionError):
                d.write([1, 2, 3])

    def test_compound_dataset(self, vol):
        ptype = h5.Datatype([("pos", "3f4"), ("id", "u8")])
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("p", shape=(4,), dtype=ptype)
            vals = np.zeros(4, dtype=ptype.np)
            vals["id"] = np.arange(4)
            d.write(vals)
        with h5.File("a.h5", "r", vol=vol) as f:
            out = f["p"].read()
            np.testing.assert_array_equal(out["id"], np.arange(4))

    def test_points_selection_io(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            d = f.create_dataset("d", shape=(5,), dtype="i4")
            d.write([10, 30], file_select=h5.points([1, 3]))
            np.testing.assert_array_equal(d.read(), [0, 10, 0, 30, 0])


class TestParallel:
    def test_collective_write_then_separate_read(self):
        """N writer ranks, then a fresh read from the stored bytes."""
        store = PFSStore()

        def producer(comm):
            vol = producer.vol
            f = h5.File("out.h5", "w", comm=comm, vol=vol)
            d = f.create_dataset("grid", shape=(8, 8), dtype=h5.UINT64)
            rows = 8 // comm.size
            start = comm.rank * rows
            block = np.arange(rows * 8, dtype=np.uint64) + 1000 * comm.rank
            d.write(block, file_select=h5.hyperslab((start, 0), (rows, 8)))
            f.attrs["step"] = 1
            f.close()

        producer.vol = NativeVOL(store)
        run_world(4, producer)

        # Fresh VOL instance simulating a different task reading the file.
        f = h5.File("out.h5", "r", vol=NativeVOL(store))
        grid = f["grid"].read()
        for r in range(4):
            np.testing.assert_array_equal(
                grid[2 * r: 2 * r + 2].ravel(),
                np.arange(16, dtype=np.uint64) + 1000 * r,
            )
        assert f.attrs["step"] == 1
        f.close()

    def test_readers_fetch_only_the_pieces_they_touch(self):
        """N readers of 1/N each cost one pass over the file, not N."""
        n, per = 8, 4096
        store = PFSStore()
        wvol = NativeVOL(store)

        def writer(comm):
            f = h5.File("o.h5", "w", comm=comm, vol=wvol)
            d = f.create_dataset("d", shape=(n * per,), dtype=h5.UINT64)
            d.write(np.arange(per, dtype=np.uint64) + per * comm.rank,
                    file_select=h5.hyperslab((comm.rank * per,), (per,)))
            f.close()

        run_world(n, writer)
        file_size = store.size("o.h5")
        overhead = file_size - n * per * 8  # header + metadata
        assert overhead < per * 8

        rvol = NativeVOL(store)
        lister = h5.File("o.h5", "r", vol=rvol)
        assert lister.keys() == ["d"] and lister["d"].shape == (n * per,)
        lister.close()
        assert store.bytes_read == overhead  # listing reads no payload

        def reader(comm):
            f = h5.File("o.h5", "r", comm=comm, vol=rvol)
            got = f["d"].read(
                file_select=h5.hyperslab((comm.rank * per,), (per,)))
            np.testing.assert_array_equal(
                got, np.arange(per, dtype=np.uint64) + per * comm.rank)
            f.close()

        store.bytes_read = 0
        run_world(n, reader)
        # One pass over the payload plus one metadata read for the task,
        # whose readers share the decoded tree; a whole-file read per
        # rank is N * file_size.
        assert store.bytes_read == n * per * 8 + overhead

    def test_a_task_decodes_a_file_once(self, monkeypatch):
        """The readers of one file in one task share one decoded tree,
        dropped at their last close; a truncating re-create makes the
        next open decode the new file."""
        decoded = []
        real = h5format.decode_file

        def counting(src, name=""):
            decoded.append(name)
            return real(src, name)

        monkeypatch.setattr(h5format, "decode_file", counting)
        n = 4
        store = PFSStore()
        wvol, rvol = NativeVOL(store), NativeVOL(store)

        def write(base):
            def body(comm):
                with h5.File("o.h5", "w", comm=comm, vol=wvol) as f:
                    f.create_dataset("d", shape=(n,), dtype=h5.INT64).write(
                        [base + comm.rank],
                        file_select=h5.hyperslab((comm.rank,), (1,)))
            run_world(n, body)

        def read(comm, base):
            with h5.File("o.h5", "r", comm=comm, vol=rvol) as f:
                got = f["d"].read(
                    file_select=h5.hyperslab((comm.rank,), (1,)))
            assert got[0] == base + comm.rank

        write(0)
        run_world(n, lambda comm: read(comm, 0))
        assert decoded == ["o.h5"]
        run_world(n, lambda comm: read(comm, 0))  # all closed: dropped
        assert len(decoded) == 2

        old = h5.File("o.h5", "r", vol=rvol)
        assert len(decoded) == 3
        write(100)  # truncating re-create while a reader holds the old
        new = h5.File("o.h5", "r", vol=rvol)
        also_new = h5.File("o.h5", "r", vol=rvol)  # shares new's tree
        assert len(decoded) == 4
        np.testing.assert_array_equal(old["d"].read(), np.arange(n))
        old.close()  # leaves the tree of the open readers of the new
        with h5.File("o.h5", "r", vol=rvol) as f:
            np.testing.assert_array_equal(f["d"].read(), np.arange(n) + 100)
        assert len(decoded) == 4
        np.testing.assert_array_equal(also_new["d"].read(),
                                      np.arange(n) + 100)
        new.close()
        also_new.close()
        run_world(n, lambda comm: read(comm, 100))
        assert len(decoded) == 5

    def test_parallel_io_charges_lustre_time(self):
        store = PFSStore()
        vol = NativeVOL(store)

        def main(comm):
            f = h5.File("o.h5", "w", comm=comm, vol=vol)
            d = f.create_dataset("d", shape=(4,), dtype="f8")
            d.write([float(comm.rank)],
                    file_select=h5.hyperslab((comm.rank,), (1,)))
            f.close()

        res = run_world(4, main)
        # Collective open dominates: open_base=8s plus mds serialization.
        assert res.vtime > vol.lustre.open_time(4)

    def test_independent_write_costs_more(self):
        def run(collective):
            store = PFSStore()
            vol = NativeVOL(store)

            def main(comm):
                f = h5.File("o.h5", "w", comm=comm, vol=vol)
                d = f.create_dataset("d", shape=(4 * 10**6,), dtype="f8")
                n = 10**6
                d.write(
                    np.zeros(n),
                    file_select=h5.hyperslab((comm.rank * n,), (n,)),
                    dxpl=TransferProps(collective=collective),
                )
                f.close()

            return run_world(4, main).vtime

        assert run(False) > run(True)

    def test_collective_creates_are_idempotent_across_ranks(self):
        store = PFSStore()
        vol = NativeVOL(store)

        def main(comm):
            f = h5.File("o.h5", "w", comm=comm, vol=vol)
            g = f.create_group("g")  # every rank creates the same group
            d = g.create_dataset("d", shape=(4,), dtype="i4")
            d.write([comm.rank], file_select=h5.hyperslab((comm.rank,), (1,)))
            f.close()

        run_world(4, main)
        f = h5.File("o.h5", "r", vol=NativeVOL(store))
        np.testing.assert_array_equal(f["g/d"].read(), [0, 1, 2, 3])
        f.close()
