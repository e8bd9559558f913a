"""MetadataVOL tests (single task, no distribution)."""

import gc
import weakref

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.lowfive import LowFiveConfig, MetadataVOL
from repro.pfs import PFSStore


def make_vol(memory="*", passthru=None, zero_copy=None, store=None):
    vol = MetadataVOL(under=NativeVOL(store or PFSStore()))
    if memory:
        vol.set_memory(memory)
    if passthru:
        vol.set_passthru(passthru)
    if zero_copy:
        vol.set_zero_copy(*zero_copy)
    return vol


class TestMemoryMode:
    def test_write_read_within_task(self):
        vol = make_vol()
        with h5.File("mem.h5", "w", vol=vol) as f:
            f.create_dataset("g/d", data=np.arange(12).reshape(3, 4))
        # Reopen from memory: nothing was written to storage.
        assert vol.under.store.listdir() == []
        with h5.File("mem.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(
                f["g/d"].read(), np.arange(12).reshape(3, 4)
            )

    def test_tree_survives_close(self):
        vol = make_vol()
        h5.File("mem.h5", "w", vol=vol).close()
        assert vol.get_tree(None, "mem.h5") is not None
        vol.drop_file(None, "mem.h5")
        assert vol.get_tree(None, "mem.h5") is None

    def test_dropped_tree_frees_its_arrays_without_the_collector(self):
        vol = make_vol()
        gc.disable()
        try:
            with h5.File("mem.h5", "w", vol=vol) as f:
                f.create_dataset("g/d", data=np.arange(12.0))
            del f
            tree = vol.get_tree(None, "mem.h5")
            payload = weakref.ref(tree.lookup("g/d").pieces[0]._data)
            del tree
            vol.drop_file(None, "mem.h5")
            assert payload() is None
        finally:
            gc.enable()

    def test_attributes_in_memory(self):
        vol = make_vol()
        with h5.File("mem.h5", "w", vol=vol) as f:
            f.attrs["step"] = 7
            g = f.create_group("g")
            g.attrs["x"] = 1.5
        with h5.File("mem.h5", "r", vol=vol) as f:
            assert f.attrs["step"] == 7
            assert f["g"].attrs["x"] == 1.5
            assert f["g"].attrs.keys() == ["x"]

    def test_links_and_object_open(self):
        vol = make_vol()
        with h5.File("mem.h5", "w", vol=vol) as f:
            f.create_dataset("a/d", data=[1])
            f.create_group("b")
            assert sorted(f.keys()) == ["a", "b"]
            assert "a/d" in f
            assert isinstance(f["a/d"], h5.Dataset)
            assert isinstance(f["b"], h5.Group)

    def test_hyperslab_pieces(self):
        vol = make_vol()
        with h5.File("mem.h5", "w", vol=vol) as f:
            d = f.create_dataset("d", shape=(4, 4), dtype="i8")
            d.write(np.ones(8), file_select=h5.hyperslab((0, 0), (2, 4)))
            d.write(np.full(8, 2), file_select=h5.hyperslab((2, 0), (2, 4)))
            out = d.read()
            assert (out[:2] == 1).all() and (out[2:] == 2).all()


class TestZeroCopy:
    def test_deep_copy_by_default(self):
        vol = make_vol()
        buf = np.arange(4)
        with h5.File("mem.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=buf)
            buf[:] = 0
        with h5.File("mem.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), [0, 1, 2, 3])

    def test_zero_copy_references_user_buffer(self):
        vol = make_vol(zero_copy=("mem.h5", "/d"))
        buf = np.arange(4)
        with h5.File("mem.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=buf)
            buf[:] = 9
        with h5.File("mem.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), [9, 9, 9, 9])

    def test_zero_copy_pattern_granularity(self):
        vol = make_vol(zero_copy=("mem.h5", "/shallow"))
        a = np.arange(3)
        b = np.arange(3)
        with h5.File("mem.h5", "w", vol=vol) as f:
            f.create_dataset("shallow", data=a)
            f.create_dataset("deep", data=b)
            a[:] = 7
            b[:] = 7
        with h5.File("mem.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["shallow"].read(), [7, 7, 7])
            np.testing.assert_array_equal(f["deep"].read(), [0, 1, 2])


def memory_only_vol():
    vol = MetadataVOL()
    vol.set_memory("*")
    return vol


@pytest.mark.parametrize("make", [lambda: NativeVOL(PFSStore()),
                                  memory_only_vol],
                         ids=["native", "metadata"])
def test_tree_operations_agree_with_native(make):
    """Both VOLs share one implementation of the tree operations: a
    dataset handle closes without an underlying VOL, and creating over
    an existing object of another kind or shape is refused."""
    with h5.File("t.h5", "w", vol=make()) as f:
        d = f.create_dataset("x", shape=(4,), dtype="i8")
        d.close()
        with pytest.raises(h5.ExistsError):
            f.create_group("x")
        with pytest.raises(h5.ExistsError):
            f.create_dataset("x", shape=(2, 3), dtype="i8")
        f.create_group("g")
        with pytest.raises(h5.ExistsError):
            f.create_dataset("g", shape=(4,), dtype="i8")
        # A collective re-create with the same type and shape is the
        # same dataset.
        f.create_dataset("x", shape=(4,), dtype="i8").write(np.arange(4))
        np.testing.assert_array_equal(f["x"].read(), np.arange(4))


class TestPassthrough:
    def test_memory_plus_passthru_writes_file_too(self):
        store = PFSStore()
        vol = make_vol(memory="*.h5", passthru="*.h5", store=store)
        with h5.File("both.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=np.arange(5))
        assert store.listdir() == ["both.h5"]
        # Readable via a completely separate native VOL.
        with h5.File("both.h5", "r", vol=NativeVOL(store)) as f:
            np.testing.assert_array_equal(f["d"].read(), np.arange(5))

    def test_non_matching_file_passes_through(self):
        store = PFSStore()
        vol = make_vol(memory="data_*.h5", store=store)
        with h5.File("checkpoint.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=[3])
        assert vol.get_tree(None, "checkpoint.h5") is None
        assert store.listdir() == ["checkpoint.h5"]
        with h5.File("checkpoint.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), [3])

    def test_passthru_only_behaves_like_native(self):
        store = PFSStore()
        vol = MetadataVOL(under=NativeVOL(store))
        vol.set_passthru("*")
        with h5.File("f.h5", "w", vol=vol) as f:
            f.create_dataset("d", data=[1, 2])
            f.attrs["a"] = 1
        with h5.File("f.h5", "r", vol=vol) as f:
            np.testing.assert_array_equal(f["d"].read(), [1, 2])
            assert f.attrs["a"] == 1


class TestConfig:
    def test_pattern_matching(self):
        cfg = LowFiveConfig()
        cfg.set_memory("outfile*.h5", "/group1/*")
        assert cfg.is_memory("outfile1.h5", "/group1/grid")
        assert not cfg.is_memory("other.h5", "/group1/grid")
        assert not cfg.is_memory("outfile1.h5", "/group2/x")
        assert cfg.file_intercepted("outfile9.h5")
        assert not cfg.file_intercepted("nope.h5")

    def test_passthru_and_zero_copy_rules(self):
        cfg = LowFiveConfig()
        cfg.set_passthru("*", "/checkpoint/*")
        cfg.set_zero_copy("*.h5", "/big/*")
        assert cfg.is_passthru("x.h5", "/checkpoint/c")
        assert cfg.file_passthru("anything")
        assert cfg.is_zero_copy("a.h5", "/big/d")
        assert not cfg.is_zero_copy("a.h5", "/small/d")

    def test_defaults_intercept_nothing(self):
        cfg = LowFiveConfig()
        assert not cfg.file_intercepted("a.h5")
        assert not cfg.file_passthru("a.h5")
