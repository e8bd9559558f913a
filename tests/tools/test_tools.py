"""Tests for the inspection/transfer utilities."""

import os

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL
from repro.pfs import PFSStore
from repro.tools import export_store, h5dump, h5ls, import_store
from repro.tools.__main__ import main
from repro.tools.transfer import _safe_path


@pytest.fixture
def store_with_file():
    store = PFSStore()
    vol = NativeVOL(store)
    with h5.File("run/out.h5", "w", vol=vol) as f:
        f.attrs["step"] = 7
        d = f.create_dataset("fields/density", data=np.arange(6.0))
        d.attrs["units"] = 1.5
        f.create_group("empty")
    return store


def _blob(store, name):
    handle = store.open(name)
    return handle.pread(0, handle.size)


class TestInspect:
    def test_h5ls_lists_objects(self, store_with_file):
        out = h5ls(_blob(store_with_file, "run/out.h5"), "run/out.h5")
        assert "/fields" in out and "Group" in out
        assert "/fields/density" in out and "Dataset" in out
        assert "(6,)" in out and "float64" in out

    def test_h5dump_shows_attrs_and_data(self, store_with_file):
        out = h5dump(_blob(store_with_file, "run/out.h5"))
        assert "@step = 7" in out
        assert "@units = 1.5" in out
        assert "DATASET density" in out
        assert "data: [0. 1. 2. 3. 4. 5.]" in out
        assert "GROUP empty" in out

    def test_h5dump_truncates_large_data(self):
        store = PFSStore()
        with h5.File("big.h5", "w", vol=NativeVOL(store)) as f:
            f.create_dataset("d", data=np.arange(100))
        out = h5dump(_blob(store, "big.h5"), max_elements=4)
        assert "..." in out

    def test_bad_blob_raises(self):
        with pytest.raises(Exception):
            h5ls(b"not a file")


class TestTransfer:
    def test_export_import_roundtrip(self, store_with_file, tmp_path):
        exported = export_store(store_with_file, str(tmp_path))
        assert exported == ["run/out.h5"]
        assert (tmp_path / "run" / "out.h5").exists()

        store2 = import_store(str(tmp_path))
        assert store2.listdir() == ["run/out.h5"]
        with h5.File("run/out.h5", "r", vol=NativeVOL(store2)) as f:
            np.testing.assert_array_equal(
                f["fields/density"].read(), np.arange(6.0)
            )
            assert f.attrs["step"] == 7

    def test_safe_path_rejects_escape(self, tmp_path):
        with pytest.raises(ValueError):
            _safe_path(str(tmp_path), "../evil")

    def test_cli_h5ls(self, store_with_file, tmp_path, capsys):
        export_store(store_with_file, str(tmp_path))
        assert main(["h5ls", str(tmp_path), "run/out.h5"]) == 0
        out = capsys.readouterr().out
        assert "/fields/density" in out

    def test_h5ls_of_a_handle_reads_no_payload(self):
        store = PFSStore()
        with h5.File("big.h5", "w", vol=NativeVOL(store)) as f:
            f.create_dataset("d", data=np.arange(4096))
        out = h5ls(store.open("big.h5"), "big.h5")
        assert "/d" in out and "(4096,)" in out
        assert store.bytes_read == store.size("big.h5") - 4096 * 8
        assert "data: [0 1 2 3]" in h5dump(store.open("big.h5"),
                                           max_elements=4)

    def test_cli_h5dump(self, store_with_file, tmp_path, capsys):
        export_store(store_with_file, str(tmp_path))
        assert main(["h5dump", str(tmp_path), "run/out.h5"]) == 0
        assert "@step = 7" in capsys.readouterr().out
