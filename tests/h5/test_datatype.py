"""Datatype tests."""

import numpy as np
import pytest

import repro.h5 as h5
from repro.h5.datatype import as_datatype


def test_predefined_types():
    assert h5.UINT64.itemsize == 8
    assert h5.FLOAT32.itemsize == 4
    assert h5.INT8.itemsize == 1


def test_encode_decode_roundtrip_atomic():
    for t in (h5.INT8, h5.INT16, h5.INT32, h5.INT64, h5.UINT8, h5.UINT16,
              h5.UINT32, h5.UINT64, h5.FLOAT32, h5.FLOAT64,
              h5.Datatype("S4")):
        assert h5.Datatype.decode(t.encode()) == t


def test_encode_decode_roundtrip_compound():
    t = h5.Datatype([("pos", "3f4"), ("mass", "f8")])
    assert h5.Datatype.decode(t.encode()) == t


def test_equality_and_hash():
    assert h5.Datatype("u8") == h5.UINT64
    assert hash(h5.Datatype("u8")) == hash(h5.UINT64)
    assert h5.UINT64 != h5.INT64
    assert (h5.UINT64 == 42) is False


def test_immutability():
    with pytest.raises(AttributeError):
        h5.UINT64.np = np.dtype("i1")


def test_as_datatype_coercions():
    assert as_datatype("f8") == h5.FLOAT64
    assert as_datatype(np.float32) == h5.FLOAT32
    assert as_datatype(h5.UINT8) is h5.UINT8
