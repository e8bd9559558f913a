"""Dataspace ``maxshape``: validated at construction, kept through the
encoding (memory mode ships it inside the encoded metadata)."""

import pytest

from repro.h5.dataspace import UNLIMITED, Dataspace
from repro.h5.errors import SelectionError


class TestDataspaceMaxshape:
    def test_default_fixed(self):
        sp = Dataspace((3, 4))
        assert sp.maxshape == (3, 4)
        assert repr(sp) == "Dataspace(shape=(3, 4))"

    def test_rank_change_rejected(self):
        with pytest.raises(SelectionError):
            Dataspace((2,), maxshape=(2, 2))

    def test_maxshape_below_shape_rejected(self):
        with pytest.raises(SelectionError):
            Dataspace((5,), maxshape=(3,))

    def test_encode_decode_keeps_maxshape(self):
        sp = Dataspace((2, 3), maxshape=(UNLIMITED, 3))
        assert Dataspace.decode(sp.encode()) == sp
