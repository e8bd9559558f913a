"""Tests for ``visit``."""

import pytest

import repro.h5 as h5
from repro.h5.native import NativeVOL


@pytest.fixture
def vol():
    return NativeVOL()


class TestVisit:
    def test_visit_all_paths(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("a/x", data=[1])
            f.create_dataset("a/y", data=[1])
            f.create_group("b")
            paths = []
            f.visit(paths.append)
            assert paths == ["a", "a/x", "a/y", "b"]

    def test_visit_early_stop(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("a/x", data=[1])
            f.create_dataset("b/y", data=[1])

            def find_first_dataset(path):
                if "/" in path:
                    return path
                return None

            assert f.visit(find_first_dataset) == "a/x"

    def test_visit_from_subgroup(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            f.create_dataset("g/sub/d", data=[1])
            paths = []
            f["g"].visit(paths.append)
            assert paths == ["sub", "sub/d"]

    def test_visit_empty(self, vol):
        with h5.File("a.h5", "w", vol=vol) as f:
            out = []
            f.visit(out.append)
            assert out == []
