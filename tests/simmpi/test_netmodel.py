"""Cost-model unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simmpi import NetworkModel, VirtualPayload, payload_nbytes


class TestPayloadNbytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_numpy(self):
        assert payload_nbytes(np.zeros((10, 10), dtype=np.float32)) == 400

    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5
        assert payload_nbytes(bytearray(7)) == 7

    def test_str(self):
        assert payload_nbytes("abc") == 3

    def test_scalars(self):
        assert payload_nbytes(1) == 8
        assert payload_nbytes(1.5) == 8
        assert payload_nbytes(True) == 8

    def test_virtual_payload(self):
        assert payload_nbytes(VirtualPayload(12345)) == 12345

    def test_containers_include_items(self):
        base = payload_nbytes([])
        assert payload_nbytes([np.zeros(100)]) >= 800 + base
        assert payload_nbytes({"k": np.zeros(10)}) >= 80

    def test_unknown_object_flat_estimate(self):
        class Foo:
            pass

        assert payload_nbytes(Foo()) == 64


def _reference_nbytes(obj) -> int:
    """The plain recursive formula ``payload_nbytes`` must agree with
    (its fast paths are shortcuts of this, never new byte counts)."""
    if obj is None:
        return 0
    nb = getattr(obj, "nbytes", None)
    if nb is not None and isinstance(nb, (int, np.integer)):
        return int(nb)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", "replace"))
    if isinstance(obj, (int, float, complex, bool)):
        return 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 16 + sum(_reference_nbytes(x) + 8 for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(_reference_nbytes(k) + _reference_nbytes(v) + 16
                        for k, v in obj.items())
    return 64


_LEAVES = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.text(max_size=8), st.binary(max_size=8),
    st.builds(np.zeros, st.integers(min_value=0, max_value=16),
              st.sampled_from([np.float64, np.int32, np.uint8])),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple)),
    max_leaves=20,
)


@given(_PAYLOADS)
def test_payload_nbytes_matches_recursive_formula(payload):
    """``bytes_sent`` is virtual: the byte count of every payload shape
    is pinned to the reference formula."""
    assert payload_nbytes(payload) == _reference_nbytes(payload)


class TestNetworkModel:
    def test_transfer_time_alpha_beta(self):
        m = NetworkModel(latency=1e-6, bandwidth=1e9, contention_exponent=0.0)
        assert m.transfer_time(0) == pytest.approx(1e-6)
        assert m.transfer_time(10**9) == pytest.approx(1.0 + 1e-6)

    def test_contention_grows_with_procs(self):
        m = NetworkModel()
        assert m.contention_factor(4) == 1.0
        assert m.contention_factor(16384) > m.contention_factor(1024) > 1.0

    def test_contention_below_ref_is_one(self):
        m = NetworkModel()
        assert m.contention_factor(1) == 1.0
        assert m.contention_factor(2) == 1.0

    def test_memcpy_and_pack(self):
        m = NetworkModel(memcpy_bandwidth=2e9, per_element_pack=1e-8)
        assert m.memcpy_time(2e9) == pytest.approx(1.0)
        assert m.pack_elements_time(10**8) == pytest.approx(1.0)

    def test_collective_costs_scale_logarithmically(self):
        m = NetworkModel()
        t64 = m.collective_time("barrier", 64)
        t4096 = m.collective_time("barrier", 4096)
        assert t4096 == pytest.approx(t64 * 2, rel=0.01)  # log2 64=6, 4096=12

    def test_collective_single_rank_cheap(self):
        m = NetworkModel()
        assert m.collective_time("barrier", 1) == m.msg_overhead

    def test_unknown_collective_raises(self):
        m = NetworkModel()
        with pytest.raises(ValueError):
            m.collective_time("frobnicate", 8)

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=1, max_value=1 << 20))
    def test_transfer_time_monotone_in_bytes(self, nbytes, nprocs):
        m = NetworkModel()
        assert m.transfer_time(nbytes, nprocs) <= m.transfer_time(
            nbytes + 1024, nprocs
        )

    @given(st.sampled_from(["barrier", "bcast", "gather", "allgather",
                            "alltoall", "reduce", "allreduce", "scatter"]),
           st.integers(min_value=2, max_value=1 << 16),
           st.integers(min_value=0, max_value=10**9))
    def test_collective_time_positive_finite(self, kind, p, nbytes):
        m = NetworkModel()
        t = m.collective_time(kind, p, nbytes)
        assert t > 0 and math.isfinite(t)
