"""Two-phase collective I/O model tests."""

import pytest
from hypothesis import example, given, strategies as st

from repro.pfs import LustreModel
from repro.pfs.mpiio import TwoPhaseModel
from repro.simmpi import NetworkModel


@pytest.fixture
def model():
    return TwoPhaseModel(NetworkModel(), LustreModel())


def phase_totals(model, nbytes, p):
    """(shuffle, write) summed over every buffer round, the last round
    moving only the residual bytes."""
    per_round = model.naggregators(p) * model.cb_buffer
    n = model.nrounds(nbytes, p)
    s, w = model._round_times(per_round, p)
    s_last, w_last = model._round_times(nbytes - per_round * (n - 1), p)
    return (n - 1) * s + s_last, (n - 1) * w + w_last


class TestPhases:
    def test_aggregator_count_capped_by_stripes(self, model):
        assert model.naggregators(2) == 2
        assert model.naggregators(1024) == model.lustre.stripe_count

    def test_shuffle_faster_than_write_for_big_data(self, model):
        # Interconnect bandwidth >> OST bandwidth.
        shuffle, write = phase_totals(model, 10**9, 64)
        assert shuffle < write

    def test_total_bounded_by_phase_sum(self, model):
        nbytes, p = 10**9, 256
        assert model.nrounds(nbytes, p) > 1
        total = model.collective_write_time(nbytes, p)
        shuffle, write = phase_totals(model, nbytes, p)
        assert max(shuffle, write) - 1e-9 <= total <= shuffle + write + 1e-9

    def test_pipelining_hides_fast_phase(self, model):
        """With many rounds, total ~ slow phase, not the sum."""
        nbytes = 100 * model.cb_buffer * model.lustre.stripe_count
        assert model.nrounds(nbytes, 512) == 100
        total = model.collective_write_time(nbytes, 512)
        assert total < 1.1 * max(phase_totals(model, nbytes, 512))


@given(st.integers(1, 10**10), st.integers(1, 1 << 14))
# Crossed a cb_buffer round boundary: the old amortized-total formula
# shrank fast/nrounds faster than the stream terms grew.
@example(nbytes=129_738_582, p=16064)
def test_prop_times_positive_monotone_in_bytes(nbytes, p):
    m = TwoPhaseModel(NetworkModel(), LustreModel())
    t1 = m.collective_write_time(nbytes, p)
    t2 = m.collective_write_time(nbytes + 10**7, p)
    assert 0 < t1 <= t2
