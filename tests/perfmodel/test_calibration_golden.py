"""Golden calibration regression tests.

EXPERIMENTS.md documents the modeled series these constants produce;
this test pins them (with slack) on the model functions themselves, so
a failure names the function that moved. `tests/bench/test_figures.py`
pins the same numbers, at printed precision, through the committed
`results/` tables. Update the goldens *together with* EXPERIMENTS.md
when recalibrating on purpose.
"""

import pytest

from repro.perfmodel import (
    CORI_HASWELL,
    THETA_KNL,
    bredala_times,
    dataspaces_time,
    lowfive_file_time,
    lowfive_memory_time,
    pure_hdf5_time,
    pure_mpi_time,
)
from repro.perfmodel.nyx_reeber import nyx_reeber_times
from repro.synth import SyntheticWorkload

WL = SyntheticWorkload()
TOL = 0.15  # recalibration slack

# (total procs) -> seconds, from EXPERIMENTS.md.
GOLDEN_LF_MEM = {4: 1.19, 64: 1.91, 1024: 2.64, 16384: 3.41}
GOLDEN_MPI = {4: 1.56, 1024: 2.68, 16384: 3.31}
GOLDEN_HDF5 = {4: 2.55, 64: 3.49, 1024: 156.4}
GOLDEN_LF_FILE = {4: 4.16, 64: 5.84, 1024: 159.6}
GOLDEN_DS_HASWELL = {4: 0.25, 4096: 0.44}
GOLDEN_LF_HASWELL = {4: 0.40, 4096: 1.01}
GOLDEN_BREDALA_TOTAL = {4: 5.35, 4096: 195.0}


def split(P):
    return WL.split_procs(P)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_LF_MEM.items()))
def test_lowfive_memory_golden(P, want):
    assert lowfive_memory_time(*split(P), WL, THETA_KNL) == \
        pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_MPI.items()))
def test_pure_mpi_golden(P, want):
    assert pure_mpi_time(*split(P), WL, THETA_KNL) == \
        pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_HDF5.items()))
def test_pure_hdf5_golden(P, want):
    assert pure_hdf5_time(*split(P), WL, THETA_KNL) == \
        pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_LF_FILE.items()))
def test_lowfive_file_golden(P, want):
    assert lowfive_file_time(*split(P), WL, THETA_KNL) == \
        pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_DS_HASWELL.items()))
def test_dataspaces_golden(P, want):
    assert dataspaces_time(*split(P), WL, CORI_HASWELL) == \
        pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_LF_HASWELL.items()))
def test_lowfive_haswell_golden(P, want):
    assert lowfive_memory_time(*split(P), WL, CORI_HASWELL) == \
        pytest.approx(want, rel=TOL)


@pytest.mark.parametrize("P,want", sorted(GOLDEN_BREDALA_TOTAL.items()))
def test_bredala_golden(P, want):
    assert bredala_times(*split(P), WL, THETA_KNL)["total"] == \
        pytest.approx(want, rel=TOL)


def test_table2_goldens():
    row = nyx_reeber_times(1024)
    assert row["hdf5_write"] == pytest.approx(886.8, rel=TOL)
    assert row["lowfive_write"] == pytest.approx(2.25, rel=TOL)
    assert row["plotfile_write"] == pytest.approx(19.1, rel=TOL)
    assert nyx_reeber_times(2048)["hdf5_write"] is None
