"""Executed benchmark-driver tests at tiny scale.

The benchmark suite exercises these at larger sizes; here we pin the
driver contract (validation, accounting fields) quickly.
"""

import pytest

from repro.bench import (
    ExecutedResult,
    run_bredala,
    run_dataspaces,
    run_lowfive_file,
    run_lowfive_memory,
    run_pure_hdf5,
    run_pure_mpi,
)
from repro.perfmodel import CORI_HASWELL
from repro.synth import SyntheticWorkload

WL = SyntheticWorkload(grid_points_per_proc=2000, particles_per_proc=2000)

DRIVERS = [
    run_lowfive_memory,
    run_lowfive_file,
    run_pure_hdf5,
    run_pure_mpi,
    run_dataspaces,
    run_bredala,
]


@pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
def test_driver_runs_and_validates(driver):
    res = driver(3, 2, WL)
    assert isinstance(res, ExecutedResult)
    assert res.validated
    assert res.nprod == 3 and res.ncons == 2
    assert res.vtime > 0
    assert res.messages > 0


@pytest.mark.parametrize("driver", [run_lowfive_memory, run_pure_mpi,
                                    run_dataspaces],
                         ids=lambda d: d.__name__)
def test_driver_accepts_machine(driver):
    res = driver(2, 1, WL, CORI_HASWELL)
    assert res.validated


def test_uneven_shapes():
    assert run_lowfive_memory(5, 3, WL).validated
    assert run_pure_mpi(1, 4, WL).validated


def test_in_situ_moves_fewer_or_equal_bytes_than_file():
    mem = run_lowfive_memory(3, 1, WL)
    fil = run_lowfive_file(3, 1, WL)
    # File mode's bytes_sent counts only the control messages; the data
    # goes through the PFS instead, so its network traffic is smaller.
    assert fil.bytes_sent < mem.bytes_sent
    assert fil.vtime > mem.vtime


def test_256_ranks_run_to_completion():
    """192 -> 64 in memory mode: at the threaded engine this run was
    killed by the watchdog after 120 s of *progress* (a false
    DeadlockError); the gate's host cost grew superlinearly in ranks
    (0.09 / 1.67 / 21.6 s at P = 16 / 64 / 128)."""
    small = SyntheticWorkload(grid_points_per_proc=2000,
                              particles_per_proc=1000)
    res = run_lowfive_memory(192, 64, small)
    assert res.validated
    assert res.nprod == 192 and res.ncons == 64


def test_file_mode_run_retains_no_file_state():
    """No Python object keeps a finished run's file alive (ROADMAP
    item 4: the RSS growth over in-process repetitions is allocator
    arenas, not a retainer) -- even while its result is still held."""
    import gc

    from repro.h5.native import NativeVOL
    from repro.h5.objects import FileNode
    from repro.pfs import PFSStore

    def alive():
        gc.collect()
        return sum(isinstance(o, (PFSStore, FileNode, NativeVOL))
                   for o in gc.get_objects())

    before = alive()
    results = []
    for _ in range(2):
        results.append(run_lowfive_file(3, 1, WL))
        assert alive() == before
