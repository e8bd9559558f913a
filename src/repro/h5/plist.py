"""Property lists: knobs passed to dataset-create and transfer calls.

These mirror HDF5's dcpl/dxpl property lists at the granularity our
transports need.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DatasetCreateProps:
    """Dataset-creation properties (HDF5 ``dcpl``).

    ``chunks`` selects a chunked storage layout: the file stores the
    dataset as independent fixed-shape tiles, which bounds lock
    contention to the chunks a write touches (and is what makes
    strided/partial parallel writes viable on Lustre).
    """

    fill_value: object | None = None
    chunks: tuple | None = None


@dataclass
class TransferProps:
    """Data-transfer properties (HDF5 ``dxpl``).

    Attributes
    ----------
    collective:
        Use collective (two-phase, MPI-IO-like) I/O for file storage.
        The paper's synthetic benchmarks "write collectively to a single
        HDF5 file ... using MPI-IO".
    """

    collective: bool = True


#: Defaults used when a call does not pass an explicit property list.
DEFAULT_DCPL = DatasetCreateProps()
DEFAULT_DXPL = TransferProps()
