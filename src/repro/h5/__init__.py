"""HDF5-like hierarchical data model with a Virtual Object Layer (VOL).

This package implements, from scratch, the parts of the HDF5 data model
that LowFive's design depends on (paper Sec. III):

- rich **datatypes** (atomic and compound, numpy-backed),
- N-dimensional **dataspaces** with hyperslab and point **selections**,
- a hierarchical tree of **files, groups, datasets and attributes**,
- a **VOL** dispatch layer: every API call routes through a pluggable
  connector, exactly like HDF5 1.12's Virtual Object Layer, so a plugin
  (e.g. :mod:`repro.lowfive`) can intercept all operations,
- a **native VOL** connector that serializes the tree to a real binary
  file format on a (simulated) parallel file system.

User code looks like h5py/HDF5::

    import repro.h5 as h5

    f = h5.File("step1.h5", "w", comm=comm, vol=vol)
    g = f.create_group("group1")
    d = g.create_dataset("grid", shape=(64, 64, 64), dtype=h5.UINT64)
    d.write(local_block, file_select=h5.hyperslab(start, count))
    f.close()
"""

from repro.h5.errors import H5Error, NotFoundError, ExistsError, SelectionError
from repro.h5.datatype import (
    Datatype,
    compound,
    string_,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    FLOAT32,
    FLOAT64,
)
from repro.h5.selection import (
    Selection,
    AllSelection,
    NoneSelection,
    HyperslabSelection,
    IndexSetSelection,
    PointSelection,
    hyperslab,
    points,
    select_all,
)
from repro.h5.dataspace import Dataspace, UNLIMITED
from repro.h5.plist import DatasetCreateProps, TransferProps
from repro.h5.vol import VOLBase
from repro.h5.native import NativeVOL
from repro.h5.api import File, Group, Dataset, Attribute

__all__ = [
    "H5Error",
    "NotFoundError",
    "ExistsError",
    "SelectionError",
    "Datatype",
    "compound",
    "string_",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "FLOAT32",
    "FLOAT64",
    "Selection",
    "AllSelection",
    "NoneSelection",
    "HyperslabSelection",
    "IndexSetSelection",
    "PointSelection",
    "hyperslab",
    "points",
    "select_all",
    "Dataspace",
    "UNLIMITED",
    "DatasetCreateProps",
    "TransferProps",
    "VOLBase",
    "NativeVOL",
    "File",
    "Group",
    "Dataset",
    "Attribute",
]
