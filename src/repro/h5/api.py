"""User-facing h5py-flavoured API over the VOL dispatch layer.

Handles (:class:`File`, :class:`Group`, :class:`Dataset`,
:class:`Attribute`) hold a VOL connector plus an opaque token; every
operation routes through the connector, so swapping the connector (e.g.
for LowFive) changes transport without touching user code -- the paper's
central usability claim.
"""

from __future__ import annotations

import numpy as np

from repro.h5.datatype import Datatype, as_datatype
from repro.h5.dataspace import Dataspace
from repro.h5.errors import ClosedError, H5Error, SelectionError
from repro.h5.objects import split_path
from repro.h5.plist import DEFAULT_DXPL, DatasetCreateProps, TransferProps
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    Selection,
    bind_selection,
)
from repro.h5.vol import VOLBase


class Attribute:
    """Handle to one attribute."""

    def __init__(self, vol: VOLBase, token, name: str):
        self._vol = vol
        self._token = token
        self.name = name

    def write(self, value) -> None:
        """Write the attribute's value."""
        self._vol.attr_write(self._token, value)

    def read(self):
        """Read the attribute's value."""
        return self._vol.attr_read(self._token)


class AttributeManager:
    """Dict-like ``.attrs`` facade on files, groups and datasets."""

    def __init__(self, vol: VOLBase, token):
        self._vol = vol
        self._token = token

    def __setitem__(self, name: str, value) -> None:
        arr = np.asarray(value)
        space = Dataspace(() if arr.ndim == 0 else arr.shape)
        token = self._vol.attr_create(
            self._token, name, Datatype(arr.dtype), space
        )
        self._vol.attr_write(token, arr)

    def __getitem__(self, name: str):
        token = self._vol.attr_open(self._token, name)
        value = self._vol.attr_read(token)
        if getattr(value, "ndim", None) == 0:
            return value[()]
        return value

    def __contains__(self, name: str) -> bool:
        return name in self._vol.attr_list(self._token)

    def keys(self):
        """Attribute names on this object."""
        return list(self._vol.attr_list(self._token))

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self.keys())


class _Container:
    """Shared group-like behaviour of :class:`File` and :class:`Group`."""

    def __init__(self, vol: VOLBase, token, name: str):
        self._vol = vol
        self._token = token
        self.name = name

    @property
    def attrs(self) -> AttributeManager:
        """Attributes attached to this object."""
        return AttributeManager(self._vol, self._token)

    # -- groups ------------------------------------------------------------

    def create_group(self, path: str) -> "Group":
        """Create a group (and intermediate groups) at ``path``."""
        token = self._token
        for part in split_path(path):
            token = self._vol.group_create(token, part)
        return Group(self._vol, token, path)

    # -- datasets -----------------------------------------------------------

    def create_dataset(self, path: str, shape=None, dtype=None, data=None,
                       maxshape=None, chunks=None,
                       dcpl: DatasetCreateProps | None = None) -> "Dataset":
        """Create a dataset; optionally write ``data`` into all of it.

        ``maxshape`` records per-dimension extent limits in the dataspace
        (:data:`repro.h5.dataspace.UNLIMITED` for no limit), as HDF5 does;
        the extent itself is fixed at creation. ``chunks`` selects a
        chunked storage layout.
        """
        if chunks is not None:
            dcpl = DatasetCreateProps(
                fill_value=dcpl.fill_value if dcpl else None,
                chunks=tuple(chunks),
            )
        if data is not None:
            data = np.asarray(data)
            if shape is None:
                shape = data.shape
            if dtype is None:
                dtype = data.dtype
        if shape is None or dtype is None:
            raise H5Error("create_dataset needs shape+dtype or data")
        parts = split_path(path)
        if not parts:
            raise H5Error("empty dataset path")
        token = self._token
        for part in parts[:-1]:
            token = self._vol.group_create(token, part)
        dtoken = self._vol.dataset_create(
            token, parts[-1], as_datatype(dtype),
            Dataspace(shape, maxshape), dcpl
        )
        dset = Dataset(self._vol, dtoken, path)
        if data is not None:
            dset.write(data)
        return dset

    # -- navigation ---------------------------------------------------------------

    def __getitem__(self, path: str):
        kind, token = self._vol.object_open(self._token, path)
        if kind == "dataset":
            return Dataset(self._vol, token, path)
        return Group(self._vol, token, path)

    def __contains__(self, path: str) -> bool:
        return bool(self._vol.link_exists(self._token, path))

    def keys(self) -> list[str]:
        """Names of direct children."""
        return [name for name, _ in self._vol.links(self._token)]

    def items(self):
        return [(name, self[name]) for name in self.keys()]

    def __iter__(self):
        return iter(self.keys())


class Group(_Container):
    """Handle to a group."""

    def __repr__(self):
        return f"<Group {self.name!r}>"


class File(_Container):
    """Handle to a file; the root group of its hierarchy.

    Parameters
    ----------
    name:
        File name (a key in the PFS namespace, or a transport-matched
        pattern for LowFive).
    mode:
        ``"w"`` create/truncate, ``"x"`` create-exclusive, ``"r"`` read,
        ``"a"`` read-write.
    comm:
        Simulated communicator of this task; file operations are
        collective over it. ``None`` for serial use.
    vol:
        VOL connector; defaults to a fresh private
        :class:`~repro.h5.native.NativeVOL` (serial convenience).
    """

    def __init__(self, name: str, mode: str = "r", comm=None,
                 vol: VOLBase | None = None):
        if vol is None:
            from repro.h5.native import NativeVOL

            vol = NativeVOL()
        if mode in ("w", "x"):
            token = vol.file_create(name, mode, comm)
        elif mode in ("r", "a"):
            token = vol.file_open(name, mode, comm)
        else:
            raise H5Error(f"unknown file mode {mode!r}")
        super().__init__(vol, token, name)
        self.mode = mode
        self._open = True

    @property
    def vol(self) -> VOLBase:
        """The VOL connector serving this file."""
        return self._vol

    def flush(self) -> None:
        """Flush pending state through the VOL."""
        self._check_open()
        self._vol.file_flush(self._token)

    def close(self) -> None:
        """Close the file (collective; triggers transport on LowFive)."""
        self._check_open()
        self._vol.file_close(self._token)
        self._open = False

    def _check_open(self):
        if not self._open:
            raise ClosedError(f"file {self.name!r} is closed")

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *exc) -> None:
        if self._open:
            self.close()

    def __repr__(self):
        state = "open" if self._open else "closed"
        return f"<File {self.name!r} mode={self.mode!r} ({state})>"


class Dataset:
    """Handle to a dataset."""

    def __init__(self, vol: VOLBase, token, name: str):
        self._vol = vol
        self._token = token
        self.name = name

    @property
    def attrs(self) -> AttributeManager:
        """Attributes attached to this dataset."""
        return AttributeManager(self._vol, self._token)

    @property
    def dtype(self) -> Datatype:
        """The dataset's datatype."""
        return self._vol.dataset_meta(self._token)[0]

    @property
    def space(self) -> Dataspace:
        """The dataset's dataspace."""
        return self._vol.dataset_meta(self._token)[1]

    @property
    def shape(self) -> tuple:
        """Current extent of the dataset."""
        return self.space.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    # -- I/O --------------------------------------------------------------------

    def write(self, data, file_select=None,
              dxpl: TransferProps | None = None) -> None:
        """Write ``data`` into ``file_select`` (default: the whole set).

        ``data`` may be shaped like the selected box or flat in selection
        order; it is flattened row-major either way, matching HDF5's
        element ordering.
        """
        sel = bind_selection(file_select, self.shape)
        arr = np.asarray(data, dtype=self.dtype.np).reshape(-1)
        if arr.size != sel.npoints:
            raise SelectionError(
                f"data has {arr.size} elements, selection {sel.npoints}"
            )
        self._vol.dataset_write(self._token, sel, arr, dxpl or DEFAULT_DXPL)

    def read(self, file_select=None, dxpl: TransferProps | None = None,
             reshape: bool = True) -> np.ndarray:
        """Read ``file_select`` (default: everything).

        With ``reshape=True`` the result is shaped as the full dataspace
        (all-selection) or the selection's box when it is one; otherwise
        a flat array in selection order.
        """
        sel = bind_selection(file_select, self.shape)
        flat = self._vol.dataset_read(self._token, sel, dxpl or DEFAULT_DXPL)
        flat = np.asarray(flat, dtype=self.dtype.np)
        if not reshape:
            return flat
        if isinstance(sel, AllSelection):
            return flat.reshape(self.shape)
        if sel.is_separable:
            box = tuple(len(a) for a in sel.axes())
            if int(np.prod(box)) == sel.npoints:
                return flat.reshape(box)
        return flat

    # -- numpy-ish sugar -------------------------------------------------------------

    def _key_to_selection(self, key) -> Selection:
        if key is Ellipsis or key == ():
            return AllSelection(self.shape)
        if not isinstance(key, tuple):
            key = (key,)
        if Ellipsis in key:
            i = key.index(Ellipsis)
            fill = self.ndim - (len(key) - 1)
            key = key[:i] + (slice(None),) * fill + key[i + 1:]
        elif len(key) < self.ndim:
            key = key + (slice(None),) * (self.ndim - len(key))
        if len(key) != self.ndim:
            raise SelectionError(
                f"need {self.ndim} indices, got {len(key)}"
            )
        start, count = [], []
        for dim, (k, extent) in enumerate(zip(key, self.shape)):
            if isinstance(k, (int, np.integer)):
                idx = int(k) + (extent if k < 0 else 0)
                start.append(idx)
                count.append(1)
            elif isinstance(k, slice):
                lo, hi, step = k.indices(extent)
                if step != 1:
                    raise SelectionError("strided slicing not supported here")
                start.append(lo)
                count.append(max(0, hi - lo))
            else:
                raise SelectionError(f"bad index in dim {dim}: {k!r}")
        return HyperslabSelection(self.shape, start, count)

    def __getitem__(self, key) -> np.ndarray:
        sel = self._key_to_selection(key)
        out = self.read(sel)
        if isinstance(key, tuple):
            squeeze = tuple(
                d for d, k in enumerate(key) if isinstance(k, (int, np.integer))
            )
            if squeeze:
                out = out.squeeze(axis=squeeze)
        elif isinstance(key, (int, np.integer)):
            out = out.squeeze(axis=0)
        return out

    def __setitem__(self, key, value) -> None:
        self.write(np.asarray(value), self._key_to_selection(key))

    def close(self) -> None:
        """Close this dataset handle."""
        self._vol.dataset_close(self._token)

    def __repr__(self):
        return f"<Dataset {self.name!r} shape={self.shape}>"
