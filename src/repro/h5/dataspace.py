"""Dataspaces: the N-dimensional extent of a dataset or attribute."""

from __future__ import annotations

import numpy as np

from repro.h5.errors import H5Error, SelectionError
from repro.h5.selection import (
    AllSelection,
    HyperslabSelection,
    PointSelection,
    Selection,
)


#: Marker for an unlimited dimension in ``maxshape`` (HDF5's H5S_UNLIMITED).
UNLIMITED = -1


class Dataspace:
    """A simple N-dimensional extent (scalar when ``shape == ()``).

    Dataspaces are value objects; selections are created from them but do
    not mutate them (unlike the HDF5 C API's stateful selected dataspace,
    our API passes selections explicitly, which is equivalent and safer).

    ``maxshape`` records HDF5's per-dimension extent limits: each entry
    is an upper limit or :data:`UNLIMITED`. Omitted -> ``maxshape ==
    shape``. It is validated and encoded; nothing changes an extent.
    """

    __slots__ = ("shape", "maxshape")

    def __init__(self, shape, maxshape=None):
        if np.isscalar(shape):
            shape = (shape,)
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise SelectionError(f"negative extent: {self.shape}")
        if maxshape is None:
            self.maxshape = self.shape
        else:
            if np.isscalar(maxshape):
                maxshape = (maxshape,)
            self.maxshape = tuple(int(m) for m in maxshape)
            if len(self.maxshape) != len(self.shape):
                raise SelectionError("maxshape rank differs from shape")
            for s, m in zip(self.shape, self.maxshape):
                if m != UNLIMITED and m < s:
                    raise SelectionError(
                        f"maxshape {self.maxshape} below shape {self.shape}"
                    )

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def npoints(self) -> int:
        """Total number of elements in the extent."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def is_scalar(self) -> bool:
        """True for the scalar (rank-0) dataspace."""
        return self.shape == ()

    # -- selection factories -------------------------------------------------

    def select_all(self) -> Selection:
        """Selection covering the whole extent."""
        return AllSelection(self.shape)

    def select_hyperslab(self, start, count, stride=None, block=None) -> Selection:
        """Hyperslab selection over this extent."""
        return HyperslabSelection(self.shape, start, count, stride, block)

    def select_points(self, coords) -> Selection:
        """Point selection over this extent."""
        return PointSelection(self.shape, coords)

    # -- serialization ---------------------------------------------------------

    def encode(self) -> bytes:
        """Portable byte encoding for the file format."""
        return repr((self.shape, self.maxshape)).encode("ascii")

    @classmethod
    def decode(cls, blob: bytes) -> "Dataspace":
        """Inverse of :meth:`encode`; :class:`H5Error` on a malformed
        blob."""
        import ast

        try:
            obj = ast.literal_eval(blob.decode("ascii"))
            if (isinstance(obj, tuple) and len(obj) == 2
                    and isinstance(obj[0], tuple)
                    and all(isinstance(v, int) for v in obj[0])
                    and isinstance(obj[1], tuple)):
                return cls(obj[0], obj[1])
            return cls(obj)  # legacy: plain shape tuple
        except (SyntaxError, ValueError, TypeError) as exc:
            raise H5Error(f"corrupt file: dataspace {blob!r}") from exc

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Dataspace):
            return (self.shape == other.shape
                    and self.maxshape == other.maxshape)
        return NotImplemented

    def __hash__(self):
        return hash((self.shape, self.maxshape))

    def __repr__(self):
        if self.maxshape != self.shape:
            return (f"Dataspace(shape={self.shape}, "
                    f"maxshape={self.maxshape})")
        return f"Dataspace(shape={self.shape})"
