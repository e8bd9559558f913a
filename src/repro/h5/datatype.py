"""Datatypes: numpy-backed atomic and compound types.

The paper relies on HDF5's "internal facilities" for datatype
manipulation and serialization; our equivalent internal facility is
numpy's dtype system, which supports atomic types and nested compound
(structured) types. :class:`Datatype` is a thin value wrapper adding
what HDF5 needs of a type: immutability and serialization for the file
format.
"""

from __future__ import annotations

import numpy as np

from repro.h5.errors import H5Error


class Datatype:
    """An immutable datatype backed by a numpy dtype.

    Parameters
    ----------
    np_dtype:
        Anything :func:`numpy.dtype` accepts: ``"u8"``, ``np.float32``,
        a structured dtype for compounds, etc.
    """

    __slots__ = ("np",)

    def __init__(self, np_dtype):
        object.__setattr__(self, "np", np.dtype(np_dtype))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Datatype is immutable")

    # -- layout ---------------------------------------------------------------

    @property
    def itemsize(self) -> int:
        """Size of one element in bytes."""
        return self.np.itemsize

    # -- serialization --------------------------------------------------------

    def encode(self) -> bytes:
        """Portable byte encoding (used by the native file format)."""
        descr = np.lib.format.dtype_to_descr(self.np)
        return repr(descr).encode("utf-8")

    @classmethod
    def decode(cls, blob: bytes) -> "Datatype":
        """Inverse of :meth:`encode`; :class:`H5Error` on a malformed
        blob."""
        import ast

        try:
            descr = ast.literal_eval(blob.decode("utf-8"))
            return cls(np.lib.format.descr_to_dtype(descr))
        except (SyntaxError, ValueError, TypeError) as exc:
            raise H5Error(f"corrupt file: datatype {blob!r}") from exc

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Datatype):
            return self.np == other.np
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.np)

    def __repr__(self) -> str:
        return f"Datatype({self.np!r})"


INT8 = Datatype(np.int8)
INT16 = Datatype(np.int16)
INT32 = Datatype(np.int32)
INT64 = Datatype(np.int64)
UINT8 = Datatype(np.uint8)
UINT16 = Datatype(np.uint16)
UINT32 = Datatype(np.uint32)
UINT64 = Datatype(np.uint64)
FLOAT32 = Datatype(np.float32)
FLOAT64 = Datatype(np.float64)


def as_datatype(dtype_like) -> Datatype:
    """Coerce a Datatype, numpy dtype, or dtype string to :class:`Datatype`."""
    if isinstance(dtype_like, Datatype):
        return dtype_like
    return Datatype(dtype_like)
