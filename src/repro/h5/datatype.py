"""Datatypes: numpy-backed atomic and compound types.

The paper relies on HDF5's "internal facilities" for datatype
manipulation and serialization; our equivalent internal facility is
numpy's dtype system, which supports atomic types and nested compound
(structured) types. :class:`Datatype` is a thin value wrapper adding the
HDF5 notions (type class, serialization for the file format).
"""

from __future__ import annotations

import numpy as np

from repro.h5.errors import H5Error

#: HDF5-like type classes.
CLASS_INTEGER = "integer"
CLASS_FLOAT = "float"
CLASS_STRING = "string"
CLASS_COMPOUND = "compound"


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

    # -- classification -----------------------------------------------------

    @property
    def type_class(self) -> str:
        """The HDF5-like type class of this datatype."""
        k = self.np.kind
        if self.np.names:
            return CLASS_COMPOUND
        if k in "iu":
            return CLASS_INTEGER
        if k == "f":
            return CLASS_FLOAT
        if k in "SU":
            return CLASS_STRING
        raise H5Error(f"unsupported numpy kind {k!r}")

    @property
    def itemsize(self) -> int:
        """Size of one element in bytes."""
        return self.np.itemsize

    @property
    def is_compound(self) -> bool:
        """True for compound (structured) types."""
        return self.np.names is not None

    @property
    def fields(self):
        """Mapping of field name -> (Datatype, offset) for compounds."""
        if not self.is_compound:
            raise H5Error("not a compound type")
        return {
            name: (Datatype(self.np.fields[name][0]), self.np.fields[name][1])
            for name in self.np.names
        }

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


def compound(fields) -> Datatype:
    """Build a compound datatype from ``[(name, dtype-like), ...]``."""
    return Datatype(np.dtype([(n, np.dtype(getattr(d, "np", d))) for n, d in fields]))


def string_(length: int) -> Datatype:
    """Fixed-length byte-string type of ``length`` characters."""
    if length < 1:
        raise ValueError("string length must be >= 1")
    return Datatype(f"S{length}")


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
