"""Integer bounding boxes (half-open: ``min`` inclusive, ``max`` exclusive)."""

from __future__ import annotations

import math


def _ints(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints (a 1-d sequence required)."""
    try:
        return tuple(map(int, values))
    except TypeError:
        raise ValueError(f"{name} must be a 1-d integer sequence") from None


class Bounds:
    """An axis-aligned integer box ``[min, max)`` in N dimensions.

    ``min`` and ``max`` are tuples of Python ints. Empty boxes (any
    ``max <= min``) are normalized to zero extent so ``size == 0`` and
    intersections behave.
    """

    __slots__ = ("min", "max")

    def __init__(self, mins, maxs):
        lo = _ints(mins, "min")
        hi = _ints(maxs, "max")
        if len(lo) != len(hi):
            raise ValueError("min/max must be 1-d and the same length")
        self.min = lo
        self.max = tuple(map(max, lo, hi))

    @classmethod
    def from_shape(cls, shape) -> "Bounds":
        """The full box of a dataspace shape."""
        shape = _ints(shape, "shape")
        return cls((0,) * len(shape), shape)

    @classmethod
    def from_selection(cls, sel) -> "Bounds":
        """Bounding box of any :class:`~repro.h5.selection.Selection`."""
        lo, hi = sel.bounds()
        return cls(lo, hi)

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.min)

    @property
    def shape(self) -> tuple[int, ...]:
        """Per-dimension extent of the box."""
        return tuple(h - l for l, h in zip(self.min, self.max))

    @property
    def size(self) -> int:
        """Number of integer points inside the box."""
        return math.prod(h - l for l, h in zip(self.min, self.max))

    @property
    def empty(self) -> bool:
        """True when the box contains no points."""
        return any(h == l for l, h in zip(self.min, self.max))

    def intersect(self, other: "Bounds") -> "Bounds":
        """The overlapping box (possibly empty)."""
        self._check(other)
        return Bounds(map(max, self.min, other.min),
                      map(min, self.max, other.max))

    def intersects(self, other: "Bounds") -> bool:
        """True when the boxes overlap."""
        self._check(other)
        return all(max(a, b) < min(c, d) for a, b, c, d
                   in zip(self.min, other.min, self.max, other.max))

    def contains_point(self, pt) -> bool:
        """True when ``pt`` lies inside the box."""
        return all(l <= int(x) < h
                   for l, x, h in zip(self.min, pt, self.max))

    def contains(self, other: "Bounds") -> bool:
        """True when ``other`` lies entirely inside this box."""
        self._check(other)
        if other.empty:
            return True
        return all(l <= ol and oh <= h for l, ol, oh, h
                   in zip(self.min, other.min, other.max, self.max))

    def union_bound(self, other: "Bounds") -> "Bounds":
        """Smallest box covering both."""
        self._check(other)
        if self.empty:
            return Bounds(other.min, other.max)
        if other.empty:
            return Bounds(self.min, self.max)
        return Bounds(map(min, self.min, other.min),
                      map(max, self.max, other.max))

    def to_selection(self, shape):
        """As a contiguous hyperslab over a dataspace of ``shape``."""
        from repro.h5.selection import HyperslabSelection, NoneSelection

        if self.empty:
            return NoneSelection(shape)
        return HyperslabSelection(shape, self.min, self.shape)

    def _check(self, other: "Bounds") -> None:
        if len(self.min) != len(other.min):
            raise ValueError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )

    def __eq__(self, other):
        if isinstance(other, Bounds):
            return self.min == other.min and self.max == other.max
        return NotImplemented

    def __hash__(self):
        return hash((self.min, self.max))

    def __repr__(self):
        return f"Bounds(min={list(self.min)}, max={list(self.max)})"
