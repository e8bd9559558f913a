"""Dataspace selection algebra.

HDF5 dataspaces support selecting sub-regions of an N-dimensional extent
via hyperslabs (start/stride/count/block per dimension) and point lists.
LowFive's redistribution intersects the producer's written selections
with the consumer's requested selections, so the core operation here is
:meth:`Selection.intersect`.

All hyperslab-like selections are *separable*: cartesian products of
per-dimension index sets (*axes*). The representation is interval-first:
an axis is a Python ``range`` whenever it is an interval (with a step),
and a sorted ``int64`` array only when it is irregular (blocks wider
than one spaced by a larger stride, or an explicit index set). Counting,
bounding, intersecting, translating and slicing boxes is therefore
integer arithmetic per dimension; index arrays are built only for the
irregular axes, and coordinate arrays only by :meth:`Selection.coords`.
The intersection of two separable selections is separable (intersect
per axis), which keeps it exact for the full stride/block generality.
Point selections are handled by masking their coordinate columns.

Selection order is row-major over the selected coordinates (HDF5's
ordering for hyperslabs); point selections preserve their given order.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.h5.errors import SelectionError


def _as_tuple(x, ndim: int, name: str) -> tuple[int, ...]:
    if type(x) is not tuple and np.isscalar(x):
        x = (int(x),) * ndim
    t = tuple(map(int, x))
    if len(t) != ndim:
        raise SelectionError(f"{name} must have {ndim} entries, got {len(t)}")
    return t


# -- one axis: a ``range`` (interval with a step) or a sorted int64 array ---


def _indices(a) -> np.ndarray:
    """The axis as an index array."""
    if isinstance(a, range):
        return np.arange(a.start, a.stop, a.step, dtype=np.int64)
    return a


def _norm(a):
    """Canonical axis: empty, single and contiguous ones are step-1 ranges."""
    n = len(a)
    if n == 0:
        return range(0)
    if type(a) is range and a.step == 1:
        return a
    if a[-1] - a[0] + 1 == n:
        return range(int(a[0]), int(a[0]) + n)
    return a


def _clip(a, lo: int, hi: int):
    """The part of axis ``a`` inside ``[lo, hi)``; no copy, no sort."""
    if isinstance(a, range):
        if a.step == 1:
            lo = max(a.start, lo)
            return range(lo, max(lo, min(a.stop, hi)))
        i0 = max(0, -((a.start - lo) // a.step))
        return a[i0:max(i0, -((a.start - hi) // a.step))]
    return a[np.searchsorted(a, lo):np.searchsorted(a, hi)]


def _axis_intersect(a, b):
    if isinstance(b, range) and b.step == 1:
        return _clip(a, b.start, b.stop)
    if isinstance(a, range) and a.step == 1:
        return _clip(b, a.start, a.stop)
    return np.intersect1d(_indices(a), _indices(b), assume_unique=True)


def _axis_contains(a, values: np.ndarray) -> np.ndarray:
    """Mask of ``values`` that lie on axis ``a``."""
    if isinstance(a, range):
        return ((values >= a.start) & (values < a.stop)
                & ((values - a.start) % a.step == 0))
    return np.isin(values, a)


def _axis_positions(a, b):
    """Where the values of ``b`` (a subset of axis ``a``) sit on ``a``."""
    if not isinstance(a, range):
        return np.searchsorted(a, _indices(b))
    if not isinstance(b, range):
        return (b - a.start) // a.step
    first = (b.start - a.start) // a.step
    step = max(1, b.step // a.step)
    return range(first, first + len(b) * step, step)


def _separable(shape, axes) -> "Selection":
    """The most specific selection over ``shape`` with these (valid) axes:
    empty -> none, a solid box -> hyperslab, else an index set."""
    axes = tuple(_norm(a) for a in axes)
    if not all(len(a) for a in axes):
        return NoneSelection(shape)
    if all(type(a) is range and a.step == 1 for a in axes):
        # A box inside ``shape`` by construction: no re-validation.
        sel = HyperslabSelection.__new__(HyperslabSelection)
        Selection.__init__(sel, shape)
        sel.start = tuple(a.start for a in axes)
        sel.count = tuple(len(a) for a in axes)
        sel.stride = sel.block = (1,) * len(axes)
        sel._axes = axes
        return sel
    sel = IndexSetSelection.__new__(IndexSetSelection)
    Selection.__init__(sel, shape)
    sel._axes = axes
    return sel


class Selection(ABC):
    """A set of selected coordinates within an N-d extent ``shape``."""

    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = tuple(map(int, shape))

    @property
    def ndim(self) -> int:
        """Number of dimensions of the extent."""
        return len(self.shape)

    @property
    @abstractmethod
    def npoints(self) -> int:
        """Number of selected elements."""

    @abstractmethod
    def coords(self) -> np.ndarray:
        """(npoints, ndim) coordinate array in selection order."""

    @abstractmethod
    def extract(self, arr: np.ndarray) -> np.ndarray:
        """Gather selected elements of ``arr`` (shaped ``shape``) into a
        flat array in selection order (a view of ``arr`` when the
        selected region is contiguous in it)."""

    @abstractmethod
    def scatter(self, values: np.ndarray, arr: np.ndarray) -> None:
        """Inverse of :meth:`extract`: place ``values`` into ``arr``.
        A separable selection also takes values shaped as its grid
        (one axis per dimension), as :meth:`view` returns them."""

    def view(self, arr: np.ndarray) -> np.ndarray | None:
        """The selected elements of ``arr`` (shaped ``shape``) as a view
        of it, shaped as the selection's grid -- possible when every
        axis is an interval (a box, or a strided box); None otherwise.
        Its C order is the selection order."""
        return None

    @abstractmethod
    def intersect(self, other: "Selection") -> "Selection":
        """Selection of coordinates present in both (same extent)."""

    @property
    def is_separable(self) -> bool:
        """True when the selection is a cartesian product of per-dim sets."""
        return False

    def per_dim_indices(self) -> list[np.ndarray]:
        """Per-dimension sorted index arrays (separable selections only)."""
        raise SelectionError(f"{type(self).__name__} is not separable")

    def linear_indices(self) -> np.ndarray:
        """Row-major linear index into ``shape`` of every selected
        element, in selection order."""
        return np.ravel_multi_index(tuple(self.coords().T), self.shape)

    def runs(self) -> tuple[np.ndarray, int]:
        """The selection as equal-length runs of its row-major extent:
        ``(starts, length)``, flat element offsets in selection order.
        Reading ``[s, s + length)`` for each start, back to back, yields
        :meth:`extract`'s values of a flat array. Single elements here;
        a separable selection merges its solid inner dimensions."""
        return self.linear_indices(), 1

    def bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Bounding box as (inclusive mins, exclusive maxs), int tuples;
        empty -> zeros."""
        if self.npoints == 0:
            return (0,) * self.ndim, (0,) * self.ndim
        c = self.coords()
        return (tuple(map(int, c.min(axis=0))),
                tuple(map(int, c.max(axis=0) + 1)))

    def translate(self, offset, new_shape=None) -> "Selection":
        """Shift every coordinate by ``-offset`` into a space ``new_shape``.

        Used to map file-space coordinates into a locally stored block
        whose origin sits at ``offset`` in the file space.
        """
        shape = self.shape if new_shape is None else tuple(new_shape)
        if self.npoints == 0:
            return NoneSelection(shape)
        c = self.coords() - np.asarray(offset, dtype=np.int64)
        if c.min() < 0 or (c >= np.asarray(shape)).any():
            raise SelectionError("translated selection exits the new extent")
        return PointSelection(shape, c)

    def locate(self, inner: "Selection") -> "Selection":
        """``inner`` -- a subset of this selection -- re-addressed in
        this selection's own element grid.

        Values stored in selection order form an array of one axis per
        dimension for a separable selection (``npoints`` long for a
        point list); the result selects ``inner``'s elements out of
        that array, in ``inner``'s order: ``sel.locate(inner).extract(
        values.reshape(...))``. A coordinate listed twice resolves to
        its last occurrence (the last write wins).
        """
        mine = self.linear_indices()
        order = np.argsort(mine, kind="stable")
        at = np.searchsorted(mine, inner.linear_indices(), side="right",
                             sorter=order) - 1
        return PointSelection((self.npoints,), order[at])

    def same_elements(self, other: "Selection") -> bool:
        """True when both select the same coordinate set (order ignored).

        Separable selections compare axis by axis (each axis is sorted
        and duplicate-free, so the cartesian products are equal iff the
        factors are); anything else compares sorted linear indices.
        """
        if self.shape != other.shape or self.npoints != other.npoints:
            return False
        if self.npoints == 0:
            return True
        if self.is_separable and other.is_separable:
            return all(
                a == b if isinstance(a, range) and isinstance(b, range)
                else np.array_equal(_indices(a), _indices(b))
                for a, b in zip(self.axes(), other.axes())
            )
        # Coordinates may repeat only if a producer passed duplicate
        # points; sorting makes the comparison orderless.
        return bool(np.array_equal(np.sort(self.linear_indices()),
                                   np.sort(other.linear_indices())))

    def _check_extent(self, other: "Selection") -> None:
        if self.shape != other.shape:
            raise SelectionError(
                f"extent mismatch: {self.shape} vs {other.shape}"
            )

    def _check_array(self, arr: np.ndarray) -> None:
        if tuple(arr.shape) != self.shape:
            raise SelectionError(
                f"array shape {arr.shape} != extent {self.shape}"
            )


class _SeparableSelection(Selection):
    """Common machinery for cartesian-product selections."""

    __slots__ = ()

    is_separable = True

    @abstractmethod
    def axes(self) -> tuple:
        """Per-dimension index sets: a ``range`` where the axis is an
        interval (with a step), else a sorted ``int64`` array."""

    def per_dim_indices(self) -> list[np.ndarray]:
        return [_indices(a) for a in self.axes()]

    @property
    def npoints(self) -> int:
        """Product of per-dimension set sizes."""
        return math.prod(len(a) for a in self.axes())

    def bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        axes = self.axes()
        if not all(len(a) for a in axes):
            return super().bounds()
        return (tuple(int(a[0]) for a in axes),
                tuple(int(a[-1]) + 1 for a in axes))

    def coords(self) -> np.ndarray:
        idx = self.per_dim_indices()
        if any(len(i) == 0 for i in idx):
            return np.empty((0, self.ndim), dtype=np.int64)
        grids = np.meshgrid(*idx, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)

    def linear_indices(self) -> np.ndarray:
        flat = np.zeros((), dtype=np.int64)
        for a, extent in zip(self.axes(), self.shape):
            flat = np.add.outer(flat * extent, _indices(a))
        return flat.reshape(-1)

    def runs(self) -> tuple[np.ndarray, int]:
        # Inner dimensions join the run while they are solid intervals;
        # the outermost of them may be partial, those inside it are full.
        axes, shape = self.axes(), self.shape
        if not all(len(a) for a in axes):
            return np.empty(0, dtype=np.int64), 1
        k, length = len(axes), 1
        while k and isinstance(axes[k - 1], range) and axes[k - 1].step == 1:
            k -= 1
            length *= len(axes[k])
            if len(axes[k]) != shape[k]:
                break
        flat = np.zeros((), dtype=np.int64)
        for a, extent in zip(axes[:k], shape[:k]):
            flat = np.add.outer(flat * extent, _indices(a))
        inner = math.prod(shape[k:])
        first = axes[k].start * (inner // shape[k]) if k < len(axes) else 0
        return (flat * inner + first).reshape(-1), length

    def _slices(self):
        """One basic slice per axis when every axis is an interval."""
        axes = self.axes()
        if all(isinstance(a, range) for a in axes):
            return tuple(slice(a.start, a.stop, a.step) for a in axes)
        return None

    def _index(self):
        """Basic slices when every axis is an interval, else open-mesh
        index arrays; either way ``arr[index]`` is the selected grid."""
        slices = self._slices()
        return np.ix_(*self.per_dim_indices()) if slices is None else slices

    def view(self, arr: np.ndarray) -> np.ndarray | None:
        slices = self._slices()
        if slices is None:
            return None
        self._check_array(arr)
        return arr[slices]

    def extract(self, arr: np.ndarray) -> np.ndarray:
        self._check_array(arr)
        return arr[self._index()].reshape(-1)

    def scatter(self, values: np.ndarray, arr: np.ndarray) -> None:
        self._check_array(arr)
        grid = tuple(len(a) for a in self.axes())
        values = np.asarray(values)
        if values.shape != grid:
            # Flat values in selection order; grid-shaped ones (a view
            # of a piece, possibly strided) go in as they are, since
            # flattening a strided view would copy it.
            if values.size != self.npoints:
                raise SelectionError(f"value count {values.size} != "
                                     f"selection size {self.npoints}")
            values = values.reshape(grid)
        arr[self._index()] = values

    def intersect(self, other: Selection) -> Selection:
        self._check_extent(other)
        if other.is_separable:
            return _separable(self.shape, [
                _axis_intersect(a, b)
                for a, b in zip(self.axes(), other.axes())
            ])
        # none, or a point selection that masks its own points
        return other.intersect(self)

    def translate(self, offset, new_shape=None) -> Selection:
        """Separable translate stays separable: intervals shift in O(1)."""
        shape = self.shape if new_shape is None else tuple(new_shape)
        if self.npoints == 0:
            return NoneSelection(shape)
        axes = []
        for a, off, extent in zip(self.axes(), offset, shape):
            off = int(off)
            a = (range(a.start - off, a.stop - off, a.step)
                 if isinstance(a, range) else a - off)
            if a[0] < 0 or a[-1] >= extent:
                raise SelectionError("translated selection exits the new extent")
            axes.append(a)
        return _separable(shape, axes)

    def locate(self, inner: Selection) -> Selection:
        axes = self.axes()
        grid = tuple(len(a) for a in axes)
        if inner.is_separable:
            return _separable(grid, [
                _axis_positions(a, b) for a, b in zip(axes, inner.axes())
            ])
        if inner.npoints == 0:
            return NoneSelection(grid)
        return PointSelection(grid, np.stack(
            [_axis_positions(a, col) for a, col in zip(axes, inner.coords().T)],
            axis=1,
        ))

    def simplify(self) -> "Selection":
        """Return an equivalent, more specific selection when possible."""
        return self


class AllSelection(_SeparableSelection):
    """The entire extent."""

    __slots__ = ()

    def axes(self) -> tuple:
        return tuple(range(s) for s in self.shape)

    def __repr__(self):
        return f"AllSelection(shape={self.shape})"


class NoneSelection(Selection):
    """The empty selection."""

    __slots__ = ()

    @property
    def npoints(self) -> int:
        """Always 0."""
        return 0

    def coords(self):
        return np.empty((0, self.ndim), dtype=np.int64)

    def extract(self, arr):
        return np.empty(0, dtype=arr.dtype)

    def scatter(self, values, arr):
        if np.asarray(values).size:
            raise SelectionError("cannot scatter into an empty selection")

    def intersect(self, other):
        self._check_extent(other)
        return self

    def __repr__(self):
        return f"NoneSelection(shape={self.shape})"


class HyperslabSelection(_SeparableSelection):
    """HDF5 hyperslab: per dim, ``count`` blocks of ``block`` elements
    spaced ``stride`` apart starting at ``start``.

    Only the four tuples are stored; :meth:`axes` derives an interval
    per dimension from them and builds an index array (once, on first
    use) only for a dimension whose blocks are wider than one element
    and spaced further apart than their width.
    """

    __slots__ = ("start", "count", "stride", "block", "_axes")

    def __init__(self, shape, start, count, stride=None, block=None):
        super().__init__(shape)
        nd = self.ndim
        self.start = _as_tuple(start, nd, "start")
        self.count = _as_tuple(count, nd, "count")
        self.stride = (1,) * nd if stride is None else _as_tuple(
            stride, nd, "stride")
        self.block = (1,) * nd if block is None else _as_tuple(
            block, nd, "block")
        self._axes = None
        for d, (s, c, st, b) in enumerate(zip(self.start, self.count,
                                              self.stride, self.block)):
            if s < 0 or c < 0 or st < 1 or b < 1:
                raise SelectionError(
                    f"invalid hyperslab in dim {d}: start={s} count={c} "
                    f"stride={st} block={b}"
                )
            if b > st:
                raise SelectionError(
                    f"block {b} may not exceed stride {st} (dim {d})"
                )
            if c > 0:
                last = s + (c - 1) * st + b
                if last > self.shape[d]:
                    raise SelectionError(
                        f"hyperslab exceeds extent in dim {d}: "
                        f"reaches {last} > {self.shape[d]}"
                    )

    def axes(self) -> tuple:
        if self._axes is None:
            axes = []
            for s, c, st, b in zip(self.start, self.count, self.stride,
                                   self.block):
                if c <= 1 or st == b:
                    axes.append(range(s, s + c * b))
                elif b == 1:
                    axes.append(range(s, s + c * st, st))
                else:
                    starts = s + st * np.arange(c, dtype=np.int64)
                    axes.append((starts[:, None]
                                 + np.arange(b, dtype=np.int64)).reshape(-1))
            self._axes = tuple(axes)
        return self._axes

    @property
    def is_contiguous(self) -> bool:
        """True when the selection is one solid box."""
        return all(
            c <= 1 or st == b
            for c, st, b in zip(self.count, self.stride, self.block)
        )

    def __repr__(self):
        return (
            f"HyperslabSelection(shape={self.shape}, start={self.start}, "
            f"count={self.count}, stride={self.stride}, block={self.block})"
        )


class IndexSetSelection(_SeparableSelection):
    """Cartesian product of explicit per-dimension index sets.

    Closed under intersection with any separable selection; produced by
    :meth:`Selection.intersect`. A per-dimension set may be given as a
    ``range`` (positive step), which is kept as an interval.
    """

    __slots__ = ("_axes",)

    def __init__(self, shape, per_dim):
        super().__init__(shape)
        if len(per_dim) != self.ndim:
            raise SelectionError("need one index array per dimension")
        axes = []
        for d, a in enumerate(per_dim):
            if not (isinstance(a, range) and a.step > 0):
                a = np.asarray(a, dtype=np.int64).reshape(-1)
                if a.size > 1 and not (np.diff(a) > 0).all():
                    a = np.unique(a)
            if len(a) and (a[0] < 0 or a[-1] >= self.shape[d]):
                raise SelectionError(f"indices out of range in dim {d}")
            axes.append(_norm(a))
        self._axes = tuple(axes)

    def axes(self) -> tuple:
        return self._axes

    def simplify(self) -> Selection:
        """Collapse to a hyperslab when every dim is a contiguous run."""
        sel = _separable(self.shape, self._axes)
        return self if isinstance(sel, IndexSetSelection) else sel

    def __repr__(self):
        sizes = tuple(len(a) for a in self._axes)
        return f"IndexSetSelection(shape={self.shape}, sizes={sizes})"


class PointSelection(Selection):
    """An explicit, ordered list of coordinates."""

    __slots__ = ("_coords",)

    def __init__(self, shape, coords):
        super().__init__(shape)
        c = np.asarray(coords, dtype=np.int64)
        if c.size == 0:
            c = c.reshape(0, self.ndim)
        if c.ndim == 1 and self.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[1] != self.ndim:
            raise SelectionError(
                f"coords must be (k, {self.ndim}), got {c.shape}"
            )
        if c.size and (
            (c < 0).any() or (c >= np.asarray(self.shape, dtype=np.int64)).any()
        ):
            raise SelectionError("point coordinates out of extent")
        self._coords = c

    @property
    def npoints(self) -> int:
        """Number of selected points."""
        return self._coords.shape[0]

    def coords(self) -> np.ndarray:
        return self._coords

    def extract(self, arr):
        self._check_array(arr)
        if self.npoints == 0:
            return np.empty(0, dtype=arr.dtype)
        return arr[tuple(self._coords.T)]

    def scatter(self, values, arr):
        self._check_array(arr)
        values = np.asarray(values).reshape(-1)
        if values.size != self.npoints:
            raise SelectionError("value count != selection size")
        if self.npoints:
            arr[tuple(self._coords.T)] = values

    def intersect(self, other: Selection) -> Selection:
        self._check_extent(other)
        if other.npoints == 0 or self.npoints == 0:
            return NoneSelection(self.shape)
        if other.is_separable:
            mask = np.ones(self.npoints, dtype=bool)
            for a, col in zip(other.axes(), self._coords.T):
                mask &= _axis_contains(a, col)
        else:
            mask = np.isin(self.linear_indices(), other.linear_indices())
        if not mask.any():
            return NoneSelection(self.shape)
        return PointSelection(self.shape, self._coords[mask])

    def __repr__(self):
        return f"PointSelection(shape={self.shape}, npoints={self.npoints})"


# -- unbound selection specs (bound to a dataspace by the API layer) -------


class SelectionSpec:
    """A selection description not yet bound to an extent."""

    def bind(self, shape) -> Selection:  # pragma: no cover - interface
        """Materialize onto a concrete extent."""
        raise NotImplementedError


class _HyperslabSpec(SelectionSpec):
    def __init__(self, start, count, stride=None, block=None):
        self.start, self.count = start, count
        self.stride, self.block = stride, block

    def bind(self, shape) -> Selection:
        return HyperslabSelection(
            shape, self.start, self.count, self.stride, self.block
        )


class _PointsSpec(SelectionSpec):
    def __init__(self, coords):
        self.coords = coords

    def bind(self, shape) -> Selection:
        return PointSelection(shape, self.coords)


class _AllSpec(SelectionSpec):
    def bind(self, shape) -> Selection:
        return AllSelection(shape)


def hyperslab(start, count, stride=None, block=None) -> SelectionSpec:
    """Unbound hyperslab spec; bound to a dataset's shape by the API."""
    return _HyperslabSpec(start, count, stride, block)


def points(coords) -> SelectionSpec:
    """Unbound point-selection spec."""
    return _PointsSpec(coords)


def select_all() -> SelectionSpec:
    """Unbound whole-extent spec."""
    return _AllSpec()


def chunks_touched(sel: Selection, chunk_shape) -> int:
    """Number of fixed-shape chunks a selection intersects.

    Drives the chunk-aware I/O cost model (each touched chunk is one
    lock/IO unit on the file system).
    """
    chunk_shape = tuple(int(c) for c in chunk_shape)
    if len(chunk_shape) != sel.ndim or any(c < 1 for c in chunk_shape):
        raise SelectionError(f"bad chunk shape {chunk_shape}")
    if sel.npoints == 0:
        return 0
    if sel.is_separable:
        n = 1
        for a, c in zip(sel.axes(), chunk_shape):
            if isinstance(a, range) and a.step <= c:
                n *= a[-1] // c - a[0] // c + 1  # no chunk is skipped
            else:
                n *= len(np.unique(_indices(a) // c))
        return int(n)
    nchunks = tuple(-(-s // c) for s, c in zip(sel.shape, chunk_shape))
    chunk_of = sel.coords() // np.asarray(chunk_shape, dtype=np.int64)
    return len(np.unique(np.ravel_multi_index(tuple(chunk_of.T), nchunks)))


def bind_selection(sel, shape) -> Selection:
    """Coerce ``sel`` (None, spec, or bound selection) onto ``shape``."""
    if sel is None:
        return AllSelection(shape)
    if isinstance(sel, SelectionSpec):
        return sel.bind(shape)
    if isinstance(sel, Selection):
        if sel.shape != tuple(shape):
            raise SelectionError(
                f"selection extent {sel.shape} != dataspace shape {tuple(shape)}"
            )
        return sel
    raise SelectionError(f"cannot interpret selection: {sel!r}")
