"""Virtual Object Layer: the pluggable connector interface.

Every call made through :mod:`repro.h5.api` dispatches to a VOL
connector, mirroring HDF5 1.12's VOL. A connector receives opaque
*tokens* it minted itself (its own object representations), so stacking
works exactly like HDF5 VOL stacking: LowFive's metadata VOL sits on top
of (and optionally passes through to) the native VOL.

:class:`VOLBase` defines the callback surface; :class:`PassthroughVOL`
forwards everything to an underlying connector and is the base class for
LowFive's layered design (paper Sec. III-A: base VOL -> metadata VOL ->
distributed metadata VOL).
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class VOLBase(ABC):
    """Abstract VOL connector.

    Tokens are connector-defined handles. ``comm`` is the simulated
    communicator of the task performing the operation (``None`` for
    serial use).
    """

    name = "abstract"

    # -- files ------------------------------------------------------------

    @abstractmethod
    def file_create(self, fname, mode, fapl, comm):
        """Create (``mode`` in ``{"w", "x"}``) a file; return a token."""

    @abstractmethod
    def file_open(self, fname, mode, fapl, comm):
        """Open an existing file (``mode`` in ``{"r", "a"}``)."""

    @abstractmethod
    def file_close(self, ftoken):
        """Close the file: flush, release, and (for transports) signal."""

    def file_flush(self, ftoken):
        """Flush pending state (default: no-op)."""

    # -- groups ------------------------------------------------------------

    @abstractmethod
    def group_create(self, parent, name):
        """Create a group under ``parent`` token; return a group token."""

    @abstractmethod
    def group_open(self, parent, name):
        """Open an existing group."""

    # -- datasets ------------------------------------------------------------

    @abstractmethod
    def dataset_create(self, parent, name, dtype, space, dcpl):
        """Create a dataset; return a dataset token."""

    @abstractmethod
    def dataset_open(self, parent, name):
        """Open an existing dataset."""

    @abstractmethod
    def dataset_meta(self, dtoken):
        """Return ``(Datatype, Dataspace)`` of an open dataset."""

    @abstractmethod
    def dataset_write(self, dtoken, selection, data, dxpl):
        """Write flat ``data`` (selection order) into ``selection``."""

    @abstractmethod
    def dataset_read(self, dtoken, selection, dxpl):
        """Read ``selection``; return flat values in selection order."""

    def dataset_close(self, dtoken):
        """Close a dataset handle (default: no-op)."""

    # -- attributes ---------------------------------------------------------

    @abstractmethod
    def attr_create(self, obj, name, dtype, space):
        """Create an attribute on an object token."""

    @abstractmethod
    def attr_write(self, atoken, value):
        """Write an attribute's value."""

    @abstractmethod
    def attr_open(self, obj, name):
        """Open an attribute by name."""

    @abstractmethod
    def attr_read(self, atoken):
        """Read an attribute's value."""

    @abstractmethod
    def attr_list(self, obj):
        """List attribute names on an object."""

    # -- links / introspection ---------------------------------------------

    @abstractmethod
    def link_exists(self, parent, path):
        """True when ``path`` resolves under ``parent``."""

    @abstractmethod
    def links(self, parent):
        """List of ``(name, kind)`` under a group token; kind in
        ``{"group", "dataset"}``."""

    @abstractmethod
    def object_open(self, parent, path):
        """Open ``path``; return ``(kind, token)``."""


class PassthroughVOL(VOLBase):
    """Forwards every callback to an ``under`` connector.

    This is the paper's *base VOL*: "any HDF5 functions that are not
    redefined in the subsequent layers are caught at this base layer and
    pass through to native HDF5 file I/O". Layered connectors subclass
    this and override what they intercept.
    """

    name = "passthrough"

    def __init__(self, under: VOLBase | None):
        self.under = under

    def _require_under(self):
        if self.under is None:
            raise RuntimeError(
                f"{type(self).__name__} has no underlying VOL to pass "
                "through to (operation not intercepted)"
            )
        return self.under

    def file_create(self, fname, mode, fapl, comm):
        return self._require_under().file_create(fname, mode, fapl, comm)

    def file_open(self, fname, mode, fapl, comm):
        return self._require_under().file_open(fname, mode, fapl, comm)

    def file_close(self, ftoken):
        return self._require_under().file_close(ftoken)

    def file_flush(self, ftoken):
        return self._require_under().file_flush(ftoken)

    def group_create(self, parent, name):
        return self._require_under().group_create(parent, name)

    def group_open(self, parent, name):
        return self._require_under().group_open(parent, name)

    def dataset_create(self, parent, name, dtype, space, dcpl):
        return self._require_under().dataset_create(
            parent, name, dtype, space, dcpl
        )

    def dataset_open(self, parent, name):
        return self._require_under().dataset_open(parent, name)

    def dataset_meta(self, dtoken):
        return self._require_under().dataset_meta(dtoken)

    def dataset_write(self, dtoken, selection, data, dxpl):
        return self._require_under().dataset_write(dtoken, selection, data, dxpl)

    def dataset_read(self, dtoken, selection, dxpl):
        return self._require_under().dataset_read(dtoken, selection, dxpl)

    def dataset_close(self, dtoken):
        return self._require_under().dataset_close(dtoken)

    def attr_create(self, obj, name, dtype, space):
        return self._require_under().attr_create(obj, name, dtype, space)

    def attr_write(self, atoken, value):
        return self._require_under().attr_write(atoken, value)

    def attr_open(self, obj, name):
        return self._require_under().attr_open(obj, name)

    def attr_read(self, atoken):
        return self._require_under().attr_read(atoken)

    def attr_list(self, obj):
        return self._require_under().attr_list(obj)

    def link_exists(self, parent, path):
        return self._require_under().link_exists(parent, path)

    def links(self, parent):
        return self._require_under().links(parent)

    def object_open(self, parent, path):
        return self._require_under().object_open(parent, path)
