"""Virtual Object Layer: the pluggable connector interface.

Every call made through :mod:`repro.h5.api` dispatches to a VOL
connector, mirroring HDF5 1.12's VOL. A connector receives opaque
*tokens* it minted itself (its own object representations), so stacking
works exactly like HDF5 VOL stacking: LowFive's metadata VOL sits on top
of (and optionally passes through to) the native VOL.

:class:`VOLBase` defines the callback surface. There are two kinds of
connector: the terminal :class:`~repro.h5.native.NativeVOL`, and
LowFive's :class:`~repro.lowfive.vol_metadata.MetadataVOL` (and its
distributed subclasses), which holds the connector it passes through to
as ``under`` -- the paper's *base VOL* (Sec. III-A).
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
    def file_create(self, fname, mode, comm):
        """Create (``mode`` in ``{"w", "x"}``) a file; return a token."""

    @abstractmethod
    def file_open(self, fname, mode, comm):
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

