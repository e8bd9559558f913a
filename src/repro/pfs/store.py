"""Byte store backing the simulated parallel file system.

The store is shared by every simulated rank (the real Lustre namespace is
globally visible). It holds whole files as resizable bytearrays and
supports positional reads/writes, which is all the native VOL's file
format needs.

Each byte is copied once on each side. A create given a finished
``image`` (the bytearray an h5 writer appended its data and metadata
to) adopts it as the new entry, uncopied. A read of an h5 piece is a
read-only view of the entry (:meth:`FileHandle.view`), or, for a
selection a view cannot express, a gather (:meth:`FileHandle.gather`)
that copies the byte runs of one overlap into one fresh array: either
way the reader's own copy of only the bytes asked for is the one copy.

A handle keeps the contents it opened, like a descriptor its inode: a
truncating create installs a fresh entry under the name. Views are taken
only of h5 images, which nothing extends in place once they are stored
(an exported buffer would make an extending ``pwrite`` raise
``BufferError``); ``pread`` and ``gather`` return copies.
"""

from __future__ import annotations

import numpy as np


def gather(buf, offsets, length: int) -> np.ndarray:
    """The runs ``buf[o:o + length]`` for every ``o`` in ``offsets``, back
    to back in one fresh ``uint8`` array: each byte is copied once. A
    run reaching past the end of ``buf`` is cut short there (a short
    read, as :meth:`FileHandle.pread` makes)."""
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
    size = len(buf)
    if offsets.size == 0:
        return np.empty(0, dtype=np.uint8)
    if int(offsets.max()) + length > size:
        view = memoryview(buf)
        return np.frombuffer(bytearray().join(
            [view[o:o + length] for o in offsets.tolist()]), dtype=np.uint8)
    # Row o of the window view is buf[o:o + length]; fancy indexing
    # copies the chosen rows out, and dropping the views unpins buf.
    base = np.frombuffer(buf, dtype=np.uint8)
    windows = np.lib.stride_tricks.as_strided(
        base, (size - length + 1, length), (1, 1), writeable=False)
    out = windows[offsets].reshape(-1)
    del base, windows
    return out


def window(buf, offset: int, length: int) -> np.ndarray:
    """A read-only ``uint8`` view of ``buf[offset:offset + length]``, cut
    short at the end of ``buf``."""
    out = np.frombuffer(buf, dtype=np.uint8)[offset:offset + length]
    out.flags.writeable = False
    return out


class PFSStore:
    """A flat namespace of files with positional I/O.

    Statistics (bytes read/written, op counts) are tracked for the
    benchmark harness.
    """

    def __init__(self):
        self._files: dict[str, bytearray] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.n_creates = 0
        self.n_opens = 0

    # -- namespace ------------------------------------------------------------

    def create(self, name: str, truncate: bool = True,
               image: bytearray | None = None) -> "FileHandle":
        """Create (or truncate) a file and return a handle.

        ``image``, a finished file's bytes, becomes the entry itself:
        no byte is copied, and its writer extends it no further.
        """
        if not truncate and name in self._files:
            raise FileExistsError(f"file exists: {name}")
        entry = bytearray() if image is None else image
        self._files[name] = entry
        self.bytes_written += len(entry)
        self.n_creates += 1
        return FileHandle(self, name, entry)

    def open_or_create(self, name: str) -> "FileHandle":
        """Open ``name``, creating it (empty) if absent, so writers
        sharing a file never truncate each other."""
        entry = self._files.get(name)
        if entry is None:
            entry = bytearray()
            self._files[name] = entry
            self.n_creates += 1
        else:
            self.n_opens += 1
        return FileHandle(self, name, entry)

    def open(self, name: str) -> "FileHandle":
        """Open an existing file."""
        entry = self._files.get(name)
        if entry is None:
            raise FileNotFoundError(f"no such file: {name}")
        self.n_opens += 1
        return FileHandle(self, name, entry)

    def exists(self, name: str) -> bool:
        """True when ``name`` exists."""
        return name in self._files

    def unlink(self, name: str) -> None:
        """Remove ``name`` from the namespace."""
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name}")
        del self._files[name]

    def listdir(self) -> list[str]:
        """Sorted names of all stored files."""
        return sorted(self._files)

    def size(self, name: str) -> int:
        """Size of ``name`` in bytes."""
        entry = self._files.get(name)
        if entry is None:
            raise FileNotFoundError(f"no such file: {name}")
        return len(entry)


class FileHandle:
    """Positional read/write access to one stored file."""

    __slots__ = ("_store", "name", "_data")

    def __init__(self, store: PFSStore, name: str, data: bytearray):
        self._store = store
        self.name = name
        self._data = data

    def pwrite(self, offset: int, data) -> None:
        """Write ``data`` (any contiguous buffer) at ``offset``, growing
        the file as needed; only a hole before ``offset`` is zero-filled."""
        with memoryview(data).cast("B") as view:
            buf = self._data
            if offset > len(buf):
                buf += bytes(offset - len(buf))
            # Overwrite in place what exists, append the rest: a slice
            # assignment that grows a bytearray is ~10x slower than +=.
            inplace = min(len(view), len(buf) - offset)
            buf[offset:offset + inplace] = view[:inplace]
            buf += view[inplace:]
            self._store.bytes_written += len(view)

    def pread(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (short read past EOF)."""
        with memoryview(self._data) as view:
            out = bytes(view[offset:offset + length])
        self._store.bytes_read += len(out)
        return out

    def view(self, offset: int, length: int, take):
        """``take(w)``, for ``w`` the read-only ``uint8`` view of the
        ``length`` bytes at ``offset`` (short past EOF): a view of the
        entry itself, counted as the bytes of what ``take`` returns
        (nothing when it returns None)."""
        out = take(window(self._data, offset, length))
        if out is not None:
            self._store.bytes_read += out.nbytes
        return out

    def same_file(self, other: "FileHandle") -> bool:
        """True when both handles read the same contents: no truncating
        create of the name came between their opens."""
        return self._data is other._data

    def gather(self, offsets, length: int) -> np.ndarray:
        """Read the ``length``-byte runs at ``offsets`` into one fresh
        ``uint8`` array (see :func:`gather`; short past EOF)."""
        out = gather(self._data, offsets, length)
        self._store.bytes_read += out.nbytes
        return out

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return len(self._data)
