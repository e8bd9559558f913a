"""Byte store backing the simulated parallel file system.

The store is shared by every simulated rank (the real Lustre namespace is
globally visible), and thread-safe. It holds whole files as resizable
bytearrays and supports positional reads/writes, which is all the native
VOL's file format needs.

A handle keeps the contents it opened, like a descriptor its inode: a
truncating create installs a fresh entry under the name. Every read is a
copy; no view of a file's bytearray leaves this module (an exported
buffer would make the next extending write raise ``BufferError``).
"""

from __future__ import annotations

import threading


class _FileEntry:
    __slots__ = ("data", "lock")

    def __init__(self):
        self.data = bytearray()
        self.lock = threading.Lock()


class PFSStore:
    """A flat namespace of files with positional I/O.

    Statistics (bytes read/written, op counts) are tracked for the
    benchmark harness.
    """

    def __init__(self):
        self._files: dict[str, _FileEntry] = {}
        self._lock = threading.Lock()
        self.bytes_written = 0
        self.bytes_read = 0
        self.n_creates = 0
        self.n_opens = 0

    # -- namespace ------------------------------------------------------------

    def create(self, name: str, truncate: bool = True) -> "FileHandle":
        """Create (or truncate) a file and return a handle."""
        with self._lock:
            if not truncate and name in self._files:
                raise FileExistsError(f"file exists: {name}")
            entry = self._files[name] = _FileEntry()
            self.n_creates += 1
        return FileHandle(self, name, entry)

    def open_or_create(self, name: str) -> "FileHandle":
        """Open ``name``, creating it (empty) if absent. Atomic, so
        concurrent writers sharing a file never truncate each other."""
        with self._lock:
            entry = self._files.get(name)
            if entry is None:
                entry = _FileEntry()
                self._files[name] = entry
                self.n_creates += 1
            else:
                self.n_opens += 1
        return FileHandle(self, name, entry)

    def open(self, name: str) -> "FileHandle":
        """Open an existing file."""
        with self._lock:
            entry = self._files.get(name)
            if entry is None:
                raise FileNotFoundError(f"no such file: {name}")
            self.n_opens += 1
        return FileHandle(self, name, entry)

    def exists(self, name: str) -> bool:
        """True when ``name`` exists."""
        with self._lock:
            return name in self._files

    def unlink(self, name: str) -> None:
        """Remove ``name`` from the namespace."""
        with self._lock:
            if name not in self._files:
                raise FileNotFoundError(f"no such file: {name}")
            del self._files[name]

    def listdir(self) -> list[str]:
        """Sorted names of all stored files."""
        with self._lock:
            return sorted(self._files)

    def size(self, name: str) -> int:
        """Size of ``name`` in bytes."""
        with self._lock:
            entry = self._files.get(name)
            if entry is None:
                raise FileNotFoundError(f"no such file: {name}")
            return len(entry.data)


class FileHandle:
    """Positional read/write access to one stored file."""

    __slots__ = ("_store", "name", "_entry")

    def __init__(self, store: PFSStore, name: str, entry: _FileEntry):
        self._store = store
        self.name = name
        self._entry = entry

    def pwrite(self, offset: int, data) -> None:
        """Write ``data`` (any contiguous buffer) at ``offset``, growing
        the file as needed; only a hole before ``offset`` is zero-filled."""
        with memoryview(data).cast("B") as view, self._entry.lock:
            buf = self._entry.data
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
        with self._entry.lock, memoryview(self._entry.data) as view:
            out = bytes(view[offset:offset + length])
        self._store.bytes_read += len(out)
        return out

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        with self._entry.lock:
            return len(self._entry.data)
