"""Move simulated-PFS contents to/from a real directory."""

from __future__ import annotations

import os

from repro.pfs.store import PFSStore


def _safe_path(base: str, name: str) -> str:
    """Resolve a store name under ``base``, refusing path escapes."""
    path = os.path.normpath(os.path.join(base, name))
    if not path.startswith(os.path.abspath(base) + os.sep) \
            and path != os.path.abspath(base):
        raise ValueError(f"unsafe store name {name!r}")
    return path


def export_store(store: PFSStore, directory: str) -> list[str]:
    """Write every stored file to ``directory`` (subdirs as needed).

    Returns the exported file names.
    """
    base = os.path.abspath(directory)
    os.makedirs(base, exist_ok=True)
    exported = []
    for name in store.listdir():
        path = _safe_path(base, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        handle = store.open(name)
        with open(path, "wb") as f:
            f.write(handle.pread(0, handle.size))
        exported.append(name)
    return exported


def import_store(directory: str, store: PFSStore | None = None) -> PFSStore:
    """Load a directory tree (written by :func:`export_store`) into a
    store, preserving relative names."""
    base = os.path.abspath(directory)
    store = store if store is not None else PFSStore()
    for root, _dirs, files in os.walk(base):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            name = os.path.relpath(path, base).replace(os.sep, "/")
            with open(path, "rb") as f:
                store.create(name).pwrite(0, f.read())
    return store
