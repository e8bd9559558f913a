"""Inspection of native-format files (h5ls / h5dump equivalents)."""

from __future__ import annotations

import io

import numpy as np

from repro.h5 import format as h5format
from repro.h5.objects import DatasetNode, GroupNode
from repro.h5.selection import AllSelection
from repro.tools.transfer import import_store


def h5ls(src, name: str = "") -> str:
    """One line per object of ``src`` (a file image or an open store
    handle), like ``h5ls -r``: path, kind, shape/type. Reads no payload."""
    root = h5format.decode_file(src, name)
    out = io.StringIO()
    for node in root.walk():
        if isinstance(node, DatasetNode):
            out.write(
                f"{node.path:<40} Dataset {node.space.shape} "
                f"{node.dtype.np}\n"
            )
        elif isinstance(node, GroupNode):
            out.write(f"{node.path:<40} Group\n")
    return out.getvalue()


def _dump_attrs(node, out, indent):
    for aname in sorted(node.attributes):
        attr = node.attributes[aname]
        val = "<unwritten>"
        if attr.value is not None:
            val = np.array2string(np.asarray(attr.value), threshold=8)
        out.write(f"{indent}@{aname} = {val}\n")


def h5dump(src, name: str = "", max_elements: int = 16) -> str:
    """Tree + attributes + data preview, like a compact ``h5dump``."""
    root = h5format.decode_file(src, name)
    out = io.StringIO()
    out.write(f"FILE {root.name or '<unnamed>'}\n")
    _dump_attrs(root, out, "  ")

    def walk(group, depth):
        indent = "  " * (depth + 1)
        for cname in sorted(group.children):
            node = group.children[cname]
            if isinstance(node, DatasetNode):
                out.write(
                    f"{indent}DATASET {cname} shape={node.space.shape} "
                    f"dtype={node.dtype.np} pieces={len(node.pieces)}\n"
                )
                _dump_attrs(node, out, indent + "  ")
                if node.space.npoints and node.pieces:
                    data = node.read(AllSelection(node.space.shape))
                    preview = np.array2string(
                        data[:max_elements], threshold=max_elements
                    )
                    suffix = " ..." if data.size > max_elements else ""
                    out.write(f"{indent}  data: {preview}{suffix}\n")
            else:
                out.write(f"{indent}GROUP {cname}\n")
                _dump_attrs(node, out, indent + "  ")
                walk(node, depth + 1)

    walk(root, 0)
    return out.getvalue()


def run(args) -> int:
    """Entry point for the ``h5ls`` / ``h5dump`` subcommands."""
    handle = import_store(args.directory).open(args.file)
    print(args.inspect(handle, args.file), end="")
    return 0


def add_parser(sub) -> None:
    """Register the ``h5ls`` and ``h5dump`` subcommands on ``sub``."""
    for cmd, fn in (("h5ls", h5ls), ("h5dump", h5dump)):
        p = sub.add_parser(cmd, help=f"{cmd} a file from an exported "
                                     "store directory")
        p.add_argument("directory", help="directory written by export_store")
        p.add_argument("file", help="file name within the directory")
        p.set_defaults(run=run, inspect=fn)
