"""Source front end shared by the ANL lint and the PRO checker.

Both checkers are name-based: they resolve a call's dotted name through
the module's imports, honour trailing ``# noqa`` comments, and walk
directory trees for ``.py`` files. They differ only in their rule table
and in which trees a walk excludes.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")

#: Import-resolved call targets that open an h5 file handle.
H5_FILE_TARGETS = {"repro.h5.File", "repro.h5.api.File", "h5.File"}


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Imports(ast.NodeVisitor):
    """Maps local names to the dotted path they import."""

    def __init__(self) -> None:
        self.alias: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        """``import a.b [as c]``: the bound name maps to its module."""
        for a in node.names:
            self.alias[a.asname or a.name.split(".")[0]] = \
                a.name if a.asname else a.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """``from m import x [as y]``; relative imports are skipped."""
        if node.module is None or node.level:
            return
        for a in node.names:
            self.alias[a.asname or a.name] = f"{node.module}.{a.name}"


def resolve(name: str | None, alias: dict[str, str]) -> str | None:
    """Expand the leading segment of a dotted chain through imports."""
    if name is None:
        return None
    head, _, rest = name.partition(".")
    base = alias.get(head)
    if base is None:
        return name
    return f"{base}.{rest}" if rest else base


def suppressed_lines(source: str,
                     rules: Iterable[str]) -> set[tuple[str, int]]:
    """``(code, line)`` pairs silenced by ``# noqa`` comments; a bare
    ``# noqa`` silences every code in ``rules``."""
    out: set[tuple[str, int]] = set()
    for i, text in enumerate(source.splitlines(), start=1):
        if "# noqa" not in text:
            continue
        _, _, tail = text.partition("# noqa")
        tail = tail.strip()
        if tail.startswith(":"):
            for code in tail[1:].replace(",", " ").split():
                out.add((code.strip(), i))
        else:
            for code in rules:
                out.add((code, i))
    return out


def check_files(paths: Iterable[str], check: Callable[[str, str], list[T]],
                exclude: tuple[str, ...] = ()) -> list[T]:
    """Run ``check(source, path)`` over files and directory trees.

    Results come file by file in path order, each file's in the order
    ``check`` returns them. A directory walk skips files whose path
    contains an ``exclude`` fragment; a file named explicitly is always
    checked.
    """
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for n in names:
                    f = os.path.join(root, n)
                    norm = f.replace(os.sep, "/")
                    if n.endswith(".py") \
                            and not any(x in norm for x in exclude):
                        files.append(f)
        elif p.endswith(".py"):
            files.append(p)
    out: list[T] = []
    for f in sorted(set(files)):
        with open(f, encoding="utf-8") as fh:
            out.extend(check(fh.read(), f))
    return out
