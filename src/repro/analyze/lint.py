"""Static lint for virtual-time code (AST-based, zero dependencies).

The simulator's whole value is that time is *virtual*: every duration
comes from the cost model and every schedule decision from virtual
arrival order. The bugs that silently break that property follow
recurring shapes, each of which is mechanically detectable:

========  ==========================================================
ANL001    Wall-clock call (``time.time``, ``time.monotonic``,
          ``time.perf_counter``, ``time.sleep``, ``datetime.now``,
          ...) in virtual-time code. Real time must only appear in
          explicitly wall-clock harnesses.
ANL003    Raw ``threading`` primitives (``Thread``, ``Condition``,
          ``Event``, ``Semaphore``, ``Barrier``, ``Timer``, ``Lock``,
          ``RLock``, ``local``) outside the simmpi engine. Only the
          baton holder runs, so library state needs no lock; a lock
          held across a blocking simmpi call would hang the run.
          Coordination belongs to the engine, where it is accounted
          in virtual time.
ANL004    Float equality (``==`` / ``!=``) on virtual clocks
          (``clock`` / ``vtime`` names). Clock arithmetic
          accumulates rounding; compare with a tolerance.
ANL005    An ``h5.File`` opened and bound to a name that is neither
          ``with``-managed, ``close()``d, nor handed off in the same
          function.
ANL006    A bare ``except:`` / ``except Exception:`` with no
          re-raise. :class:`~repro.simmpi.RankFailure` (and every
          other engine error) derives from ``Exception``, so such a
          handler silently swallows simulated rank crashes.
========  ==========================================================

The rules are name-based: a call's dotted name is resolved through the
module's imports. Suppression: a trailing ``# noqa: ANL00X`` (or bare
``# noqa``) silences the line; :data:`DEFAULT_ALLOWLIST` silences
whole files that are legitimately about real time or engine internals.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TypeGuard

#: Rule code -> one-line description (the lint rule table).
RULES = {
    "ANL001": "wall-clock call in virtual-time code",
    "ANL003": "raw threading primitive outside simmpi.engine",
    "ANL004": "float equality on virtual clocks",
    "ANL005": "h5 file opened without with/close in this function",
    "ANL006": "bare except swallows RankFailure",
}

#: Import-resolved call targets that open an h5 file handle.
_H5_FILE_TARGETS = {"repro.h5.File", "repro.h5.api.File", "h5.File"}

#: Dotted call targets that read or spend real time.
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.thread_time", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: Dotted names of threading primitives.
_THREAD_PRIMS = {f"threading.{name}" for name in (
    "Thread", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "Timer", "Lock", "RLock", "local",
)}

#: ``rule -> path suffixes`` where the rule does not apply: the engine
#: really does own the threads (rank runners), and the
#: wall-clock-reporting benchmarks are *about* real seconds.
DEFAULT_ALLOWLIST = {
    "ANL001": (
        "benchmarks/bench_gate.py",
    ),
    "ANL003": (
        "src/repro/simmpi/engine.py",
    ),
}


@dataclass(frozen=True)
class Violation:
    """One lint finding: ``path:line: code message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The ``path:line:col: CODE message`` line the CLI prints."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} " \
               f"{self.message}"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Imports(ast.NodeVisitor):
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


def _resolve(name: str | None, alias: dict[str, str]) -> str | None:
    """Expand the leading segment of a dotted chain through imports."""
    if name is None:
        return None
    head, _, rest = name.partition(".")
    base = alias.get(head)
    if base is None:
        return name
    return f"{base}.{rest}" if rest else base


def _suppressed_lines(source: str) -> set[tuple[str, int]]:
    """``(code, line)`` pairs silenced by ``# noqa`` comments; a bare
    ``# noqa`` silences every rule."""
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
            for code in RULES:
                out.add((code, i))
    return out


def _clockish(node: ast.AST) -> bool:
    """True for expressions that read a virtual clock."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is None:
        return False
    name = name.lower()
    return name in ("clock", "vtime") or name.endswith("_clock") \
        or name.endswith("_vtime")


class _FileTracker(ast.NodeVisitor):
    """ANL005 within one function: named ``h5.File`` opens must be
    ``with``-managed, closed, or handed off before the function ends.

    Not path-sensitive: a ``close()`` or any escape anywhere in the
    function clears the name. The point is catching the file nobody
    even *tries* to close.
    """

    def __init__(self, out: list[Violation], path: str,
                 suppressed: set[tuple[str, int]],
                 alias: dict[str, str]) -> None:
        self.out = out
        self.path = path
        self.suppressed = suppressed
        self.alias = alias
        self.pending: dict[str, tuple[int, int]] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are their own scope; walked separately

    visit_AsyncFunctionDef = visit_FunctionDef

    def _is_file_call(self, node: ast.AST) -> TypeGuard[ast.Call]:
        return (isinstance(node, ast.Call)
                and _resolve(_dotted(node.func), self.alias)
                in _H5_FILE_TARGETS)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_file_call(node.value) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            self.pending[node.targets[0].id] = (node.lineno,
                                                node.col_offset)
            return
        if len(node.targets) == 1 and isinstance(
                node.targets[0], (ast.Attribute, ast.Subscript)):
            self._escape(node.value)  # stored for later use elsewhere
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        # ``with h5.File(...) as f:`` is the blessed shape, and
        # ``with f:`` closes a previously assigned handle.
        for item in node.items:
            if isinstance(item.context_expr, ast.Name):
                self.pending.pop(item.context_expr.id, None)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "close" \
                and isinstance(f.value, ast.Name):
            self.pending.pop(f.value.id, None)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._escape(arg)
        self.generic_visit(node)

    def _escape(self, value: ast.AST | None) -> None:
        """Hand-off of the handle *itself*: a bare name, or names
        directly inside a container literal. Merely *using* the
        handle (``f['d'].read()``) is not an escape."""
        if isinstance(value, ast.Name):
            self.pending.pop(value.id, None)
        elif isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            for elt in value.elts:
                self._escape(elt)
        elif isinstance(value, ast.Dict):
            for v in value.values:
                self._escape(v)

    def visit_Return(self, node: ast.Return) -> None:
        self._escape(node.value)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        self._escape(node.value)
        self.generic_visit(node)

    def finish(self) -> None:
        for name, (line, col) in sorted(self.pending.items(),
                                        key=lambda kv: kv[1]):
            if ("ANL005", line) in self.suppressed:
                continue
            self.out.append(Violation(
                self.path, line, col, "ANL005",
                f"h5 file {name!r} opened without with/close in this "
                "function (leaks the handle on every path)"))


def lint_source(source: str, path: str,
                skip: frozenset[str] = frozenset()) -> list[Violation]:
    """Lint one file's text; ``skip`` holds rule codes to ignore."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, exc.offset or 0,
                          "ANL000", f"syntax error: {exc.msg}")]
    suppressed = _suppressed_lines(source)
    imports = _Imports()
    imports.visit(tree)
    alias = imports.alias
    out: list[Violation] = []

    def flag(code: str, node: ast.AST, msg: str) -> None:
        if code in skip or (code, node.lineno) in suppressed:
            return
        out.append(Violation(path, node.lineno, node.col_offset, code,
                             msg))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _resolve(_dotted(node.func), alias)
            if target in _WALLCLOCK:
                flag("ANL001", node,
                     f"wall-clock call {target}() in virtual-time "
                     "code (durations must come from the cost model)")
            if target in _THREAD_PRIMS:
                flag("ANL003", node,
                     f"raw {target} outside simmpi.engine (schedule "
                     "coordination belongs to the engine)")
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                    and any(_clockish(o) for o in operands):
                flag("ANL004", node,
                     "float equality on a virtual clock; compare with "
                     "a tolerance (clock arithmetic accumulates "
                     "rounding)")
        elif isinstance(node, ast.ExceptHandler):
            caught = _dotted(node.type) if node.type is not None else None
            swallows = node.type is None \
                or caught in ("Exception", "BaseException")
            reraises = any(isinstance(n, ast.Raise)
                           for n in ast.walk(node))
            if swallows and not reraises:
                what = "bare except" if node.type is None \
                    else f"except {caught}"
                flag("ANL006", node,
                     f"{what} with no re-raise swallows RankFailure "
                     "(simulated rank crashes); catch a narrower "
                     "type or re-raise")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "ANL005" not in skip:
                files = _FileTracker(out, path, suppressed, alias)
                for stmt in node.body:
                    files.visit(stmt)
                files.finish()
    out.sort(key=lambda v: (v.line, v.col, v.code))
    return out


def _skip_for(path: str) -> frozenset[str]:
    """Rule codes :data:`DEFAULT_ALLOWLIST` silences for ``path``."""
    norm = path.replace(os.sep, "/")
    return frozenset(code for code, suffixes in DEFAULT_ALLOWLIST.items()
                     if any(norm.endswith(s) for s in suffixes))


def lint_paths(paths: Iterable[str]) -> list[Violation]:
    """Lint files and directory trees; violations in path, then line
    order."""
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(root, n)
                      for root, _dirs, names in os.walk(p)
                      for n in names if n.endswith(".py")]
        elif p.endswith(".py"):
            files.append(p)
    out: list[Violation] = []
    for f in sorted(set(files)):
        with open(f, encoding="utf-8") as fh:
            out.extend(lint_source(fh.read(), f, _skip_for(f)))
    return out
