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
ANL002    An ``isend``/``irecv`` result that never reaches ``wait``
          or ``test`` (dropped or forgotten request objects make the
          nonblocking API lie about completion).
ANL003    Raw ``threading`` coordination primitives (``Thread``,
          ``Condition``, ``Event``, ``Semaphore``, ``Barrier``,
          ``Timer``) outside the simmpi engine. Plain ``Lock`` /
          ``RLock`` guards for shared state are fine; *coordination*
          belongs to the engine, where it is accounted in virtual
          time.
ANL004    Float equality (``==`` / ``!=``) on virtual clocks
          (``clock`` / ``vtime`` names). Clock arithmetic
          accumulates rounding; compare with a tolerance.
ANL005    An ``h5.File`` opened and bound to a name that is neither
          ``with``-managed, ``close()``d, nor handed off in the same
          function. The path-sensitive twin is PRO004; this is the
          cheap syntactic net.
ANL006    A bare ``except:`` / ``except Exception:`` with no
          re-raise. :class:`~repro.simmpi.RankFailure` (and every
          other engine error) derives from ``Exception``, so such a
          handler silently swallows simulated rank crashes.
========  ==========================================================

Suppression: a trailing ``# noqa: ANL00X`` (or bare ``# noqa``)
silences the line; :data:`DEFAULT_ALLOWLIST` silences whole files
that are legitimately about real time or engine internals.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TypeGuard

from repro.analyze.frontend import (
    H5_FILE_TARGETS, Imports, check_files, dotted, resolve,
    suppressed_lines,
)

#: Rule code -> one-line description (the lint rule table).
RULES = {
    "ANL001": "wall-clock call in virtual-time code",
    "ANL002": "isend/irecv result never reaches wait/test",
    "ANL003": "raw threading primitive outside simmpi.engine",
    "ANL004": "float equality on virtual clocks",
    "ANL005": "h5 file opened without with/close in this function",
    "ANL006": "bare except swallows RankFailure",
}

#: Dotted call targets that read or spend real time.
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.thread_time", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: Dotted names of threading coordination primitives (locks excluded).
_THREAD_PRIMS = {
    "threading.Thread", "threading.Condition", "threading.Event",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Barrier", "threading.Timer",
}

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


class _RequestTracker(ast.NodeVisitor):
    """ANL002 within one function: requests must reach wait/test.

    Requests are tracked through the shapes real code uses: direct
    assignment, tuple unpacking (``ra, rb = comm.isend(...),
    comm.irecv(...)``), container literals and comprehensions
    (``reqs = [comm.isend(...) for ...]``) and ``append``/``extend``
    onto a *local* container. A local container of requests must
    itself reach a wait (as a call argument or by being iterated) or
    escape. Stores into attributes or subscripts cannot be followed,
    so they are reported as a distinct "unknown escape" instead of
    silently trusted.
    """

    def __init__(self, out: list[Violation], path: str,
                 suppressed: set[tuple[str, int]]) -> None:
        self.out = out
        self.path = path
        self.suppressed = suppressed
        # name -> (line, col) of the pending isend/irecv assignment
        self.pending: dict[str, tuple[int, int]] = {}
        # local container name -> origins of the requests it holds
        self.containers: dict[str, list[tuple[int, int]]] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are their own scope; walked separately

    visit_AsyncFunctionDef = visit_FunctionDef

    @staticmethod
    def _is_req_call(node: ast.AST) -> TypeGuard[ast.Call]:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("isend", "irecv"))

    def _collect(self, value: ast.AST) -> list[tuple[int, int]] | None:
        """Request origins carried by ``value``, or None when it is
        not a request-bearing expression we can follow."""
        if self._is_req_call(value):
            return [(value.lineno, value.col_offset)]
        if isinstance(value, ast.Name):
            if value.id in self.pending:
                return [self.pending.pop(value.id)]
            if value.id in self.containers:
                return self.containers.pop(value.id)
            return None
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            found: list[tuple[int, int]] = []
            for elt in value.elts:
                got = self._collect(elt)
                if got:
                    found.extend(got)
            return found or None
        if isinstance(value, (ast.ListComp, ast.SetComp,
                              ast.GeneratorExp)) \
                and self._is_req_call(value.elt):
            return [(value.elt.lineno, value.elt.col_offset)]
        return None

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if self._is_req_call(value) \
                and isinstance(value.func, ast.Attribute):
            self._flag(node.lineno, node.col_offset,
                       "request discarded: result of "
                       f"{value.func.attr} is never waited on")
            return
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if self._is_req_call(value):
                    self.pending[target.id] = (value.lineno,
                                               value.col_offset)
                    return
                got = self._collect(value)
                if got is not None:
                    self.containers[target.id] = got
                    return
                if isinstance(value, (ast.List, ast.Set, ast.Dict)) \
                        and not getattr(value, "elts",
                                        getattr(value, "keys", ())):
                    # ``reqs = []``: an empty *local* container we can
                    # follow through later append/extend calls.
                    self.containers[target.id] = []
                    return
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                self._unknown_escape(node, value)
                return
            elif isinstance(target, ast.Tuple) \
                    and isinstance(value, ast.Tuple) \
                    and len(target.elts) == len(value.elts):
                for t, v in zip(target.elts, value.elts):
                    if not isinstance(t, ast.Name):
                        continue
                    if self._is_req_call(v):
                        self.pending[t.id] = (v.lineno, v.col_offset)
                    else:
                        got = self._collect(v)
                        if got:
                            self.containers[t.id] = got
                return
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) \
                and node.target.id in self.containers:
            got = self._collect(node.value)
            if got:
                self.containers[node.target.id].extend(got)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            recv = f.value.id
            if f.attr in ("wait", "test"):
                self.pending.pop(recv, None)
                self.containers.pop(recv, None)
            elif f.attr in ("append", "extend", "add") \
                    and recv in self.containers:
                # Requests moved into a tracked local container stay
                # tracked instead of escaping.
                for arg in node.args:
                    got = self._collect(arg)
                    if got:
                        self.containers[recv].extend(got)
                return
        # Passing a name to any other call (wait_all, a helper, ...)
        # escapes it conservatively: the callee may wait it.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    self.pending.pop(sub.id, None)
                    self.containers.pop(sub.id, None)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # ``for r in reqs: r.wait()`` -- iterating a tracked container
        # hands each element to the loop; treat it as consumed.
        if isinstance(node.iter, ast.Name):
            self.containers.pop(node.iter.id, None)
        self.generic_visit(node)

    def _escape(self, value: ast.AST | None) -> None:
        if value is None:
            return
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name):
                self.pending.pop(sub.id, None)
                self.containers.pop(sub.id, None)

    def visit_Return(self, node: ast.Return) -> None:
        self._escape(node.value)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        self._escape(node.value)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._escape(node)

    def _unknown_escape(self, node: ast.Assign, value: ast.AST) -> None:
        """A store we cannot follow (attribute/subscript target)."""
        for sub in ast.walk(value):
            if not isinstance(sub, ast.Name):
                continue
            if sub.id in self.pending:
                line, col = self.pending.pop(sub.id)
                self._flag(line, col,
                           f"request {sub.id!r} escapes into an "
                           "attribute/subscript store (unknown "
                           "escape); cannot verify it reaches "
                           "wait/test")
            elif sub.id in self.containers:
                for line, col in self.containers.pop(sub.id):
                    self._flag(line, col,
                               f"request container {sub.id!r} escapes "
                               "into an attribute/subscript store "
                               "(unknown escape); cannot verify its "
                               "requests reach wait/test")

    def _flag(self, line: int, col: int, msg: str) -> None:
        if ("ANL002", line) in self.suppressed:
            return
        self.out.append(Violation(self.path, line, col, "ANL002", msg))

    def finish(self) -> None:
        leaks = [(origin, f"request {name!r} never reaches wait/test")
                 for name, origin in self.pending.items()]
        leaks += [(origin, f"request in container {name!r} never "
                           "reaches wait/test")
                  for name, origins in self.containers.items()
                  for origin in origins]
        for (line, col), msg in sorted(leaks):
            self._flag(line, col, msg)


class _FileTracker(ast.NodeVisitor):
    """ANL005 within one function: named ``h5.File`` opens must be
    ``with``-managed, closed, or handed off before the function ends.

    Deliberately shallower than PRO004 (no path sensitivity): a
    ``close()`` or any escape anywhere in the function clears the
    name. The point is catching the file nobody even *tries* to
    close.
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
                and resolve(dotted(node.func), self.alias)
                in H5_FILE_TARGETS)

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
    suppressed = suppressed_lines(source, RULES)
    imports = Imports()
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
            target = resolve(dotted(node.func), alias)
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
            caught = dotted(node.type) if node.type is not None else None
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
            if "ANL002" not in skip:
                tracker = _RequestTracker(out, path, suppressed)
                for stmt in node.body:
                    tracker.visit(stmt)
                tracker.finish()
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
    return check_files(
        paths, lambda source, f: lint_source(source, f, _skip_for(f)))
