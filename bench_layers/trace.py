"""Host-time attribution by module, from outside the program.

:class:`Tracer` wraps, at run time, every function and method defined
in the modules listed in :data:`LAYERS` (found by introspection, not
from a list of names) and records a span whenever control *enters* a
module from another one: module, wall start/end, thread-CPU start/end
and the span that caused it. Calls that stay inside the module they
came from run straight through, which keeps the overhead to a few
microseconds per boundary crossing. ``from x import f`` aliases held by
any loaded ``repro.*`` module are re-bound to the wrapper, and
:meth:`Tracer.stop` puts every original back.

Spans are kept in per-thread lists and folded by :func:`fold` after the
repetition: a module's self time is its spans' duration minus the part
covered by their child spans. CPU self time is ``time.thread_time``
(this thread, on a core); ``wait_s`` is wall self time minus CPU self
time -- the thread was blocked on another rank or on the interpreter
lock.

Private functions are wrapped too, because bodies of context managers
and callbacks are entered from outside their module through them;
generator functions and property setters are left alone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import types

import hostclock

#: package -> modules traced (``None``: every submodule, one layer).
LAYERS = {
    "simmpi": ("comm", "engine", "mailbox"),
    "h5": ("api", "selection", "format", "objects", "native"),
    "diy": ("decomposer", "bounds"),
    "lowfive": ("vol_dist", "vol_staged", "vol_metadata", "rpc"),
    "stream": ("producer", "consumer"),
    "pfs": ("lustre", "mpiio", "store"),
    "obs": None,
    "workflow": ("runner",),
}


def layer_names() -> list[str]:
    """Every reported layer: ``pkg.module`` or, for ``None``, ``pkg``."""
    out = []
    for pkg, mods in LAYERS.items():
        out.extend([pkg] if mods is None else [f"{pkg}.{m}" for m in mods])
    return out


def rollup_packages() -> list[str]:
    """Packages reported as the sum of more than one module."""
    return [p for p, mods in LAYERS.items() if mods and len(mods) > 1]


def _resolve() -> tuple[dict, list[str]]:
    """``{module object: layer name}`` and the layers that are gone."""
    found, missing = {}, []
    for pkg, mods in LAYERS.items():
        if mods is None:
            try:
                importlib.import_module(f"repro.{pkg}")
            except ImportError:
                missing.append(pkg)
                continue
            prefix = f"repro.{pkg}"
            for name, mod in list(sys.modules.items()):
                if mod is not None and (name == prefix
                                        or name.startswith(prefix + ".")):
                    found[mod] = pkg
            continue
        for m in mods:
            try:
                found[importlib.import_module(f"repro.{pkg}.{m}")] = \
                    f"{pkg}.{m}"
            except ImportError:
                missing.append(f"{pkg}.{m}")
    return found, missing


class Tracer:
    """Wraps the layers' functions between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: One span list per thread that entered a traced module. A span
        #: is ``[layer, parent index, wall0, cpu0, wall1, cpu1]``.
        self.threads: list[list] = []
        self._undo: list[tuple] = []
        self.modules_missing: list[str] = []

    # -- the wrapper ---------------------------------------------------------

    def _state(self):
        tls = self._tls
        try:
            return tls.state
        except AttributeError:
            spans: list = []
            with self._lock:
                self.threads.append(spans)
            # [spans, index of the open span (-1: none), its layer]
            tls.state = state = [spans, -1, None]
            return state

    def spans_here(self) -> list:
        """The calling thread's span list (see :func:`fold`'s ``skip``)."""
        return self._state()[0]

    def _wrap(self, fn, layer: str):
        get_state = self._state
        wall, cpu = hostclock.wall, hostclock.thread_cpu

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            if state[2] is layer:
                return fn(*args, **kwargs)
            spans, parent, parent_layer = state
            rec = [layer, parent, wall(), cpu(), 0.0, 0.0]
            state[1] = len(spans)
            state[2] = layer
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = cpu()
                rec[4] = wall()
                state[1] = parent
                state[2] = parent_layer

        return wrapper

    # -- installing and removing --------------------------------------------

    def _set(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, types.FunctionType):
                if not inspect.isgeneratorfunction(attr):
                    self._set(cls, name, self._wrap(attr, layer))
            elif isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                if isinstance(fn, types.FunctionType):
                    self._set(cls, name,
                              type(attr)(self._wrap(fn, layer)))
            elif isinstance(attr, property) and attr.fget is not None:
                self._set(cls, name, property(
                    self._wrap(attr.fget, layer), attr.fset, attr.fdel,
                    attr.__doc__))

    def start(self) -> None:
        """Wrap every function of every layer that still exists."""
        modules, self.modules_missing = _resolve()
        replaced = {}
        for mod, layer in modules.items():
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere
                if isinstance(obj, types.FunctionType):
                    if not inspect.isgeneratorfunction(obj):
                        replaced[obj] = self._wrap(obj, layer)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        # Module-level functions: re-bind the defining module's name and
        # every ``from ... import`` alias of it.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def stop(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def fold(threads: list[list], skip: list | None = None) -> dict:
    """Per-layer ``calls``, ``cpu_self_s``, ``wait_s`` over ``threads``.

    ``skip`` is the span list of the thread that drives the repetition:
    its CPU counts, but the time it spends joining the rank threads is
    not a wait any rank saw, so it adds nothing to ``wait_s``.
    """
    out = {name: {"calls": 0, "cpu_self_s": 0.0, "wait_s": 0.0}
           for name in layer_names()}
    for spans in threads:
        child_wall = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        for rec in spans:
            parent = rec[1]
            if parent >= 0:
                child_wall[parent] += rec[4] - rec[2]
                child_cpu[parent] += rec[5] - rec[3]
        for i, (layer, _, w0, c0, w1, c1) in enumerate(spans):
            row = out[layer]
            cpu_self = (c1 - c0) - child_cpu[i]
            row["calls"] += 1
            row["cpu_self_s"] += cpu_self
            if spans is not skip:
                row["wait_s"] += (w1 - w0) - child_wall[i] - cpu_self
    for row in out.values():
        # The two clocks tick separately; a layer that never waits can
        # sum to a hair below zero.
        row["wait_s"] = max(0.0, row["wait_s"])
    for pkg in rollup_packages():
        out[pkg] = {
            key: sum(out[f"{pkg}.{m}"][key] for m in LAYERS[pkg])
            for key in ("calls", "cpu_self_s", "wait_s")
        }
    return out
