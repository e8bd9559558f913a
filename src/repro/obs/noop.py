"""Disabled observability: an :class:`ObsContext` that records nothing.

Used to measure telemetry overhead (the ``obs/overhead`` row of
``benchmarks/bench_gate.py``): run the same workload with the real
:class:`~repro.obs.ObsContext` and with :class:`NullObsContext`, and
compare wall clocks. Virtual results must be identical --
observability never changes simulation semantics, only how much of it
is remembered. A silenced producer still costs a few Python calls per
recorder write (the call, and the sink's attribute reads), so the
measured difference is a lower bound on what telemetry costs.

Nothing of the obs surface is re-typed here. A null context *is* a real
context holding real, empty recorders; construction shadows every
method a class lists in its ``PRODUCERS`` with one sink object. Queries
(``spans()``, ``to_dict()``, ``chrome_trace()``, ...) are the real code
answering for an empty run, and the enabled path tests no flag.
"""

from __future__ import annotations

from typing import Any

from repro.obs import ObsContext


class _Sink:
    """Absorbs whatever a call site does with a producer or with the
    handle it returned: call it, read or bump an attribute (``comm``
    does ``account(r).wait += dt``), or enter it as a span.

    Attribute reads go through ``__getattribute__``: with
    ``__getattr__`` every read would first miss the instance and raise
    internally, making the silenced context slower than a recording one.
    ``__class__`` stays the real class, which ``isinstance`` reads.
    """

    def __call__(self, *args: object, **kwargs: object) -> _Sink:
        return self

    def __getattribute__(self, name: str) -> Any:
        return _Sink if name == "__class__" else self

    def __setattr__(self, name: str, value: object) -> None:
        pass

    def __add__(self, other: object) -> _Sink:
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_SINK = _Sink()


class NullObsContext(ObsContext):
    """An :class:`~repro.obs.ObsContext` that records nothing: pass as
    ``Engine(obs=...)`` / ``Workflow.run(obs=...)``."""

    def __init__(self) -> None:
        super().__init__()
        for rec in (self, *vars(self).values()):
            for name in getattr(type(rec), "PRODUCERS", ()):
                setattr(rec, name, _SINK)
