"""Disabled observability: an :class:`ObsContext` that records nothing.

Used to measure telemetry overhead (``bench_wallclock --obs-budget``):
run the same workload once with the real :class:`~repro.obs.ObsContext`
and once with :class:`NullObsContext`, and compare wall clocks. Virtual
results must be identical -- observability never changes simulation
semantics, only how much of it is remembered.

Nothing of the obs surface is re-typed here. A null context *is* a real
context holding real, empty recorders; construction shadows every
method a class lists in its ``PRODUCERS`` with one sink object. Queries
(``spans()``, ``snapshot()``, ``chrome_trace()``, ...) are the real code
answering for an empty run, and the enabled path tests no flag.
"""

from __future__ import annotations

from repro.obs import ObsContext


class _Sink:
    """Absorbs whatever a call site does with a producer or with the
    handle it returned: call it, read or bump an attribute (``comm``
    does ``account(r).wait += dt``), or enter it as a span."""

    def __call__(self, *args: object, **kwargs: object) -> _Sink:
        return self

    def __getattr__(self, name: str) -> _Sink:
        return self

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
