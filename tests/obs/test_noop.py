"""Disabled observability: the null context is the real context with
every producer silenced, and the two surfaces cannot drift apart."""

import collections.abc
import inspect
import types
import typing

from repro.obs import (
    CausalRecorder,
    MetricsRegistry,
    NullObsContext,
    ObsContext,
    SeriesRecorder,
    SpanRecorder,
    StreamLedger,
    validate_chrome_trace,
)

#: attribute on the context (``None``: the context itself) -> class.
SURFACE = {
    None: ObsContext,
    "metrics": MetricsRegistry,
    "spans": SpanRecorder,
    "causal": CausalRecorder,
    "stream": StreamLedger,
    "series": SeriesRecorder,
}


def part(obs, attr):
    return obs if attr is None else getattr(obs, attr)


def public_methods(cls):
    return {n: f for n, f in inspect.getmembers(cls, inspect.isfunction)
            if not n.startswith("_")}


def sample(ann, name, text, tmp_path):
    """A plausible argument for a parameter annotated ``ann``."""
    if name == "path":
        return str(tmp_path / "out.json")
    if isinstance(ann, types.UnionType):
        return None if type(None) in typing.get_args(ann) \
            else sample(typing.get_args(ann)[0], name, text, tmp_path)
    table = {int: 1, float: 0.5, str: text, bool: False, object: 0,
             typing.Any: None, dict: {0: 0.5}, tuple: (),
             collections.abc.Iterable: [0]}
    # Unknown classes (span handles, ...) get None: fine for a silenced
    # producer, a loud failure inside a real query.
    return table.get(typing.get_origin(ann) or ann)


def required_args(fn, tmp_path):
    sig = inspect.signature(fn, eval_str=True)
    # Strings are the method's own name, so metric names never clash.
    args = [sample(p.annotation, p.name, fn.__name__, tmp_path)
            for p in list(sig.parameters.values())[1:]
            if p.default is p.empty
            and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    sig.bind(None, *args)  # the real signature accepts this call
    return args


def query_state(obs):
    """Every zero-argument query of the surface, answered by ``obs``."""
    out = {}
    for attr, cls in SURFACE.items():
        for name, fn in public_methods(cls).items():
            params = list(inspect.signature(fn).parameters.values())[1:]
            if name in cls.PRODUCERS or any(
                    p.default is p.empty
                    and p.kind is not p.VAR_KEYWORD for p in params):
                continue
            out[attr, name] = getattr(part(obs, attr), name)()
    return out


class TestDerivedSurface:
    """The null context is found from the real classes: a method added
    to any recorder is either listed in ``PRODUCERS`` (and silenced) or
    runs for real on an empty recorder -- never silently half-on."""

    def test_recorders_are_the_real_classes(self):
        obs = NullObsContext()
        assert isinstance(obs, ObsContext)
        for attr, cls in SURFACE.items():
            assert isinstance(part(obs, attr), cls)

    def test_producers_name_real_methods(self):
        for cls in SURFACE.values():
            assert cls.PRODUCERS, cls
            assert set(cls.PRODUCERS) <= set(public_methods(cls)), cls

    def test_every_method_callable_and_nothing_recorded(self, tmp_path):
        obs = NullObsContext()
        for attr, cls in SURFACE.items():
            for name, fn in public_methods(cls).items():
                args = required_args(fn, tmp_path)
                getattr(part(obs, attr), name)(*args)
        assert query_state(obs) == query_state(ObsContext())

    def test_same_calls_do_record_on_a_real_context(self, tmp_path):
        # Guards the test above against going vacuous: driven the same
        # way, the real producers leave a visible record.
        obs = ObsContext()
        for attr, cls in SURFACE.items():
            for name in cls.PRODUCERS:
                if name == "end":
                    continue  # needs an open handle
                args = required_args(getattr(cls, name), tmp_path)
                getattr(part(obs, attr), name)(*args)
        fresh = query_state(ObsContext())
        changed = {k for k, v in query_state(obs).items()
                   if v != fresh[k]}
        assert {a for a, _ in changed} == set(SURFACE)


class TestNullSurface:
    """Every producer-side call the instrumented layers make must be
    accepted silently."""

    def test_metrics_calls_are_noops(self):
        obs = NullObsContext()
        obs.metrics.inc("x", 5, rank=0)
        obs.metrics.counter("x", rank=0).inc(3)
        assert not hasattr(obs.metrics, "observe")
        assert not any(obs.metrics.to_dict().values())
        assert obs.metrics.get("x", rank=0) is None

    def test_series_calls_are_noops(self):
        obs = NullObsContext()
        obs.series.record("q", 0.5, 1.0, rank=0)
        obs.series.bound("q", rank=1).record(0.0, 2.0)
        assert obs.series.items() == []
        assert obs.series.to_dict() == {}

    def test_span_yields_none(self):
        obs = NullObsContext()
        with obs.span("phase", "cat", rank=0) as sp:
            assert sp is None
        assert obs.spans.spans() == []

    def test_stream_and_causal(self):
        obs = NullObsContext()
        acct = obs.causal.account(0)
        acct.compute += 1.0  # comm.py mutates accounts directly
        acct.wait += 0.5
        obs.stream.publish("s", 0, 0, 0.0, 1)
        assert obs.causal.accounts() == {}
        assert obs.stream.events() == []

    def test_task_tracking_is_noop(self):
        obs = NullObsContext()
        obs.set_task(0, "producer")
        assert obs.task_of(0) is None
        assert obs.rank_tasks() == {}

    def test_trace_export_is_the_empty_trace(self):
        doc = NullObsContext().chrome_trace()
        validate_chrome_trace(doc)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


class TestSimulationUnperturbed:
    """Telemetry must never change virtual results: the same workflow
    with obs disabled produces identical vtime/messages/bytes."""

    def test_workflow_results_identical(self):
        from repro.bench.drivers import lowfive_workflow
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore
        from repro.synth import SyntheticWorkload

        wl = SyntheticWorkload(grid_points_per_proc=512,
                               particles_per_proc=256)

        def run(obs):
            wf = lowfive_workflow(2, 1, wl, THETA_KNL, "memory", PFSStore())
            return wf.run(model=THETA_KNL.net, obs=obs)

        on, off = run(None), run(NullObsContext())
        assert all(off.returns["consumer"])
        assert on.vtime == off.vtime  # noqa: ANL004 - exact determinism is the contract
        assert on.messages == off.messages
        assert on.bytes_sent == off.bytes_sent
        assert query_state(off.obs) == query_state(ObsContext())

    def test_record_from_result_with_disabled_obs(self):
        # The record's queries run for real on the silenced recorders:
        # empty counters and series, the instrumented run's virtual
        # fields.
        from repro.bench.drivers import lowfive_workflow
        from repro.obs.ledger import record_from_result
        from repro.perfmodel.transports import THETA_KNL
        from repro.pfs import PFSStore
        from repro.synth import SyntheticWorkload

        wl = SyntheticWorkload(grid_points_per_proc=512,
                               particles_per_proc=256)

        def record(obs):
            wf = lowfive_workflow(2, 1, wl, THETA_KNL, "memory", PFSStore())
            res = wf.run(model=THETA_KNL.net, obs=obs)
            return record_from_result(res, "demo")

        on, off = record(None), record(NullObsContext())
        assert off.counters == {}
        assert off.series == {}
        assert on.counters and on.series
        assert (off.vtime, off.messages, off.bytes_sent) == \
            (on.vtime, on.messages, on.bytes_sent)
