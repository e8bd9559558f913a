"""Streaming producer: publish a series of epochs with backpressure.

The producer side of a :mod:`repro.stream` pipeline. Each epoch is an
ordinary LowFive file write (``with prod.epoch() as f: ...``); closing
it indexes collectively and registers the epoch with this rank's RPC
server *without* parking in a serve loop, so the producer keeps
computing. Consumer queries are answered only at the producer's
deterministic serving points -- the backpressure gate and the final
drain -- where the serve loop commits messages in global
virtual-arrival order (a nonblocking between-epoch poll would answer
whatever the consumer *thread* happened to have posted, making the
virtual schedule depend on real scheduling).

The backpressure rule: before starting an epoch that would push the
live-epoch window past ``StreamConfig.max_lag``, the producer blocks
inside a ``stream.backpressure`` span, serving the laggards' queries
until a release shrinks the window. Its virtual clock only advances to
the message that frees it, and the causal classifier attributes the
whole blocked interval to :data:`~repro.obs.causal.BACKPRESSURE` with
the lagging consumer as the cause.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.h5 as h5
from repro.lowfive.config import StreamConfig
from repro.stream.protocol import (
    MSG_EOS,
    MSG_EPOCH,
    TAG_STREAM_CTRL,
    TAG_STREAM_RELEASE,
    epoch_fname,
    stream_pattern,
)
from repro.stream.state import EpochWindow


class StreamError(RuntimeError):
    """Streaming protocol misuse (e.g. publishing after close)."""


def _stream_router(server) -> dict:
    """Per-server stream-name -> :class:`StreamProducer` map.

    One rank may run several streams over one RPC server; the single
    :data:`TAG_STREAM_RELEASE` lane and the ``stream.newest`` RPC both
    dispatch on the stream name carried in the payload.
    """
    router = getattr(server, "_stream_router", None)
    if router is None:
        router = {}
        server._stream_router = router

        def lane(inter, payload, source):
            stream, upto = payload
            prod = router.get(stream)
            if prod is not None:
                prod._on_release(inter, upto, source)

        server.add_lane(TAG_STREAM_RELEASE, lane)

        def newest(source, stream):
            # Catch-up support: a slow joiner asks rank 0 how far the
            # stream has advanced. Answered at a deterministic point
            # of the serve order, so the caller's jump target is a
            # pure function of virtual time (unlike peeking its own
            # announcement queue, which would race real threads).
            prod = router.get(stream)
            if prod is None:
                raise KeyError(f"unknown stream {stream!r}")
            return prod.window.published

        server.register("stream.newest", newest)
    return router


class StreamProducer:
    """Publishes the epochs of one stream from one producer rank.

    Every rank of the producer task constructs one (the VOL wiring
    calls are idempotent, so sharing the task's singleton VOL is
    fine). Epochs are produced in lockstep across the task: publishing
    runs an epoch barrier before rank 0 announces to the consumers.

    Parameters
    ----------
    vol:
        The task's :class:`~repro.lowfive.DistMetadataVOL` (or staged
        subclass) -- gets memory + stream wiring for the epoch files.
    comm:
        The producer task's communicator.
    inter:
        Intercommunicator (or list of them) to the consumer task(s).
    name:
        Stream name; epoch files are ``"<name>@<epoch>"``.
    config:
        :class:`~repro.lowfive.StreamConfig`; default bounds the live
        window at 2 epochs.
    """

    def __init__(self, vol, comm, inter, name: str,
                 config: StreamConfig | None = None):
        self.vol = vol
        self.comm = comm
        self.inters = (list(inter) if isinstance(inter, (list, tuple))
                       else [inter])
        self.name = name
        self.config = config if config is not None else StreamConfig()
        pattern = stream_pattern(name)
        if not vol.config.file_intercepted(epoch_fname(name, 0)):
            vol.set_memory(pattern)
        for i in self.inters:
            vol.stream_on_close(pattern, i)
        consumers = [w for i in self.inters for w in i.remote_members]
        self.window = EpochWindow(consumers)
        self.server = vol.rank_server()
        _stream_router(self.server)[name] = self
        self._obs = comm.engine.obs
        self._world = comm.world_rank(comm.rank)
        self._closed = False

    # -- release / retirement ----------------------------------------------

    def _on_release(self, inter, upto: int, source: int) -> None:
        self.window.release(inter._src_world(source), upto)
        self._retire()

    def _done_worlds(self):
        """Consumer world ranks that already signalled end-of-stream
        (``()`` while none has)."""
        done = self.server._done
        return {i._src_world(s) for i in self.inters
                for s in done.get(id(i), ())} or ()

    def _window_ok(self) -> bool:
        return (self.window.depth(self._done_worlds())
                < self.config.max_lag)

    def _retire(self) -> None:
        """Drop epochs every consumer rank has released."""
        done = self._done_worlds()
        ready = self.window.retire_ready(done)
        if not ready:
            return
        depth = self.window.depth(done)
        t = self.comm.vtime
        for e in ready:
            self.vol.drop_file(self.comm, epoch_fname(self.name, e))
            self._obs.spans.instant("stream.drop", "stream", self._world,
                                    t, {"stream": self.name, "epoch": e,
                                        "depth": depth})
        self._obs.series.record("stream.queue_depth", t, depth,
                                rank=self._world, stream=self.name)

    # -- publishing ---------------------------------------------------------

    @contextmanager
    def epoch(self):
        """Write one epoch: ``with prod.epoch() as f: ...``.

        Applies backpressure *before* opening the file (so the live
        window never exceeds ``max_lag``), then yields a writable
        :class:`repro.h5.File`; on exit the file is closed (collective
        index), registered for serving and announced to the consumers.
        """
        if self._closed:
            raise StreamError(f"stream {self.name!r} is closed")
        self._gate()
        e = self.window.published + 1
        with self._obs.span(self.comm, "stream.epoch", cat="stream",
                            stream=self.name, epoch=e,
                            phase="stream_epoch"):
            f = h5.File(epoch_fname(self.name, e), "w", comm=self.comm,
                        vol=self.vol)
            yield f
            f.close()
            self._publish(e)

    def _gate(self) -> None:
        """Block (serving) until the next publish fits in the window."""
        if self._window_ok():
            return
        with self._obs.span(self.comm, "stream.backpressure",
                            cat="stream", stream=self.name,
                            phase="backpressure"):
            self.server.serve_until(
                self._window_ok, timeout=self.config.timeout,
                what=f"epoch release on stream {self.name!r} "
                     "(backpressure)",
            )
        self._retire()

    def _publish(self, e: int) -> None:
        # Every producer rank must have closed (indexed + registered)
        # the epoch before rank 0 announces it as readable.
        self.comm.epoch_barrier(e)
        self.window.publish()
        depth = self.window.depth(self._done_worlds())
        t = self.comm.vtime
        self._obs.spans.instant("stream.publish", "stream", self._world, t,
                                {"stream": self.name, "epoch": e,
                                 "depth": depth})
        self._obs.series.record("stream.queue_depth", t, depth,
                                rank=self._world, stream=self.name)
        if self.comm.rank == 0:
            for i in self.inters:
                i.notify_remote((MSG_EPOCH, self.name, e),
                                TAG_STREAM_CTRL)
        self._retire()

    def close(self) -> None:
        """End the stream: announce EOS and serve until consumers are
        done with every retained epoch."""
        if self._closed:
            return
        self._closed = True
        self.comm.barrier()
        if self.comm.rank == 0:
            for i in self.inters:
                i.notify_remote((MSG_EOS, self.name,
                                 self.window.published),
                                TAG_STREAM_CTRL)
        for i in self.inters:
            self.server.attach(i)
        with self._obs.span(self.comm, "stream.drain", cat="stream",
                            stream=self.name, phase="drain"):
            self.server.serve(timeout=self.config.timeout)
        self._retire()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        return False
