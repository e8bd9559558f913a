"""Multi-timestep streaming pipelines over the LowFive VOL.

A producer task publishes a series of epochs -- each an ordinary
LowFive file named ``"<name>@<epoch>"`` -- while consumer tasks
subscribe and lag behind. The live epochs form a bounded queue:
:class:`~repro.lowfive.StreamConfig.max_lag` caps how far the producer
may run ahead of the slowest consumer, and when the cap is hit the
producer's virtual clock blocks (serving queries the whole time) until
a release arrives -- backpressure, visible to causal analysis as the
``backpressure`` wait category. Wire-side data reduction (strided
subsampling and simulated compression, both driven by
``CostConfig.reduction_level``) happens at serve time, so the data cut
never exists on the consumer side of the wire.

Every epoch's lifecycle is recorded as ``stream``-category span
instants -- ``stream.publish`` and ``stream.drop`` (with the live
``depth``) on producer ranks, ``stream.acquire`` and
``stream.release`` on consumer ranks, each labelled with its
``stream`` and ``epoch`` -- so it lands in the exported trace beside
the ``stream.backpressure`` spans it explains. Query them with
``obs.spans.instants(cat="stream", stream=...)``; a caller that needs
them in order sorts by ``(t, stream, epoch, rank, name)``.
:func:`max_depth` reads the deepest live window off them.

Typical producer loop::

    prod = StreamProducer(vol, comm, inter, "sim", StreamConfig(max_lag=2))
    for step in range(n):
        with prod.epoch() as f:
            f.create_dataset("grid/x", data=x)
    prod.close()

and consumer loop::

    cons = StreamConsumer(vol, comm, inter, "sim")
    for ep in cons.epochs():
        with ep:
            x = ep.file["grid/x"][...]
    cons.close()
"""

from repro.lowfive.config import StreamConfig
from repro.stream.consumer import Epoch, StreamConsumer
from repro.stream.producer import StreamError, StreamProducer
from repro.stream.protocol import (
    MSG_EOS,
    MSG_EPOCH,
    TAG_STREAM_CTRL,
    TAG_STREAM_RELEASE,
    epoch_fname,
    stream_pattern,
)

__all__ = [
    "Epoch",
    "MSG_EOS",
    "MSG_EPOCH",
    "StreamConfig",
    "StreamConsumer",
    "StreamError",
    "StreamProducer",
    "TAG_STREAM_CTRL",
    "TAG_STREAM_RELEASE",
    "epoch_fname",
    "max_depth",
    "stream_pattern",
]


def max_depth(obs, stream: str | None = None) -> int:
    """Largest live-epoch queue depth recorded on a publish or drop
    instant of ``stream`` (of any stream when None); -1 if none was."""
    labels = {} if stream is None else {"stream": stream}
    return max((i.labels["depth"]
                for i in obs.spans.instants(cat="stream", **labels)
                if "depth" in i.labels), default=-1)
