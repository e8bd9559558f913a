"""LowFive: in situ data transport as an HDF5 VOL plugin (the paper's
primary contribution).

The three layers of paper Sec. III-A, in one connector stack:

- the *base VOL* is :class:`~repro.lowfive.vol_metadata.MetadataVOL`'s
  ``under`` connector (usually :class:`~repro.h5.native.NativeVOL`):
  any operation not intercepted passes through to native file I/O;
- :class:`~repro.lowfive.vol_metadata.MetadataVOL` -- builds an in-memory
  replica of the HDF5 metadata hierarchy per rank, with deep/shallow
  (zero-copy) data ownership configurable per dataset, and optional
  passthrough to physical storage (*file mode*);
- :class:`~repro.lowfive.vol_dist.DistMetadataVOL` -- the *distributed
  metadata VOL*: producers index and serve their written data spaces,
  consumers query them, over an MPI RPC abstraction; implements the
  index-serve-query redistribution of paper Sec. III-B (Algorithms 1-3)
  with full n-to-m generality, and producer push;
- :class:`~repro.lowfive.vol_staged.StagedMetadataVOL` -- the same with
  an in-transit option through dedicated staging ranks.

Per-phase profiles (index, serve, query, push, ...) are the ``lowfive``
spans: ``obs.spans.spans(cat="lowfive", rank=world_rank)``.

Typical wiring (one producer task, one consumer task)::

    vol = DistMetadataVOL(comm=task_comm, under=NativeVOL(store))
    vol.set_memory("*.h5", "*")             # keep datasets in memory
    vol.serve_on_close("out.h5", inter)     # producer side
    # or, consumer side:
    vol.set_consumer("out.h5", inter)

    f = h5.File("out.h5", "w", comm=task_comm, vol=vol)  # unchanged user code
"""

from repro.lowfive.config import LowFiveConfig, CostConfig, StreamConfig
from repro.lowfive.rpc import (
    Reply,
    RetriesExhausted,
    RetryPolicy,
    RPCClient,
    RPCError,
    RPCServer,
    RPCTimeout,
)
from repro.lowfive.vol_metadata import MetadataVOL
from repro.lowfive.vol_dist import DistMetadataVOL
from repro.lowfive.vol_staged import StagedMetadataVOL, staging_main

__all__ = [
    "LowFiveConfig",
    "CostConfig",
    "StreamConfig",
    "Reply",
    "RPCServer",
    "RPCClient",
    "RPCError",
    "RPCTimeout",
    "RetriesExhausted",
    "RetryPolicy",
    "MetadataVOL",
    "DistMetadataVOL",
    "StagedMetadataVOL",
    "staging_main",
]
