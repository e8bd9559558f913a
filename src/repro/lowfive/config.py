"""LowFive configuration: transport modes, ownership, cost constants."""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase


@dataclass(frozen=True)
class CostConfig:
    """Software-stack cost constants for the LowFive data path.

    These model the per-operation and per-element costs of the HDF5/VOL
    software stack that dominate measured in situ transport times (see
    EXPERIMENTS.md calibration notes). Charged on top of the network
    model's wire times.

    Attributes
    ----------
    per_h5_op:
        CPU seconds per intercepted HDF5 operation (create/open/write
        call overhead).
    per_element_handle:
        Seconds per element for dataspace-driven handling (selection
        iteration, type conversion checks) on the producer and consumer
        data paths. LowFive's contiguous-region optimization means this
        is charged only once per element on each side, not per message.
    per_box_test:
        Seconds per bounding-box intersection test during index/query.
    sync_factor:
        Multiplier on the machine's per-epoch synchronization jitter
        (:meth:`NetworkModel.epoch_jitter`). LowFive pays more than a
        hand-written exchange because the consumer waits for the
        producer's file close and the index is collective (paper
        Sec. IV-B(d) hypothesis); hence a factor above 1.
    rpc_timeout:
        Virtual seconds an RPC client waits before declaring one call
        attempt lost (see :class:`~repro.lowfive.rpc.RetryPolicy`).
    rpc_max_retries:
        Attempts after the first before an RPC call gives up with
        :class:`~repro.lowfive.rpc.RetriesExhausted`.
    rpc_backoff:
        Exponential-backoff multiplier between RPC attempts.
    reduction_level:
        The fidelity/bandwidth knob for wire-side data reduction,
        applied at serve time (Catalyst-ADIOS2 style: reduce on the
        wire instead of shipping full fidelity). Level 0 ships exact
        data on the exact code path used before reduction existed;
        each level above 0 subsamples served hyperslabs and models a
        compression stage with the constants of
        :mod:`repro.lowfive.reduce`.
    """

    per_h5_op: float = 5e-6
    per_element_handle: float = 5.0e-8
    per_box_test: float = 2.0e-7
    sync_factor: float = 1.5
    rpc_timeout: float = 0.05
    rpc_max_retries: int = 3
    rpc_backoff: float = 2.0
    reduction_level: int = 0

    def __post_init__(self):
        if self.reduction_level < 0:
            raise ValueError("reduction_level must be >= 0")


@dataclass(frozen=True)
class StreamConfig:
    """Behaviour of a multi-timestep streaming pipeline.

    Attributes
    ----------
    max_lag:
        Bound on the number of *live* (published but not yet released
        by every consumer rank) epochs. Before publishing an epoch
        that would exceed the bound, the producer's virtual clock
        blocks -- it sits in a serve loop answering the laggards'
        queries until a release shrinks the window (backpressure).
    catch_up:
        Slow-joiner policy: a consumer that falls behind jumps to the
        newest retained epoch instead of draining every intermediate
        one; skipped epochs are released implicitly (releases are
        cumulative high-water marks).
    timeout:
        Virtual-time starvation bound for the stream's serve loops
        (same semantics as :meth:`~repro.lowfive.rpc.RPCServer.serve`).
    """

    max_lag: int = 2
    catch_up: bool = False
    timeout: float = 60.0

    def __post_init__(self):
        if self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")


class LowFiveConfig:
    """Which files go where, and which datasets are zero-copy.

    LowFive matches file names (and dataset paths) against glob-style
    patterns, exactly like the real library's
    ``set_memory``/``set_passthru``/``set_zerocopy`` calls:

    - *memory*: datasets matching the pattern are kept in the in-memory
      metadata hierarchy (and transported in situ by the distributed
      VOL);
    - *passthru*: operations also (or only) reach the underlying native
      VOL, producing a physical file;
    - *zero-copy*: matching datasets are stored as shallow references to
      the user's buffers instead of deep copies.
    """

    def __init__(self):
        self._memory: list[tuple[str, str]] = []
        self._passthru: list[tuple[str, str]] = []
        self._zero_copy: list[tuple[str, str]] = []

    # -- declaration -------------------------------------------------------

    def set_memory(self, file_pattern: str, dset_pattern: str = "*") -> None:
        """Keep datasets of matching files in memory."""
        self._memory.append((file_pattern, dset_pattern))

    def set_passthru(self, file_pattern: str, dset_pattern: str = "*") -> None:
        """Send matching operations through to physical storage."""
        self._passthru.append((file_pattern, dset_pattern))

    def set_zero_copy(self, file_pattern: str, dset_pattern: str = "*") -> None:
        """Store matching datasets as shallow references (zero-copy)."""
        self._zero_copy.append((file_pattern, dset_pattern))

    # -- queries -----------------------------------------------------------------

    @staticmethod
    def _match(rules, fname: str, dset: str) -> bool:
        return any(
            fnmatchcase(fname, fp) and fnmatchcase(dset, dp)
            for fp, dp in rules
        )

    def is_memory(self, fname: str, dset: str = "*") -> bool:
        """True when (file, dataset) matches a memory rule."""
        return self._match(self._memory, fname, dset)

    def is_passthru(self, fname: str, dset: str = "*") -> bool:
        """True when (file, dataset) matches a passthru rule."""
        return self._match(self._passthru, fname, dset)

    def is_zero_copy(self, fname: str, dset: str) -> bool:
        """True when (file, dataset) matches a zero-copy rule."""
        return self._match(self._zero_copy, fname, dset)

    def file_intercepted(self, fname: str) -> bool:
        """True when LowFive keeps an in-memory hierarchy for ``fname``."""
        return any(fnmatchcase(fname, fp) for fp, _ in self._memory)

    def file_passthru(self, fname: str) -> bool:
        """True when ``fname`` also goes to physical storage."""
        return any(fnmatchcase(fname, fp) for fp, _ in self._passthru)
