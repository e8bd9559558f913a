"""Network and node cost model for the simulated MPI runtime.

The model is a classical alpha-beta (latency/bandwidth) model with
additional terms that matter for the shapes of the paper's figures:

- per-message CPU overhead on send and receive (software stack cost),
- a memory-copy bandwidth for pack/unpack performed by transport layers,
- a much slower *per-element* packing cost used by baselines that the
  paper describes as serializing "one point at a time" (hand-written MPI,
  Bredala bounding-box redistribution),
- logarithmic collective costs,
- a mild network contention exponent so that weak-scaling curves rise
  slowly with process count, as the measured curves do on the Aries
  dragonfly (paper Figs. 5, 7, 8).

Default constants approximate a Cray XC40 (Theta/Cori): ~1.3 us MPI
latency, ~8 GB/s effective injection bandwidth per process pair, a few
GB/s memcpy. Absolute times are not expected to match the paper's
testbed; relative shapes are (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def payload_nbytes(obj) -> int:
    """Best-effort size in bytes of a message payload.

    numpy arrays report their buffer size; bytes-like objects their
    length; containers the sum of their items plus a small per-item
    envelope; everything else a flat 64-byte estimate. Transport layers
    that know better pass ``nbytes`` explicitly.
    """
    # Exact builtin scalars and sequences first: they have no
    # ``nbytes`` (subclasses, e.g. named tuples, may, so they take the
    # general path below).
    cls = type(obj)
    if cls is int or cls is float or cls is bool:
        return 8
    if cls is tuple or cls is list:
        n = 16
        for x in obj:
            c = type(x)
            n += 16 if c is int or c is float or c is bool else (
                payload_nbytes(x) + 8)
        return n
    if obj is None:
        return 0
    if cls is str:
        return len(obj.encode("utf-8", "replace"))
    nb = getattr(obj, "nbytes", None)
    if nb is not None and isinstance(nb, (int, np.integer)):
        return int(nb)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", "replace"))
    if isinstance(obj, (int, float, complex, bool)):
        return 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 16 + sum(payload_nbytes(x) + 8 for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) + 16 for k, v in obj.items()
        )
    return 64


@dataclass(frozen=True)
class NetworkModel:
    """Cost model used to advance virtual clocks.

    Parameters
    ----------
    latency:
        One-way point-to-point message latency in seconds (alpha term).
    bandwidth:
        Point-to-point bandwidth in bytes/second (1/beta term).
    msg_overhead:
        CPU time charged on each side of a message for the software
        stack (matching, envelope handling).
    memcpy_bandwidth:
        Bandwidth of a bulk contiguous memory copy, used by transports
        that pack/unpack buffers.
    per_element_pack:
        Seconds per *element* for transports that serialize data one
        point at a time (paper Sec. IV-B(c): the hand-written MPI code
        "simply iterates over all the data points ... and serializes
        them one point at a time").
    contention_exponent:
        Effective bandwidth degrades as ``nprocs ** -contention_exponent``
        to model global network contention in weak scaling. Small (0.1)
        so curves rise slowly, as measured on Aries.
    contention_ref_procs:
        Process count at which contention factor is 1 (no degradation).
    epoch_jitter_per_log2p:
        Synchronization/OS-jitter cost per redistribution epoch, charged
        per log2 of the job size. Real machines pay this skew whenever a
        transport synchronizes tasks (the paper attributes LowFive's
        slope partly to synchronization at file close and the collective
        index); it is what makes all measured weak-scaling curves rise.
    """

    latency: float = 1.3e-6
    bandwidth: float = 8.0e9
    msg_overhead: float = 2.0e-6
    memcpy_bandwidth: float = 4.0e9
    per_element_pack: float = 8.0e-8
    contention_exponent: float = 0.10
    contention_ref_procs: int = 4
    epoch_jitter_per_log2p: float = 0.12

    # -- point to point -------------------------------------------------

    def contention_factor(self, nprocs: int) -> float:
        """Multiplier >= 1 applied to transfer times at scale."""
        if nprocs <= self.contention_ref_procs:
            return 1.0
        return (nprocs / self.contention_ref_procs) ** self.contention_exponent

    def transfer_time(self, nbytes: int, nprocs: int = 1) -> float:
        """Wire time of a point-to-point message of ``nbytes``
        (:meth:`contention_factor` inlined: this runs once per send)."""
        if nprocs <= self.contention_ref_procs:
            return self.latency + nbytes / self.bandwidth
        return self.latency + (
            nprocs / self.contention_ref_procs
        ) ** self.contention_exponent * (nbytes / self.bandwidth)

    # -- local work ------------------------------------------------------

    def memcpy_time(self, nbytes: int) -> float:
        """Time for a bulk contiguous copy of ``nbytes``."""
        return nbytes / self.memcpy_bandwidth

    def pack_elements_time(self, nelements: int) -> float:
        """Time to serialize ``nelements`` items one at a time."""
        return nelements * self.per_element_pack

    def epoch_jitter(self, nprocs: int) -> float:
        """Synchronization skew of one redistribution epoch at scale."""
        if nprocs <= 1:
            return 0.0
        return self.epoch_jitter_per_log2p * math.log2(nprocs)

    # -- collectives -----------------------------------------------------

    def collective_time(self, kind: str, nprocs: int, nbytes: int = 0) -> float:
        """Completion time of a collective over ``nprocs`` ranks.

        ``nbytes`` is the per-rank contribution size. Latency terms are
        logarithmic (tree algorithms); bandwidth terms follow the usual
        cost of each collective kind.
        """
        if nprocs <= 1:
            return self.msg_overhead
        lg = math.log2(nprocs)
        alpha = self.latency + self.msg_overhead
        beta = self.contention_factor(nprocs) / self.bandwidth
        if kind == "barrier":
            return 2.0 * lg * alpha
        if kind == "allreduce":
            return 2.0 * lg * alpha + 2.0 * nbytes * beta
        if kind in ("allgather", "alltoall"):
            # every rank receives nprocs * nbytes in total
            return lg * alpha + nprocs * nbytes * beta
        raise ValueError(f"unknown collective kind: {kind!r}")
