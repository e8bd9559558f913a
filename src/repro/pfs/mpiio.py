"""Explicit two-phase collective I/O model (ROMIO-style).

:class:`~repro.pfs.lustre.LustreModel` folds collective-buffering costs
into a single bandwidth term, which is what the calibrated benchmarks
use. This module exposes the *mechanism* separately: the shuffle phase
(every rank redistributes its pieces to stripe-aligned aggregators over
the interconnect) followed by the write phase (one aggregator per stripe
streams to its OST), pipelined over collective-buffer rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.pfs.lustre import LustreModel
from repro.simmpi.netmodel import NetworkModel


@dataclass(frozen=True)
class TwoPhaseModel:
    """Two-phase collective I/O: shuffle to aggregators, then write.

    Attributes
    ----------
    net:
        Interconnect model for the shuffle phase.
    lustre:
        File-system model; the write phase streams from
        ``min(nprocs, stripe_count)`` aggregators at OST bandwidth with
        no extent-lock contention (each aggregator owns its stripes --
        the point of collective buffering).
    cb_buffer:
        Collective buffer size per aggregator; total bytes move in
        rounds of ``naggregators * cb_buffer``.
    """

    net: NetworkModel
    lustre: LustreModel
    cb_buffer: int = 16 * 2**20

    def naggregators(self, nprocs: int) -> int:
        """One aggregator per stripe, capped by the job size."""
        return max(1, min(nprocs, self.lustre.stripe_count))

    def _round_times(self, round_bytes: float,
                     nprocs: int) -> tuple[float, float]:
        """(shuffle, write) time of one buffer round moving
        ``round_bytes`` in total across all aggregators."""
        nagg = self.naggregators(nprocs)
        per_agg = round_bytes / nagg
        shuffle = (per_agg / (self.net.bandwidth
                              / self.net.contention_factor(nprocs))
                   + nprocs / nagg * (self.net.latency
                                      + 2 * self.net.msg_overhead))
        write = (per_agg / (self.lustre.ost_bandwidth
                            * self.lustre.slowest_ost_factor())
                 + self.lustre.md_small_op)
        return shuffle, write

    def nrounds(self, total_bytes: int, nprocs: int) -> int:
        """Buffer rounds: total bytes over ``naggregators * cb_buffer``."""
        per_round = self.naggregators(nprocs) * self.cb_buffer
        return max(1, math.ceil(total_bytes / per_round))

    def collective_write_time(self, total_bytes: int, nprocs: int) -> float:
        """End-to-end two-phase time.

        Rounds pipeline: round ``i``'s write overlaps round ``i+1``'s
        shuffle, so each middle round costs the slower of the two
        per-round phase times and only the first shuffle and last write
        are exposed. Computed from the exact per-round schedule (the
        last round moves only the residual bytes), which keeps the
        total strictly increasing in ``total_bytes`` — amortizing
        whole-phase totals over a discrete round count is not, because
        a round-boundary crossing shrinks the amortized term faster
        than the stream terms grow.
        """
        per_round = self.naggregators(nprocs) * self.cb_buffer
        nrounds = self.nrounds(total_bytes, nprocs)
        last_bytes = total_bytes - per_round * (nrounds - 1)
        s_last, w_last = self._round_times(last_bytes, nprocs)
        if nrounds == 1:
            return s_last + w_last
        s, w = self._round_times(per_round, nprocs)
        return (s + (nrounds - 2) * max(s, w)
                + max(w, s_last) + w_last)
