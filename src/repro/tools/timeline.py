"""ASCII timelines and communication matrices of a run.

Both read the always-on causal record of a run's ``obs`` (``Engine.obs``
/ ``WorkflowResult.obs``): every message is a send at ``t_post`` and,
once received, a receive at ``t_recv``; every collective is one mark per
participant.

- :func:`render_timeline` -- one lane per rank over virtual time, with
  ``s`` = send, ``r`` = receive, ``C`` = collective (like a coarse
  Jumpshot view). ``spans`` adds :class:`~repro.obs.spans.SpanEvent`
  intervals underneath: each paints its whole ``[t0, t1]`` extent with
  a per-category mark (``C`` simmpi, ``L`` lowfive, ``P`` pfs, ``W``
  workflow);
- :func:`communication_matrix` -- rank-to-rank payload bytes;
- :func:`render_matrix` -- the matrix as a heat table.

For interactive viewers (Perfetto, ``chrome://tracing``) export the
same run with :func:`repro.obs.write_chrome_trace` instead.
"""

from __future__ import annotations

import io

import numpy as np

#: Lane mark per span category (anything unknown renders as ``=``).
_SPAN_MARKS = {
    "simmpi": "C",
    "lowfive": "L",
    "pfs": "P",
    "workflow": "W",
}


def render_timeline(obs, nprocs: int, width: int = 72, title: str = "",
                    spans=()) -> str:
    """One character lane per rank; columns are virtual-time buckets.

    Events whose rank is ``>= nprocs`` (e.g. a run on a larger world
    than the caller expected) grow the lane table instead of crashing.
    """
    causal, spans = obs.causal, list(spans)
    points = [(p.t_post, p.src, "s") for p in causal.messages()]
    points += [(e.t_recv, e.dst, "r") for e in causal.edges()]
    points += [(c.t_end, r, "C") for c in causal.collectives()
               for r in c.enter_clocks]
    if not points and not spans:
        return "(no events traced)\n"
    t_end = max([t for t, _, _ in points] + [e.t1 for e in spans])
    t_end = t_end if t_end > 0 else 1.0
    nlanes = max(nprocs, max([r for _, r, _ in points]
                             + [e.rank for e in spans]) + 1)
    lanes = [[" "] * width for _ in range(nlanes)]

    def col(t: float) -> int:
        return min(width - 1, int(t / t_end * (width - 1)))

    # Spans paint the background; point events draw over them. Within
    # either layer, different marks landing in one cell mix to "*".
    for e in spans:
        mark = _SPAN_MARKS.get(e.cat, "=")
        for c in range(col(e.t0), col(e.t1) + 1):
            cur = lanes[e.rank][c]
            lanes[e.rank][c] = mark if cur in (" ", mark) else "*"
    cells: dict[tuple[int, int], str] = {}
    for t, rank, mark in points:
        key = (rank, col(t))
        cells[key] = mark if cells.get(key, mark) == mark else "*"
    for (rank, c), mark in cells.items():
        lanes[rank][c] = mark

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    for r in range(nlanes):
        out.write(f"rank {r:>3} |" + "".join(lanes[r]) + "|\n")
    out.write(" " * 9 + f"0{'virtual time'.center(width - 10)}"
              f"{t_end:.2e}s\n")
    legend = "         s=send r=recv C=collective *=mixed"
    if spans:
        legend += " L=lowfive P=pfs W=workflow"
    out.write(legend + "\n")
    return out.getvalue()


def communication_matrix(obs, nprocs: int) -> np.ndarray:
    """Bytes sent from rank i to rank j (point-to-point only).

    The matrix grows beyond ``nprocs`` when messages carry senders or
    receivers outside ``[0, nprocs)``.
    """
    sends = obs.causal.messages()
    n = nprocs
    for p in sends:
        n = max(n, p.src + 1, p.dst + 1)
    m = np.zeros((n, n), dtype=np.int64)
    for p in sends:
        m[p.src, p.dst] += p.nbytes
    return m


def render_matrix(matrix: np.ndarray, title: str = "") -> str:
    """The communication matrix as a fixed-width table with totals."""
    n = matrix.shape[0]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    colw = max(8, len(str(int(matrix.max()))) + 1) if matrix.size else 8
    out.write("from\\to |" + "".join(str(j).rjust(colw)
                                     for j in range(n)) + "   total\n")
    for i in range(n):
        row = "".join(str(int(v)).rjust(colw) for v in matrix[i])
        out.write(f"{i:>7} |{row}{int(matrix[i].sum()):>8}\n")
    out.write(f"{'total':>7} |" + "".join(
        str(int(matrix[:, j].sum())).rjust(colw) for j in range(n)
    ) + f"{int(matrix.sum()):>8}\n")
    return out.getvalue()
