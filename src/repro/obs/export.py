"""Exporter: Chrome/Perfetto ``trace_event`` JSON.

The Chrome trace format (loadable in ``chrome://tracing``, Perfetto, or
speedscope) maps naturally onto a workflow run: one *pid* per task, one
*tid* per rank, virtual-clock seconds as microsecond timestamps. Spans
become complete (``"ph": "X"``) events; recorded instants become
instant (``"ph": "i"``) events; task and rank
names ride along as metadata (``"ph": "M"``) events; causal flow edges
(matched send -> recv pairs) become flow start/finish
(``"ph": "s"`` / ``"ph": "f"``) pairs, which Perfetto renders as
arrows between the sender's and receiver's tracks.
"""

from __future__ import annotations

import json
from typing import Any

#: Virtual seconds -> Chrome trace microseconds.
_US = 1e6

#: pid used for ranks that belong to no declared task.
WORLD_PID = 0


def _pids(obs: Any) -> dict[str, int]:
    """Task name -> pid (1-based, in task-declaration order)."""
    tasks: list[str] = []
    for task in obs.rank_tasks().values():
        if task not in tasks:
            tasks.append(task)
    return {t: i + 1 for i, t in enumerate(tasks)}


def chrome_trace(obs: Any) -> dict[str, object]:
    """Build a Chrome ``trace_event`` document from an
    :class:`~repro.obs.ObsContext`.

    Returns a plain dict; dump it with ``json.dump`` or use
    :func:`write_chrome_trace`.
    """
    pids = _pids(obs)
    rank_tasks = obs.rank_tasks()

    def pid_of(rank: int) -> int:
        return pids.get(rank_tasks.get(rank), WORLD_PID)

    out: list[dict[str, object]] = []
    seen_threads: set[tuple[int, int]] = set()

    def thread_meta(rank: int) -> None:
        pid = pid_of(rank)
        if (pid, rank) in seen_threads:
            return
        seen_threads.add((pid, rank))
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": rank, "args": {"name": f"rank {rank}"}})

    for task, pid in pids.items():
        out.append({"ph": "M", "name": "process_name", "pid": pid,
                    "tid": 0, "args": {"name": task}})
    out.append({"ph": "M", "name": "process_name", "pid": WORLD_PID,
                "tid": 0, "args": {"name": "world"}})

    for s in obs.spans.spans():
        thread_meta(s.rank)
        args = dict(s.labels)
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        out.append({
            "ph": "X", "name": s.name, "cat": s.cat or "span",
            "ts": s.t0 * _US, "dur": max(0.0, s.duration) * _US,
            "pid": pid_of(s.rank), "tid": s.rank, "args": args,
        })

    for i in obs.spans.instants():
        thread_meta(i.rank)
        out.append({
            "ph": "i", "s": "t", "name": i.name, "cat": i.cat or "instant",
            "ts": i.t * _US, "pid": pid_of(i.rank), "tid": i.rank,
            "args": dict(i.labels),
        })

    causal = getattr(obs, "causal", None)
    if causal is not None:
        for edge in causal.edges():
            thread_meta(edge.src)
            thread_meta(edge.dst)
            name = f"msg tag={edge.tag}"
            out.append({
                "ph": "s", "id": edge.msg_id, "name": name, "cat": "flow",
                "ts": edge.t_post * _US, "pid": pid_of(edge.src),
                "tid": edge.src,
                "args": {"tag": edge.tag, "nbytes": edge.nbytes,
                         "comm": edge.comm_id},
            })
            out.append({
                "ph": "f", "bp": "e", "id": edge.msg_id, "name": name,
                "cat": "flow", "ts": edge.t_recv * _US,
                "pid": pid_of(edge.dst), "tid": edge.dst,
            })

    other: dict[str, object] = {"clock": "virtual",
                                "metrics": obs.metrics.to_dict()}
    series = getattr(obs, "series", None)
    if series is not None:
        dumped = series.to_dict()
        if dumped:
            other["series"] = dumped
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": other}


def write_chrome_trace(path: str, obs: Any) -> dict[str, object]:
    """Export ``obs`` as JSON at ``path``."""
    doc = chrome_trace(obs)
    with open(path, "w") as f:
        json.dump(doc, f, indent=None, separators=(",", ":"))
    return doc


def validate_chrome_trace(doc: object) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace.

    Checks the envelope and the per-event required fields for the
    phases this exporter emits (``X``, ``i``, ``M``, and the flow pair
    ``s``/``f``).
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("missing traceEvents")
    if not isinstance(doc["traceEvents"], list):
        raise ValueError("traceEvents must be a list")
    for ev in doc["traceEvents"]:
        if not isinstance(ev, dict):
            raise ValueError(f"event is not an object: {ev!r}")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "s", "f"):
            raise ValueError(f"unsupported phase {ph!r}")
        for k in ("name", "pid", "tid"):
            if k not in ev:
                raise ValueError(f"event missing {k!r}: {ev!r}")
        if ph == "X":
            if "ts" not in ev or "dur" not in ev:
                raise ValueError(f"X event missing ts/dur: {ev!r}")
            if ev["dur"] < 0:
                raise ValueError(f"negative duration: {ev!r}")
        if ph == "i" and "ts" not in ev:
            raise ValueError(f"i event missing ts: {ev!r}")
        if ph in ("s", "f"):
            if "ts" not in ev or "id" not in ev:
                raise ValueError(f"flow event missing ts/id: {ev!r}")
    json.dumps(doc)  # must be serializable as-is

