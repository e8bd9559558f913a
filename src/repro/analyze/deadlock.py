"""Wait-for-graph deadlock explanation.

The scheduler declares a deadlock when every live rank is parked and
none has an event. Each parked rank publishes a
:class:`~repro.simmpi.WaitDesc` (what kind of wait, on which
communicator, which ranks could release it), so the explainer can
build the wait-for graph rank -> potential wakers, walk it for a
cycle, and render both the cycle and the full per-rank wait table.
"""

from __future__ import annotations

from typing import Any


def _spec_of(desc: Any) -> str:
    """Human-readable wait spec of one blocked rank."""
    if desc.kind == "collective":
        return f"collective {desc.detail} (comm {desc.comm_id})"
    if desc.kind == "serve":
        lanes = ", ".join(f"(comm {c}, tag {t})"
                          for c, _s, t in desc.lanes)
        return f"serve loop on lanes {lanes or '-'}"
    return (f"{desc.kind} (comm {desc.comm_id}, source {desc.source}, "
            f"tag {desc.tag})")


def wait_for_graph(
        engine: Any) -> dict[int, tuple[Any, tuple[int, ...]]]:
    """Snapshot ``rank -> (WaitDesc, wakers)`` for every blocked rank.

    ``wakers`` is the tuple of world ranks whose action could release
    the wait (``desc.senders``, or every other rank when the desc does
    not name its senders).
    """
    graph: dict[int, tuple[Any, tuple[int, ...]]] = {}
    nprocs = engine.nprocs
    for p in engine.procs:
        if p.done:
            continue
        desc = p.wait_desc
        if desc is None:
            continue
        wakers = desc.senders
        if wakers is None:
            wakers = tuple(r for r in range(nprocs) if r != p.rank)
        graph[p.rank] = (desc, tuple(wakers))
    return graph


def find_cycle(
        graph: dict[int, tuple[Any, tuple[int, ...]]],
) -> list[int] | None:
    """A cycle of mutually-waiting ranks, or ``None``.

    Edges run from a blocked rank to each potential waker that is
    itself blocked. Deterministic: ranks and wakers are explored in
    ascending order, so the same snapshot always yields the same
    cycle.
    """
    state: dict[int, int] = {}  # 0 visiting, 1 done
    stack: list[int] = []

    def visit(r: int) -> list[int] | None:
        state[r] = 0
        stack.append(r)
        for w in sorted(graph[r][1]):
            if w not in graph:
                continue
            if state.get(w) == 0:
                return stack[stack.index(w):] + [w]
            if w not in state:
                cyc = visit(w)
                if cyc is not None:
                    return cyc
        state[r] = 1
        stack.pop()
        return None

    for r in sorted(graph):
        if r not in state:
            cyc = visit(r)
            if cyc is not None:
                return cyc
    return None


def explain_deadlock(engine: Any) -> str:
    """Render the machine's wait-for state for a DeadlockError.

    Returns an empty string when nothing is blocked.
    """
    graph = wait_for_graph(engine)
    if not graph:
        return ""
    lines = ["blocked ranks:"]
    for r in sorted(graph):
        desc, _wakers = graph[r]
        clock = engine.procs[r].clock
        lines.append(f"  rank {r} @ {clock:.9f}s: waiting for "
                     f"{_spec_of(desc)}")
    cycle = find_cycle(graph)
    if cycle is not None:
        path = " -> ".join(str(r) for r in cycle)
        lines.append(f"wait-for cycle: {path}")
        for r in cycle[:-1]:
            desc, _ = graph[r]
            lines.append(f"  rank {r} blocks on {_spec_of(desc)}")
    else:
        lines.append("no wait-for cycle among blocked ranks (a peer "
                     "exited without sending what they wait for)")
    return "\n".join(lines)
