"""A hand-built causal trace for analyzer unit tests.

The dynamic analyzers consume only the recorder's *read* API
(``messages()``, ``edges()``, ``collectives()``), so fixtures can
assemble the real record dataclasses directly and skip running a
simulation -- mismatched collectives and forged inconsistent traces are
states a healthy run cannot even produce.
"""

from repro.obs.causal import CollectiveRecord, FlowEdge


def msg(msg_id, src, dst, t_post=0.0, tag=0, comm_id=1, nbytes=8,
        t_arrival=None, t_recv=None, spec=None):
    """One message record; received (its receive starting at arrival)
    when ``t_recv`` is given, by a wildcard receive when ``spec`` is."""
    arr = t_post if t_arrival is None else t_arrival
    return FlowEdge(msg_id=msg_id, src=src, dst=dst, tag=tag,
                    comm_id=comm_id, nbytes=nbytes, t_post=t_post,
                    t_arrival=arr,
                    t_recv_start=None if t_recv is None else arr,
                    t_recv=t_recv, spec=spec)


def coll(coll_id, enter_clocks, t_end, kind="barrier", comm_id=1,
         kinds=None):
    return CollectiveRecord(
        coll_id=coll_id, kind=kind, comm_id=comm_id, nbytes=0,
        enter_clocks=dict(enter_clocks),
        t_ready=max(enter_clocks.values()), t_end=t_end,
        straggler=max(enter_clocks, key=enter_clocks.__getitem__),
        kinds={} if kinds is None else dict(kinds),
    )


class StubCausal:
    def __init__(self, messages=(), collectives=()):
        self._msgs = list(messages)
        self._colls = list(collectives)

    def messages(self):
        return sorted(self._msgs, key=lambda m: m.msg_id)

    def edges(self):
        """Received records, in fixture order."""
        return [m for m in self._msgs if m.t_recv is not None]

    def collectives(self):
        return list(self._colls)


class StubObs:
    """Duck-typed ``Observability`` carrying only the causal trace."""

    def __init__(self, messages=(), collectives=()):
        self.causal = StubCausal(messages, collectives)
