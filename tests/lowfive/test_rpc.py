"""RPC-over-MPI abstraction tests (the paper's custom RPC layer)."""

import pytest

from repro.lowfive.rpc import (
    Defer,
    RPCClient,
    RPCError,
    RPCServer,
    RPCTimeout,
    TAG_REPLY,
    TAG_REQUEST,
)
from repro.simmpi import Engine, Intercomm


def run_client_server(client_main, server_setup, nclients=2, nservers=1):
    """Launch clients + servers over an intercomm."""
    eng = Engine(nclients + nservers)
    c_view, s_view = Intercomm.create(
        eng, list(range(nclients)),
        list(range(nclients, nclients + nservers)),
    )

    def main(world):
        if world.rank < nclients:
            client = RPCClient(c_view)
            result = client_main(client, world.rank)
            client.notify_all("__done__")
            return result
        server = RPCServer()
        server_setup(server)
        server.attach(s_view)
        server.serve()
        return "served"

    return eng.run(main)


def test_basic_call_roundtrip():
    def setup(server):
        server.register("add", lambda source, a, b: a + b)

    def client(c, rank):
        return c.call(0, "add", rank, 10)

    res = run_client_server(client, setup)
    assert res.returns[:2] == [10, 11]


def test_handler_sees_source_rank():
    def setup(server):
        server.register("who", lambda source: source)

    def client(c, rank):
        return c.call(0, "who")

    res = run_client_server(client, setup)
    assert res.returns[:2] == [0, 1]


def test_unknown_function_raises_client_side():
    def setup(server):
        pass

    def client(c, rank):
        with pytest.raises(RPCError, match="unknown function"):
            c.call(0, "nope")
        return True

    res = run_client_server(client, setup, nclients=1)
    assert res.returns[0] is True


def test_handler_exception_forwarded():
    def setup(server):
        def boom(source):
            raise ValueError("bad input")

        server.register("boom", boom)

    def client(c, rank):
        with pytest.raises(RPCError, match="ValueError: bad input"):
            c.call(0, "boom")
        return True

    res = run_client_server(client, setup, nclients=1)
    assert res.returns[0] is True


def test_notify_handlers_fire_without_reply():
    seen = []

    def setup(server):
        server.on_notify("event", lambda source, x: seen.append((source, x)))
        server.register("count", lambda source: len(seen))

    def client(c, rank):
        c.notify(0, "event", rank * 100)
        # Requests and notifications ride different lanes, so poll until
        # the notification has been consumed.
        for _ in range(100):
            if c.call(0, "count") == 1:
                return 1
        return 0

    res = run_client_server(client, setup, nclients=1)
    assert res.returns[0] == 1
    assert seen == [(0, 0)]


def test_defer_replays_after_new_traffic():
    state = {"ready": False}

    def setup(server):
        def get(source):
            if not state["ready"]:
                raise Defer()
            return "data"

        def arm(source):
            state["ready"] = True

        server.register("get", get)
        server.on_notify("arm", arm)

    def client(c, rank):
        if rank == 0:
            return c.call(0, "get")  # deferred until rank 1 arms
        c.inter.compute(0.05)  # the arm arrives after the get
        c.notify(0, "arm")
        return "armed"

    res = run_client_server(client, setup, nclients=2)
    assert res.returns[0] == "data"


def test_server_multiplexes_two_intercomms():
    eng = Engine(3)
    a_view, sa = Intercomm.create(eng, [0], [2])
    b_view, sb = Intercomm.create(eng, [1], [2])

    def main(world):
        if world.rank == 2:
            server = RPCServer()
            server.register("echo", lambda source, x: x)
            server.attach(sa)
            server.attach(sb)
            server.serve()
            return "done"
        inter = a_view if world.rank == 0 else b_view
        client = RPCClient(inter)
        out = client.call(0, "echo", f"from-{world.rank}")
        client.notify_all("__done__")
        return out

    res = eng.run(main)
    assert res.returns[0] == "from-0"
    assert res.returns[1] == "from-1"


def test_serve_timeout_raises():
    # The serve timeout is measured on the virtual clock: the client
    # computes on (virtual progress) but never sends done, so the
    # server starves out after 0.3 *simulated* seconds.
    eng = Engine(2)
    c_view, s_view = Intercomm.create(eng, [0], [1])

    def main(world):
        if world.rank == 1:
            server = RPCServer()
            server.attach(s_view)
            with pytest.raises(RPCTimeout, match="starved"):
                server.serve(timeout=0.3)  # client never sends done
            return "timed-out"
        world.compute(1.0)
        return "silent"

    res = eng.run(main)
    assert res.returns[1] == "timed-out"


def test_poll_once_handles_the_next_message_or_nothing():
    eng = Engine(2)
    s_view, c_view = Intercomm.create(eng, [0], [1])

    def main(world):
        if world.rank == 0:  # the server runs first: nothing is queued
            server = RPCServer()
            server.register("echo", lambda source, x: x)
            server.attach(s_view)
            assert server.poll_once() is False
            world.barrier()  # the client posts its call, then parks
            assert server.poll_once() is True
            assert server.poll_once() is False
            server.serve()
            return "served"
        client = RPCClient(c_view)
        req = c_view.isend(("echo", ("hi",)), 0, TAG_REQUEST)
        world.barrier()
        req.wait()
        reply, _ = c_view.recv(source=0, tag=TAG_REPLY)
        client.notify_all("__done__")
        return reply

    res = eng.run(main)
    assert res.returns == ["served", (True, "hi")]


def test_serve_without_intercomms_returns():
    server = RPCServer()
    server.serve()  # no-op


def test_done_counting_resets_between_epochs():
    def setup(server):
        server.register("ping", lambda source: "pong")

    eng = Engine(2)
    c_view, s_view = Intercomm.create(eng, [0], [1])

    def main(world):
        if world.rank == 1:
            server = RPCServer()
            server.register("ping", lambda source: "pong")
            server.attach(s_view)
            server.serve()  # epoch 1
            server.serve()  # epoch 2
            return "two-epochs"
        client = RPCClient(c_view)
        assert client.call(0, "ping") == "pong"
        client.notify_all("__done__")
        assert client.call(0, "ping") == "pong"
        client.notify_all("__done__")
        return "ok"

    res = eng.run(main)
    assert res.returns == ["ok", "two-epochs"]
