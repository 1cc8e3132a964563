"""Event-loop server: idle cost, resource bounds, faults, zero-copy path.

The wire contract itself (keep-alive, protocol failures, fuzz) is
locked down in ``tests/test_service_keepalive.py`` and
``tests/test_service_fuzz.py``, which run against this server.
"""

import datetime as dt
import errno
import socket
import threading
import time

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.providers.base import ListArchive, ListSnapshot
from repro.service import eventloop
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.shared_cache import SharedPayloadCache
from repro.service.store import ArchiveStore

from test_service_keepalive import _get, _request


def _serve(server: EventLoopServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return thread


class TestIdleConnectionCost:
    def test_idle_keepalive_connections_cost_no_threads(self, small_server):
        """The module's reason to exist: parked sockets are just fds."""
        _serve(small_server)
        port = small_server.server_address[1]
        before = threading.active_count()
        idle = []
        try:
            for _ in range(64):
                sock = socket.create_connection(("127.0.0.1", port),
                                                timeout=10)
                idle.append(sock)
            # The server never grows a thread for any of them ...
            assert threading.active_count() == before
            # ... and still answers interleaved traffic promptly.
            responses = _request(port, [_get("/v1/meta")] * 3)
            assert [status for status, _, _ in responses] == [200] * 3
            assert threading.active_count() == before
        finally:
            for sock in idle:
                sock.close()

    def test_idle_connections_are_reaped_after_timeout(self, tmp_path):
        snapshots = [ListSnapshot("alexa", dt.date(2018, 5, 1), ("a.com",))]
        store = ArchiveStore.from_archives(
            tmp_path / "s", {"alexa": ListArchive.from_snapshots(snapshots)})
        server = EventLoopServer(QueryService(store))
        server.timeout = 0.3
        _serve(server)
        try:
            with socket.create_connection(
                    ("127.0.0.1", server.server_address[1]), timeout=10) as s:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if s.recv(1) == b"":  # server closed the idle socket
                        break
                else:
                    raise AssertionError("idle connection never reaped")
        finally:
            server.shutdown()
            server.server_close()
            store.close()


@pytest.fixture()
def small_server(tmp_path):
    snapshots = [ListSnapshot("alexa", dt.date(2018, 5, 1), ("a.com",))]
    store = ArchiveStore.from_archives(
        tmp_path / "s", {"alexa": ListArchive.from_snapshots(snapshots)})
    server = EventLoopServer(QueryService(store))
    yield server
    server.shutdown()
    server.server_close()
    store.close()


class TestResourceBounds:
    def test_non_reading_pipeliner_is_bounded_then_served_in_order(
            self, small_server):
        _serve(small_server)
        count = 10_000
        client = socket.socket()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        client.settimeout(30)
        client.connect(("127.0.0.1", small_server.server_address[1]))
        deadline = time.monotonic() + 10
        while not small_server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        (conn,) = small_server._conns.values()
        # Small kernel buffers on both ends, so the queue is the server's.
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        requests = b"".join(
            f"GET /v1/meta HTTP/1.1\r\nHost: x\r\nX-Request-Id: r{i}\r\n"
            f"\r\n".encode() for i in range(count))
        sender = threading.Thread(target=client.sendall, args=(requests,),
                                  daemon=True)
        sender.start()
        peak = 0
        until = time.monotonic() + 1.0
        while time.monotonic() < until:  # the client reads nothing yet
            peak = max(peak, conn.queued)
            time.sleep(0.005)
        assert 0 < peak <= eventloop._OUT_HIGH_WATER + 64 * 1024
        rfile = client.makefile("rb")
        try:
            for i in range(count):
                assert rfile.readline().startswith(b"HTTP/1.1 200 "), i
                length = ident = None
                while True:
                    line = rfile.readline()
                    if line == b"\r\n":
                        break
                    name, _, value = line.decode().partition(":")
                    if name == "Content-Length":
                        length = int(value)
                    elif name == "X-Request-Id":
                        ident = value.strip()
                assert ident == f"r{i}"
                assert len(rfile.read(length)) == length
        finally:
            rfile.close()
            client.close()
        sender.join(timeout=10)
        assert not sender.is_alive()

    def test_exhausted_accept_does_not_spin(self, small_server, monkeypatch):
        calls = 0
        exhausted = True
        real_accept = socket.socket.accept

        def accept(sock):
            nonlocal calls
            if sock is small_server._listen:
                calls += 1
                if exhausted:
                    raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept)
        threading.Thread(target=small_server.serve_forever,
                         kwargs={"poll_interval": 0.1}, daemon=True).start()
        with socket.create_connection(
                ("127.0.0.1", small_server.server_address[1]),
                timeout=10) as client:
            time.sleep(0.5)
            assert 1 <= calls <= 10  # one per idle sweep, not a spin
            exhausted = False
            client.sendall(b"GET /v1/meta HTTP/1.1\r\nHost: x\r\n\r\n")
            assert client.recv(12) == b"HTTP/1.1 200"


class TestInjectedWriteFaults:
    @pytest.mark.parametrize("rule", [
        FaultRule("api.response.write", "drop", max_fires=1),
        FaultRule("api.response.write", "torn", keep_bytes=0, max_fires=1),
    ], ids=["drop", "torn-0"])
    def test_emptied_body_does_not_stall_the_loop(self, small_server, rule):
        """A fault that leaves nothing of the body to send closes that
        connection; the next client is answered at once."""
        _serve(small_server)
        port = small_server.server_address[1]
        plan = FaultPlan(1, [rule])
        with faults.injected(plan):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=2) as first:
                first.sendall(_get("/v1/meta"))
                data = b""
                while piece := first.recv(65536):
                    data += piece
            assert data.startswith(b"HTTP/1.1 200 ")
            assert plan.fired
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=2) as second:
                second.sendall(_get("/v1/meta"))
                assert second.recv(12) == b"HTTP/1.1 200"
        assert small_server.unhandled_errors == []


class TestZeroCopySharedPayloads:
    def test_shared_cache_returns_memoryview(self, tmp_path):
        cache = SharedPayloadCache(tmp_path / "seg.bin")
        assert cache.put(7, "/v1/meta", b"payload-bytes", "w/tag")
        body, etag = cache.get(7, "/v1/meta")
        assert isinstance(body, memoryview)
        assert body == b"payload-bytes" and etag == "w/tag"
        cache.close()

    def test_view_survives_cache_remap_and_close(self, tmp_path):
        cache = SharedPayloadCache(tmp_path / "seg.bin")
        cache.put(1, "/a", b"first-body", "t1")
        body, _ = cache.get(1, "/a")
        # Growing the file forces a remap while the view is exported;
        # closing with a live export must not raise either.
        cache.put(1, "/b", b"x" * 4096, "t2")
        assert cache.get(1, "/b") is not None
        cache.close()
        assert bytes(body) == b"first-body"

    def test_event_loop_serves_shared_hit_zero_copy(self, tmp_path):
        snapshots = [
            ListSnapshot("alexa", dt.date(2018, 5, 1) + dt.timedelta(days=d),
                         ("a.com", "b.org")) for d in range(2)]
        store = ArchiveStore.from_archives(
            tmp_path / "s", {"alexa": ListArchive.from_snapshots(snapshots)})
        segment = tmp_path / "seg.bin"
        renderer = QueryService(store)
        renderer.attach_shared_cache(SharedPayloadCache(segment))
        rendered = renderer.handle_request("/v1/meta", {})
        assert rendered.status == 200

        serving = QueryService(ArchiveStore(tmp_path / "s"))
        shared = SharedPayloadCache(segment)
        serving.attach_shared_cache(shared)
        server = EventLoopServer(serving)
        _serve(server)
        try:
            responses = _request(server.server_address[1],
                                 [_get("/v1/meta")])
            status, headers, body = responses[0]
            assert status == 200
            assert headers["x-repro-cache"] == "shared"
            assert body == bytes(rendered.body)
            assert headers["etag"] == rendered.headers["ETag"]
            assert server.unhandled_errors == []
        finally:
            server.shutdown()
            server.server_close()
