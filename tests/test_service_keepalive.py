"""Wire-level keep-alive semantics of the /v1 HTTP layer.

The contract these tests lock down: a *clean* client error — 404 on an
unknown route, 400 on a bad parameter, 405 on a disallowed method with
no body pending — answers inside the persistent connection and keeps
it open, because the handler's parser state is still perfectly aligned
with the stream.  Only *protocol-level* failures, where the server can
no longer trust its position in the byte stream (chunked bodies, a
missing or oversized Content-Length, a body shorter than declared),
tear the connection down with ``Connection: close``.

A benchmark client reusing connections (the worker-pool speedup rides
on this) must not lose its connection to a stray 404.
"""

import datetime as dt
import json
import socket

import pytest

from repro.providers.base import ListArchive, ListSnapshot
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.store import ArchiveStore


@pytest.fixture(scope="module")
def keepalive_server(tmp_path_factory):
    snapshots = [
        ListSnapshot("alexa", dt.date(2018, 5, 1) + dt.timedelta(days=day),
                     ("a.com", "b.org", "c.net"))
        for day in range(3)
    ]
    store = ArchiveStore.from_archives(
        tmp_path_factory.mktemp("keepalive"),
        {"alexa": ListArchive.from_snapshots(snapshots)})
    server = EventLoopServer(QueryService(store))
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    store.close()


def _read_response(reader) -> tuple[int, dict, bytes]:
    """Parse one framed HTTP response off a socket file."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        assert line, "connection closed mid-headers"
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _request(port: int, payloads: list[bytes]) -> list[tuple[int, dict, bytes]]:
    """Send several requests over ONE connection; collect the answers.

    Stops early when the server closed the connection (EOF instead of a
    status line) — the caller asserts on how many answers arrived.
    """
    responses = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        for payload in payloads:
            sock.sendall(payload)
            try:
                responses.append(_read_response(reader))
            except AssertionError:
                break
    return responses


def _get(path: str, extra: str = "") -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: t\r\n{extra}\r\n").encode()


def _port(server) -> int:
    return server.server_address[1]


class TestCleanErrorsKeepAlive:
    def test_404_then_200_on_one_connection(self, keepalive_server):
        """The satellite's wire test: a 404 must not cost the connection."""
        responses = _request(_port(keepalive_server), [
            _get("/v1/nope"),
            _get("/v1/meta"),
        ])
        assert [status for status, _, _ in responses] == [404, 200]
        status, headers, body = responses[0]
        assert headers.get("connection") != "close"
        assert json.loads(body)["error"]["status"] == 404
        assert json.loads(responses[1][2])["providers"]["alexa"]["days"] == 3

    def test_400_bad_param_keeps_connection(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            _get("/v1/domains/a.com/history?top_k=wat"),
            _get("/v1/meta"),
        ])
        assert [status for status, _, _ in responses] == [400, 200]
        assert responses[0][1].get("connection") != "close"

    def test_405_without_body_keeps_connection(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            (b"PUT /v1/meta HTTP/1.1\r\nHost: t\r\n"
             b"Content-Length: 0\r\n\r\n"),
            _get("/v1/meta"),
        ])
        assert [status for status, _, _ in responses] == [405, 200]
        assert "GET" in responses[0][1]["allow"]

    def test_many_mixed_requests_one_connection(self, keepalive_server):
        """A burst mixing hits and clean misses all rides one socket."""
        cycle = [_get("/v1/meta"), _get("/v1/nope"),
                 _get("/v1/providers/alexa/stability"),
                 _get("/v1/does/not/exist")]
        responses = _request(_port(keepalive_server), cycle * 5)
        assert len(responses) == 20
        assert [status for status, _, _ in responses] == \
            [200, 404, 200, 404] * 5
        # Every reused-connection answer carries the bytes a fresh
        # connection gets for the same target.
        for offset, path in ((0, "/v1/meta"),
                             (2, "/v1/providers/alexa/stability")):
            fresh = _request(_port(keepalive_server), [_get(path)])[0][2]
            assert {body for _, _, body in responses[offset::4]} == {fresh}


class TestProtocolFailuresClose:
    def test_411_missing_length_closes(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            b"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n\r\n",
            _get("/v1/meta"),
        ])
        assert [status for status, _, _ in responses] == [411]
        assert responses[0][1]["connection"] == "close"

    def test_413_oversized_closes(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            (b"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n"
             b"Content-Length: 99999999999\r\n\r\n"),
            _get("/v1/meta"),
        ])
        assert [status for status, _, _ in responses] == [413]
        assert responses[0][1]["connection"] == "close"

    def test_chunked_body_closes(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            (b"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n"
             b"Transfer-Encoding: chunked\r\n\r\n"),
            _get("/v1/meta"),
        ])
        assert [status for status, _, _ in responses] == [400]
        assert responses[0][1]["connection"] == "close"


class TestIfNoneMatchRFC7232:
    """RFC 7232 §3.2 revalidation: ETag lists, ``*``, weak prefixes."""

    def _etag(self, port: int) -> str:
        responses = _request(port, [_get("/v1/meta")])
        assert responses[0][0] == 200
        return responses[0][1]["etag"]

    def test_etag_inside_comma_list_revalidates(self, keepalive_server):
        port = _port(keepalive_server)
        etag = self._etag(port)
        responses = _request(port, [
            _get("/v1/meta",
                 f'If-None-Match: "deadbeef", {etag}, "cafef00d"\r\n'),
            _get("/v1/meta"),
        ])
        # The 304 answers in-connection and keep-alive survives it.
        assert [status for status, _, _ in responses] == [304, 200]
        assert responses[0][2] == b""

    def test_weak_prefix_is_ignored(self, keepalive_server):
        port = _port(keepalive_server)
        etag = self._etag(port)
        responses = _request(port, [
            _get("/v1/meta", f"If-None-Match: W/{etag}\r\n")])
        assert responses[0][0] == 304

    def test_star_matches_any_representation(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            _get("/v1/meta", "If-None-Match: *\r\n")])
        assert responses[0][0] == 304

    def test_list_without_match_serves_200(self, keepalive_server):
        responses = _request(_port(keepalive_server), [
            _get("/v1/meta",
                 'If-None-Match: "deadbeef", W/"cafef00d"\r\n')])
        assert responses[0][0] == 200
        assert responses[0][2]

    def test_etag_substring_does_not_match(self, keepalive_server):
        # A candidate equal to a *prefix* of the stored opaque tag must
        # not revalidate — comparison is whole-tag, not substring.
        port = _port(keepalive_server)
        etag = self._etag(port)
        truncated = etag[:-2] + '"'
        responses = _request(port, [
            _get("/v1/meta", f"If-None-Match: {truncated}\r\n")])
        assert responses[0][0] == 200


def _server_side(server, client: socket.socket) -> socket.socket:
    """The server's socket for ``client``'s (already accepted) connection."""
    for conn in list(server._conns.values()):
        try:
            if conn.sock.getpeername() == client.getsockname():
                return conn.sock
        except (AttributeError, OSError):  # closed meanwhile
            continue
    raise AssertionError("connection not found on the server")


class TestNoDelay:
    def test_handler_disables_nagle(self, keepalive_server):
        """TCP_NODELAY is the keep-alive throughput fix: without it every
        small response waits out the client's delayed ACK (~40 ms)."""
        with socket.create_connection(
                ("127.0.0.1", _port(keepalive_server)), timeout=10) as sock:
            sock.sendall(_get("/v1/meta"))
            with sock.makefile("rb") as reader:
                assert _read_response(reader)[0] == 200
            accepted = _server_side(keepalive_server, sock)
            assert accepted.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
