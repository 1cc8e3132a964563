"""``selectors``/epoll event-loop HTTP server: the ``/v1`` API's transport.

:class:`EventLoopServer` serves a :class:`~repro.service.api.QueryService`
(or any object with the same ``handle_request``) from a single
non-blocking event loop.  It is the only API server: single-process
``repro-serve serve`` (leader and ``--follow``), and in the pre-fork
pool (:mod:`repro.service.workers`) every reader, the writer and the
parent's control port.  An idle keep-alive connection costs one
registered file descriptor and a ~200-byte state object, not a thread.

The wire contract is locked down in ``tests/test_service_keepalive.py``
and ``tests/test_service_fuzz.py``:

* clean client errors (404/400/405-without-body) answer inside the
  persistent connection; protocol failures (chunked, missing/oversized/
  short ``Content-Length``) answer with ``Connection: close``;
* malformed request lines and unsupported HTTP versions answer bare
  JSON envelopes (the stdlib's HTTP/0.9 degradation);
* a drained body keeps pipelined keep-alive connections in sync, with
  a 1 MiB discard bound;
* an HTTP/1.1 ``Expect: 100-continue`` POST whose body has not arrived
  gets ``100 Continue`` first;
* ``unhandled_errors`` is the tripwire for anything that escapes
  request handling, and the fault-injection points
  (``api.request.read``, ``api.response.write``) fire here.

Request heads are framed by :mod:`repro.service.http1`, the parser the
``balance`` relay shares.  Every connection's resources are bounded: a
client that pipelines without reading stops being read (and its
buffered requests stop being parsed) once
:data:`_OUT_HIGH_WATER` response bytes are queued for it, and an
``accept`` that fails for lack of descriptors parks the listen socket
until the next idle sweep rather than spinning the loop.

Responses are written **zero-copy**: the service's shared-payload-cache
hits arrive as :class:`memoryview` slices over the mmap'd segment
(:meth:`repro.service.shared_cache.SharedPayloadCache.get`), and the
loop hands header and body straight to ``socket.sendmsg`` (scatter-
gather ``writev``) — the payload bytes go from the page cache to the
socket without ever being copied into a Python ``bytes`` object.

Dispatch is inline: route handlers run on the loop thread.  Cached
reads cost microseconds, so this is the latency-optimal choice.  The
calls that block — an ingest on a leader or the pool's writer, a
pool reader forwarding ``POST /v1/ingest`` to the writer, the control
port scraping the workers — park the loop while they run.  Threads
would not help there: an ingest holds the service lock every read
route takes.
"""

from __future__ import annotations

import errno
import os
import selectors
import socket
import threading
import time
from collections import deque
from itertools import islice
from typing import Any, Optional
from urllib.parse import urlsplit

from repro import faults
from repro.obs import logging as obslog
from repro.obs import tracing
from repro.service import http1
from repro.service.api import (
    UNHANDLED_ERRORS_CAPACITY, QueryService, Response, _M_ERRORS,
    _M_REQUESTS, _M_REQUEST_SECONDS, _M_UNHANDLED, allowed_methods,
    json_bytes)
from repro.util.ringlog import RingLog

__all__ = ["EventLoopServer"]

#: One recv per readiness event reads up to this much.
_RECV_CHUNK = 65536

#: Queued response bytes at which a connection stops parsing pipelined
#: requests; it resumes once its queue has drained to the socket.
_OUT_HIGH_WATER = 256 << 10

#: ``accept`` failures that mean "out of descriptors": the listen
#: socket is parked until the next idle sweep instead of spinning.
_ACCEPT_EXHAUSTED = frozenset({errno.EMFILE, errno.ENFILE})

_WRITEISH_METHODS = frozenset({"PUT", "DELETE", "PATCH"})

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class _Connection:
    """Per-socket state: one of these per client, however idle."""

    __slots__ = ("sock", "fd", "inbuf", "scan_pos", "out", "queued",
                 "events", "closing", "draining", "discard", "pending", "need",
                 "eof", "last_activity")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock: Optional[socket.socket] = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.scan_pos = 0           # head-scan resume point (O(n) total)
        self.out: deque[Any] = deque()  # bytes / memoryview, write order
        self.queued = 0             # bytes in ``out``
        self.events = _READ
        self.closing = False        # no more requests; close once flushed
        self.draining = False       # FIN sent; discarding until client EOF
        self.discard = 0            # request-body bytes still to skip
        self.pending: Optional[tuple[str, str, dict[str, str], bool]] = None
        self.need = 0               # body bytes the pending POST awaits
        self.eof = False
        self.last_activity = now


class EventLoopServer:
    """Single-threaded non-blocking HTTP server over ``selectors``.

    ``port=0`` picks a free port (``server.server_address[1]``); call
    ``serve_forever()`` to run, ``shutdown()`` to stop and
    ``server_close()`` to release the sockets.  Construct with either
    ``host``/``port`` or an already-listening ``listen_socket`` (the
    pre-fork pool's shared socket, which the server never closes).
    ``service`` is a plain attribute: every request dispatches through
    ``server.service.handle_request``.

    ``crash_exit_code``: when set, an injected crash
    (:class:`repro.faults.InjectedCrash`) terminates the process with
    this exit code — the pool's crash-to-exit contract.
    """

    #: Idle keep-alive connections are reaped after this many seconds,
    #: so a stalled client cannot pin a descriptor forever.
    timeout = 30.0

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0, listen_socket: Optional[socket.socket] = None,
                 crash_exit_code: Optional[int] = None) -> None:
        self.service = service
        self.unhandled_errors: RingLog = RingLog(UNHANDLED_ERRORS_CAPACITY)
        self.crash_exit_code = crash_exit_code
        if listen_socket is None:
            self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listen.bind((host, port))
            self._listen.listen(128)
            self._owns_listen = True
        else:
            self._listen = listen_socket
            self._owns_listen = False
        self._listen.setblocking(False)
        self.server_address = self._listen.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._conns: dict[int, _Connection] = {}
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._shutdown_request = False
        self._stopped = threading.Event()
        self._stopped.set()
        self._loop_thread: Optional[threading.Thread] = None
        self._accept_parked = False
        self._closed = False

    # -- lifecycle --------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._loop_thread = threading.current_thread()
        self._stopped.clear()
        self._accept_parked = False
        sel = self._selector
        sel.register(self._listen, _READ, data="listen")
        sel.register(self._wake_recv, _READ, data="wake")
        next_sweep = time.monotonic() + poll_interval
        try:
            while not self._shutdown_request:
                for key, _mask in sel.select(poll_interval):
                    if key.data == "listen":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            self._wake_recv.recv(4096)
                        except OSError:
                            pass
                    else:
                        self._handle_event(key.data, _mask)
                now = time.monotonic()
                if now >= next_sweep:
                    self._sweep_idle(now)
                    next_sweep = now + poll_interval
        finally:
            for fd in (self._listen, self._wake_recv):
                try:
                    sel.unregister(fd)
                except (KeyError, ValueError):
                    pass
            # Reset here, not on entry: a shutdown() that lands before
            # the loop starts still stops it.
            self._shutdown_request = False
            self._stopped.set()

    def shutdown(self) -> None:
        self._shutdown_request = True
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass
        if threading.current_thread() is not self._loop_thread:
            self._stopped.wait(timeout=10)

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        if self._owns_listen:
            self._listen.close()
        for sock in (self._wake_recv, self._wake_send):
            sock.close()
        self._selector.close()

    # -- connection plumbing ----------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:
                if error.errno in _ACCEPT_EXHAUSTED:
                    # Level-triggered epoll would report the backlog
                    # again at once: park the listen socket until the
                    # next idle sweep, which may also free descriptors.
                    self._selector.unregister(self._listen)
                    self._accept_parked = True
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            conn = _Connection(sock, time.monotonic())
            self._conns[conn.fd] = conn
            self._selector.register(sock, _READ, data=conn)

    def _set_events(self, conn: _Connection, events: int) -> None:
        if conn.sock is None or conn.events == events:
            return
        conn.events = events
        self._selector.modify(conn.sock, events, data=conn)

    def _close_conn(self, conn: _Connection) -> None:
        if conn.sock is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.fd, None)
        try:
            conn.sock.close()
        except OSError:
            pass
        conn.sock = None
        conn.out.clear()
        conn.queued = 0

    def _sweep_idle(self, now: float) -> None:
        cutoff = now - self.timeout
        for conn in [c for c in self._conns.values()
                     if c.last_activity < cutoff]:
            self._close_conn(conn)
        if self._accept_parked:
            self._accept_parked = False
            self._selector.register(self._listen, _READ, data="listen")

    def _handle_event(self, conn: _Connection, mask: int) -> None:
        try:
            if mask & _WRITE:
                self._flush(conn)
                if conn.sock is not None and not conn.out and conn.inbuf:
                    self._process(conn)  # resume a paused pipeline
            if conn.sock is not None and mask & _READ:
                self._read(conn)
        except BaseException as error:  # noqa: BLE001 — loop must survive
            if faults.is_crash(error):
                if self.crash_exit_code is not None:
                    os._exit(self.crash_exit_code)
                raise
            if isinstance(error, (ConnectionResetError, BrokenPipeError,
                                  TimeoutError)):
                self._close_conn(conn)
                return
            self.unhandled_errors.append(error)
            _M_UNHANDLED.inc()
            obslog.log_event("http.unhandled_error", level="error",
                             error=type(error).__name__)
            try:
                self._queue_error(conn, 500, "internal server error",
                                  close=True)
                self._flush(conn)
            except OSError:
                self._close_conn(conn)

    def _read(self, conn: _Connection) -> None:
        assert conn.sock is not None
        while True:
            try:
                data = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if not data:
                conn.eof = True
                break
            if conn.draining:
                continue  # lingering close: discard until client EOF
            conn.inbuf += data
            if len(data) < _RECV_CHUNK:
                break
        if conn.draining:
            if conn.eof:
                self._close_conn(conn)
            return
        conn.last_activity = time.monotonic()
        self._process(conn)

    # -- request parsing ---------------------------------------------------
    def _process(self, conn: _Connection) -> None:
        """Drive the parse state machine over whatever is buffered.

        Parsing pauses once :data:`_OUT_HIGH_WATER` response bytes are
        queued; it goes on here if the flush drained them, else from
        the connection's next write event.
        """
        while True:
            while (conn.sock is not None and not conn.closing
                   and conn.queued < _OUT_HIGH_WATER):
                if conn.discard:
                    take = min(len(conn.inbuf), conn.discard)
                    del conn.inbuf[:take]
                    conn.scan_pos = 0
                    conn.discard -= take
                    if conn.discard:
                        if conn.eof:
                            conn.closing = True  # drained body never arriving
                        break
                if conn.pending is not None:
                    if len(conn.inbuf) < conn.need:
                        if conn.eof:
                            self._queue_error(
                                conn, 400,
                                "request body shorter than Content-Length",
                                close=True)
                        break
                    body = bytes(conn.inbuf[:conn.need])
                    del conn.inbuf[:conn.need]
                    conn.scan_pos = 0
                    method, target, headers, close_requested = conn.pending
                    conn.pending = None
                    self._dispatch_with_body(conn, method, target, headers,
                                             close_requested, body)
                    continue
                if not self._parse_head(conn):
                    break
            paused = conn.queued >= _OUT_HIGH_WATER
            self._flush(conn)
            if not (paused and conn.sock is not None and not conn.out):
                return

    def _parse_head(self, conn: _Connection) -> bool:
        """Parse and dispatch one request head if fully buffered.

        Returns ``True`` when a request was consumed (the caller loops
        for pipelining), ``False`` when more bytes are needed — after
        queueing whatever protocol-error answer applies.
        """
        try:
            head, conn.scan_pos = http1.parse_request_head(
                conn.inbuf, conn.eof, conn.scan_pos)
        except http1.HeadError as error:
            if error.bare:
                self._queue_bare_error(conn, error.status, error.message)
            else:
                self._queue_error(conn, error.status, error.message,
                                  close=True)
            return False
        if head is None:
            if conn.eof and not conn.inbuf.strip():
                conn.closing = True  # clean half-close between requests
            return False
        if head.simple:
            self._dispatch_simple(conn, head.target)
            return False
        self._dispatch_head(conn, head)
        return True

    # -- dispatch ----------------------------------------------------------
    def _dispatch_head(self, conn: _Connection,
                       head: http1.RequestHead) -> None:
        method, target, headers = head.method, head.target, head.headers
        try:
            length, must_close = http1.request_body(method, headers)
        except http1.HeadError as error:
            self._queue_error(conn, error.status, error.message, close=True)
            return
        if method == "POST":
            conn.pending = (method, target, headers, head.close)
            conn.need = length
            if head.expect_continue and len(conn.inbuf) < length:
                self._enqueue(conn, http1.CONTINUE)
            return
        # Non-POST: drain any declared body so pipelining stays in sync.
        conn.discard = length
        must_close = must_close or head.close
        if method in ("GET", "HEAD"):
            response = self._service_call("GET", target, headers, b"",
                                          command=method)
            self._queue_response(conn, response, send_body=method != "HEAD",
                                 close=must_close)
        elif method in _WRITEISH_METHODS:
            allow = allowed_methods(urlsplit(target).path)
            self._queue_error(
                conn, 405,
                f"method {method} not allowed (allowed: {allow})",
                close=must_close, allow=allow)
        else:
            self._queue_error(conn, 501,
                              f"unsupported method ({method!r})", close=True)

    def _dispatch_with_body(self, conn: _Connection, method: str,
                            target: str, headers: dict[str, str],
                            close_requested: bool, body: bytes) -> None:
        if faults.ACTIVE is not None:
            # Injection point "api.request.read": a drop is the client
            # vanishing mid-upload, an error rule a socket-level read
            # failure.
            try:
                faults.ACTIVE.hit("api.request.read")
            except ConnectionResetError:
                self._close_conn(conn)
                return
            except faults.InjectedFault:
                self.unhandled_errors.append(
                    faults.InjectedFault("api.request.read"))
                self._queue_error(conn, 500, "internal server error",
                                  close=True)
                return
        response = self._service_call(method, target, headers, body,
                                      command=method)
        self._queue_response(conn, response, send_body=True,
                             close=close_requested)

    def _dispatch_simple(self, conn: _Connection, target: str) -> None:
        """HTTP/0.9: body only, then close (stdlib degradation parity)."""
        response = self._service_call("GET", target, {}, b"", command="GET")
        if response.body:
            self._enqueue(conn, self._fault_body(conn, response.body))
        conn.closing = True

    def _service_call(self, method: str, target: str,
                      headers: dict[str, str], body: bytes,
                      command: str) -> Response:
        """One traced service call: the wire layer's telemetry lives here.

        A request either presents an ``X-Request-Id`` (propagated
        verbatim — this is how a leader correlates a follower's fetches)
        or gets a fresh id; the id is active (``repro.obs.tracing``)
        for the duration of the call, echoed on the response, and
        stamped into every structured log line the call emits.  A wire
        request costs several times a cached in-process read, so
        registry counters and a histogram observation are affordable
        here — unlike in :meth:`QueryService.handle_request`, which
        in-process callers hit at ~5 µs per cached read.
        """
        trace_id = headers.get("X-Request-Id") or tracing.new_trace_id()
        start = time.perf_counter()
        token = tracing.activate(trace_id)
        try:
            response = self.service.handle_request(
                target, headers, method=method, body=body)
            duration = time.perf_counter() - start
            response.headers["X-Request-Id"] = trace_id
            _M_REQUESTS.labels(method=command).inc()
            _M_REQUEST_SECONDS.observe(duration)
            if obslog.enabled("debug"):
                obslog.log_event(
                    "http.request", level="debug", method=command,
                    path=target, status=response.status,
                    duration_ms=round(duration * 1000.0, 3),
                    cache=response.headers.get("X-Repro-Cache"))
            return response
        finally:
            tracing.deactivate(token)

    # -- response assembly -------------------------------------------------
    @staticmethod
    def _enqueue(conn: _Connection, chunk: Any) -> None:
        # An empty chunk would never leave the queue: ``sendmsg`` of
        # nothing returns 0, and ``_flush`` would spin on it forever.
        if chunk:
            conn.out.append(chunk)
            conn.queued += len(chunk)

    def _fault_body(self, conn: _Connection, body) -> Any:
        """Apply the ``api.response.write`` injection point to ``body``.

        A ``torn`` rule truncates the body (the declared Content-Length
        stays full, so the client observes a torn response) and closes;
        a ``drop`` ships nothing and closes: from the client's side,
        the connection died mid-body.
        """
        if faults.ACTIVE is None:
            return body
        try:
            keep = faults.ACTIVE.on_write("api.response.write", len(body))
        except (faults.InjectedFault, ConnectionResetError):
            conn.closing = True
            return b""
        if keep is None:
            return body
        conn.closing = True
        return body[:keep]

    def _queue_response(self, conn: _Connection, response: Response,
                        send_body: bool, close: bool) -> None:
        status = response.status
        fields = [f"{name}: {value}\r\n"
                  for name, value in response.headers.items()]
        fields.append(f"Content-Length: {len(response.body)}\r\n")
        self._enqueue(conn, http1.response_head(
            status, "".join(fields).encode("latin-1"), close))
        if (send_body and response.body and status >= 200
                and status not in (204, 205, 304)):
            # The body rides as its own iovec: a shared-cache memoryview
            # goes to sendmsg untouched (zero-copy), bytes likewise.
            self._enqueue(conn, self._fault_body(conn, response.body))
        if close:
            conn.closing = True

    def _queue_error(self, conn: _Connection, status: int, message: str,
                     close: bool = False,
                     allow: Optional[str] = None) -> None:
        """A transport-level error in the same envelope the API uses."""
        _M_ERRORS.labels(code=str(status)).inc()
        body = json_bytes({"error": {"status": status, "message": message}})
        headers = {"Content-Type": "application/json; charset=utf-8"}
        if allow:
            headers = {"Allow": allow, **headers}
        self._queue_response(
            conn, Response(status, body, headers), send_body=True,
            close=close)

    def _queue_bare_error(self, conn: _Connection, status: int,
                          message: str) -> None:
        """Protocol failure before HTTP/1.1 framing was agreed.

        Stdlib parity: when the request line never parsed (or declared
        an unsupported version), the answer is the JSON envelope *body
        only* — no status line, no headers — and the connection closes.
        """
        self._enqueue(conn, json_bytes(
            {"error": {"status": status, "message": message}}))
        conn.closing = True

    # -- writing -----------------------------------------------------------
    def _flush(self, conn: _Connection) -> None:
        if conn.sock is None:
            return
        out = conn.out
        while out:
            try:
                sent = conn.sock.sendmsg(list(islice(out, 32)))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            conn.queued -= sent
            while sent:
                size = len(out[0])
                if sent >= size:
                    sent -= size
                    out.popleft()
                else:
                    first = out[0]
                    view = first if isinstance(first, memoryview) \
                        else memoryview(first)
                    out[0] = view[sent:]
                    sent = 0
        if out:
            # Backpressure: read no more requests until the client has
            # taken what is already queued for it.
            self._set_events(conn, _WRITE)
            return
        self._set_events(conn, _READ)
        if conn.closing or (conn.eof and conn.pending is None
                            and not conn.inbuf.strip()):
            if conn.eof:
                # The client already finished sending: a plain close
                # delivers a clean FIN.
                self._close_conn(conn)
            else:
                self._linger_close(conn)

    def _linger_close(self, conn: _Connection) -> None:
        """Send FIN, then drain until the client closes its side.

        Closing outright here would RST a pipelined request the client
        already has in flight (data arriving at a closed socket), and
        the client would see a connection *reset* instead of the clean
        EOF the wire contract promises after a ``Connection: close``
        answer.  The drain is bounded by the idle sweep.
        """
        if conn.draining or conn.sock is None:
            return
        conn.draining = True
        conn.inbuf.clear()
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close_conn(conn)
            return
        self._set_events(conn, _READ)
