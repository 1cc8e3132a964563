"""``repro-serve balance`` — a stdlib round-robin HTTP balancer.

The pool (:mod:`repro.service.workers`) scales one machine; the
replication layer (:mod:`repro.service.replica`) scales to many.  What
joins them into one endpoint is deliberately boring: a threaded
reverse proxy that round-robins requests across backends, **ejects** a
backend whose ``/v1/ready`` probe fails (a follower that fell past its
staleness bound answers 503 there — that is the contract this proxy
consumes), and **re-admits** it as soon as the probe passes again.

No queueing, no weights, no sticky sessions: every backend serves
byte-identical payloads for a given store version (the differential
tests assert it), so any admitted backend is as good as any other and
round-robin is optimal.  Connection errors are the proxy's to absorb;
HTTP statuses (including a backend's own 5xx) are the backend's to
answer and pass through verbatim.  Retries respect idempotency:

* **GET/HEAD** are retried on the next admitted backend after *any*
  connection failure — re-reading is always safe.
* **POST** (and anything else non-idempotent) fails over only when the
  connection died *before* the request was transmitted.  Once any
  request byte may have reached a backend, a replay could apply the
  same ingest twice (the first backend may have appended the day and
  died before answering), so the proxy answers 502 and leaves the
  retry decision to the client, who can ask the store whether the
  write landed.

GET/HEAD travel over pooled keep-alive upstream connections: each
backend keeps a LIFO stack of at most :data:`MAX_IDLE_PER_BACKEND` idle
connections, so a steady read load pays no TCP connect, accept and close
per request.  A pooled connection the backend closed while it sat idle
(the 30 s idle sweep, a restarted worker) fails before any response
byte arrives; the read is then resent once on a fresh connection to the
same backend, which is neither a backend error nor an ejection.  POST
and every other non-idempotent method always open a fresh connection
and close it afterwards, so a stale socket can never blur the
"never replay an ingest" rule above.

The proxy is a raw-bytes HTTP/1.1 relay with one thread per client
connection.  Request heads are framed by :mod:`repro.service.http1`,
the parser the event-loop workers use, so malformed, oversized, chunked
or unframed requests get the same answers from the proxy as from a
worker, and are never forwarded.  That includes a header line with a
control character or a CR inside it: a stdlib backend would split it
into lines the proxy never saw.  Upstream, the proxy writes the request
head itself: the hop-by-hop headers (``Connection``, ``Keep-Alive``,
``Proxy-*``, ``TE``, ``Trailers``, ``Transfer-Encoding``, ``Upgrade``)
and ``Expect`` are removed (the proxy answers an HTTP/1.1 ``Expect:
100-continue`` itself before it reads the body), ``Host`` names the
backend, and ``Content-Length`` is rewritten — only a POST carries a
body upstream; any other method's declared body is drained, as a
worker would.  The reply is framed by its ``Content-Length`` (no body
for a HEAD, 1xx, 204 or 304); one without a length is read to EOF, and
neither it nor one with ``Connection: close`` leaves its connection in
the pool.  A chunked reply counts as a connection failure (repro-serve
backends never send one).  The client gets the backend's status and
headers minus the hop-by-hop ones, with the proxy's own single
``Server: repro-serve/1.1`` and ``Date`` in place of the backend's, in
one write.

``GET /v1/balancer`` on the proxy itself reports the rotation: per
backend admitted/ejected state, probe counters, proxied request
tallies, upstream connects and pooled reuses, idle pool size,
ejection/re-admission counts.  ``GET /v1/balancer/metrics`` renders the
same per-backend counters as Prometheus text; they are read at scrape
time, so they cost nothing per request.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Optional
from urllib.parse import urlsplit

from repro.obs import logging as obslog
from repro.obs.metrics import MetricsRegistry
from repro.service import http1

__all__ = ["Backend", "Balancer"]

#: Methods safe to replay on another backend after a mid-request
#: connection failure (RFC 9110 §9.2.2).
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})

#: Idle keep-alive upstream connections kept per backend.  A burst wider
#: than this closes its surplus connections as they come back.
MAX_IDLE_PER_BACKEND = 16

#: How a pooled connection the backend closed while idle fails before
#: any response byte.
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError)

#: One recv reads up to this much.
_RECV_CHUNK = 65536

#: After answering with a close, the proxy reads (and drops) what the
#: client still sends for at most this long, so a request already in
#: flight does not turn the close into a reset.
_LINGER_S = 2.0

#: Headers that describe one connection, not the message (RFC 9110
#: §7.6.1); the proxy never passes them on in either direction.
_HOP_BY_HOP = frozenset({
    "connection", "keep-alive", "proxy-authenticate",
    "proxy-authorization", "te", "trailers", "transfer-encoding",
    "upgrade",
})

#: Request headers the proxy does not forward: hop-by-hop ones, the
#: ``Host`` and ``Content-Length`` it writes itself, and ``Expect`` (the
#: body is already buffered, so a backend's 100-continue is moot).
_DROPPED_REQUEST_HEADERS = _HOP_BY_HOP | {"host", "content-length", "expect"}

#: Backend response headers the proxy drops: hop-by-hop ones, plus the
#: ``Server`` and ``Date`` its own head already carries.
_DROPPED_RESPONSE_HEADERS = _HOP_BY_HOP | {"server", "date"}

#: ``/v1/balancer/metrics`` families: (describe() key, name, type, help).
_METRIC_FAMILIES = (
    ("requests", "repro_balance_requests_total", "counter",
     "Proxied requests routed to the backend."),
    ("errors", "repro_balance_errors_total", "counter",
     "Proxied requests that failed at the connection level."),
    ("ejections", "repro_balance_ejections_total", "counter",
     "Times the backend left the rotation."),
    ("readmissions", "repro_balance_readmissions_total", "counter",
     "Times the backend re-entered the rotation."),
    ("connects", "repro_balance_upstream_connects_total", "counter",
     "Upstream connections opened for proxied requests."),
    ("reuses", "repro_balance_upstream_reuses_total", "counter",
     "Proxied requests sent on a pooled keep-alive connection."),
    ("idle", "repro_balance_idle_connections", "gauge",
     "Idle pooled upstream connections."),
    ("admitted", "repro_balance_admitted", "gauge",
     "1 while the backend is in the rotation."),
)

#: What :meth:`Balancer.handle` returns: status, header lines as wire
#: bytes (``Content-Length`` included), body.
Reply = tuple[int, bytes, bytes]


def _error_reply(status: int, message: str, fields: bytes = b"") -> Reply:
    return (status, *http1.envelope(status, message, fields))


class _ConnectFailed(OSError):
    """Connection failed before a single request byte was transmitted."""


class Backend:
    """One upstream server in the rotation."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http") or parts.hostname is None:
            raise ValueError(f"backend must be a plain http URL (got {url!r})")
        self.host: str = parts.hostname
        self.port: int = parts.port or 80
        self.url = f"http://{self.host}:{self.port}"
        name = f"[{self.host}]" if ":" in self.host else self.host
        #: The ``Host`` line of every request forwarded here.
        self.host_field = f"Host: {name}:{self.port}\r\n".encode("latin-1")
        self.admitted = True
        self.consecutive_failures = 0
        self.probes = 0
        self.requests = 0
        self.errors = 0
        self.ejections = 0
        self.readmissions = 0
        self.connects = 0
        self.reuses = 0
        #: Idle keep-alive connections, most recently used last; guarded
        #: by the owning balancer's lock.
        self.idle: list[http.client.HTTPConnection] = []
        self.last_probe_error: Optional[str] = None

    def describe(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "admitted": self.admitted,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.requests,
            "errors": self.errors,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "connects": self.connects,
            "reuses": self.reuses,
            "idle": len(self.idle),
            "last_probe_error": self.last_probe_error,
        }


class Balancer:
    """Round-robin proxy with readiness-driven ejection.

    ``start()`` boots the health-check thread and the proxy server;
    ``stop()`` drains both.  ``eject_after`` consecutive failed probes
    remove a backend from rotation (the default of 3 rides out a probe
    that lands on a reader in the moment between a store publish and
    its adoption); one passing probe re-admits it.  A proxied request
    that fails at the connection level also ejects its backend
    immediately — faster than waiting out a probe period — and is
    retried on the next admitted backend.
    """

    def __init__(self, backends: list[str] | list[Backend], *,
                 host: str = "127.0.0.1", port: int = 0,
                 check_interval: float = 0.25, eject_after: int = 3,
                 timeout: float = 10.0) -> None:
        if not backends:
            raise ValueError("at least one backend required")
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1 (got {eject_after})")
        self.backends = [b if isinstance(b, Backend) else Backend(b)
                         for b in backends]
        self.host = host
        self._requested_port = port
        self.check_interval = check_interval
        self.eject_after = eject_after
        self.timeout = timeout
        self.port: Optional[int] = None
        self._lock = threading.Lock()
        self._rr = 0
        self._stop = threading.Event()
        self._listen: Optional[socket.socket] = None
        #: Open client sockets, shut down by ``stop()``; guarded by _lock.
        self._clients: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []

    # -- rotation ---------------------------------------------------------
    def _admitted(self) -> list[Backend]:
        with self._lock:
            return [b for b in self.backends if b.admitted]

    def pick(self) -> Optional[Backend]:
        """Next admitted backend (round-robin), or ``None`` if all out."""
        with self._lock:
            admitted = [b for b in self.backends if b.admitted]
            if not admitted:
                return None
            backend = admitted[self._rr % len(admitted)]
            self._rr += 1
            return backend

    def _eject(self, backend: Backend, reason: str) -> None:
        with self._lock:
            if not backend.admitted:
                return
            backend.admitted = False
            backend.ejections += 1
        self._close_idle(backend)
        obslog.log_event("balance.eject", level="warning",
                         backend=backend.url, reason=reason)

    def _readmit(self, backend: Backend) -> None:
        with self._lock:
            if backend.admitted:
                return
            backend.admitted = True
            backend.readmissions += 1
        obslog.log_event("balance.readmit", backend=backend.url)

    # -- health probing ---------------------------------------------------
    def check_once(self) -> None:
        """Probe every backend's ``/v1/ready`` once and adjust rotation."""
        for backend in self.backends:
            backend.probes += 1
            try:
                conn = http.client.HTTPConnection(
                    backend.host, backend.port, timeout=self.timeout)
                try:
                    conn.request("GET", "/v1/ready")
                    status = conn.getresponse().status
                finally:
                    conn.close()
                ok = status == 200
                error = None if ok else f"status {status}"
            except OSError as probe_error:
                ok = False
                error = f"{type(probe_error).__name__}: {probe_error}"
            backend.last_probe_error = error
            if ok:
                backend.consecutive_failures = 0
                self._readmit(backend)
            else:
                backend.consecutive_failures += 1
                if backend.consecutive_failures >= self.eject_after:
                    self._eject(backend, error or "probe failed")

    def _probe_loop(self) -> None:
        while not self._stop.is_set():
            self.check_once()
            self._stop.wait(self.check_interval)

    # -- status -----------------------------------------------------------
    def status(self) -> dict[str, Any]:
        with self._lock:
            backends = [b.describe() for b in self.backends]
        return {
            "service": "repro-serve balance",
            "port": self.port,
            "check_interval": self.check_interval,
            "eject_after": self.eject_after,
            "admitted": sum(1 for b in backends if b["admitted"]),
            "backends": backends,
        }

    def metrics(self) -> bytes:
        """Per-backend counters as Prometheus text, read at scrape time."""
        backends = self.status()["backends"]
        return MetricsRegistry().render(extra=[
            (name, kind, description, [({"backend": b["url"]}, b[key])
                                       for b in backends])
            for key, name, kind, description in _METRIC_FAMILIES])

    # -- upstream connections ---------------------------------------------
    def _connect(self, backend: Backend) -> http.client.HTTPConnection:
        """A fresh connection; :class:`_ConnectFailed` if none is made."""
        conn = http.client.HTTPConnection(backend.host, backend.port,
                                          timeout=self.timeout)
        try:
            conn.connect()
        except OSError as error:
            conn.close()
            raise _ConnectFailed(str(error)) from error
        with self._lock:
            backend.connects += 1
        return conn

    def _borrow(self, backend: Backend
                ) -> Optional[http.client.HTTPConnection]:
        with self._lock:
            if not backend.idle:
                return None
            backend.reuses += 1
            return backend.idle.pop()

    def _release(self, backend: Backend,
                 conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if (backend.admitted and not self._stop.is_set()
                    and len(backend.idle) < MAX_IDLE_PER_BACKEND):
                backend.idle.append(conn)
                return
        conn.close()

    def _close_idle(self, backend: Backend) -> None:
        with self._lock:
            idle, backend.idle = backend.idle, []
        for conn in idle:
            conn.close()

    # -- proxying ---------------------------------------------------------
    def _exchange(self, backend: Backend, conn: http.client.HTTPConnection,
                  request: bytes, head_only: bool, *, pooled: bool,
                  reused: bool) -> Optional[Reply]:
        """Send one request on ``conn`` and read the whole reply.

        ``conn`` goes back to the idle stack when ``pooled`` and the
        backend keeps it open, and is closed otherwise.  Returns ``None``
        when ``reused`` and the connection turns out closed before any
        response byte arrived; any other :class:`OSError` means the
        request was at least partially on the wire when the backend died.
        """
        sock = conn.sock
        try:
            try:
                sock.sendall(request)
                data = sock.recv(_RECV_CHUNK)
            except _STALE_ERRORS:
                data = b""
            if not data:
                if reused:
                    conn.close()
                    return None
                raise ConnectionResetError(
                    "backend closed the connection without answering")
            status, fields, body, keep = _read_reply(sock, data, head_only)
        except BaseException:
            conn.close()
            raise
        if pooled and keep:
            self._release(backend, conn)
        else:
            conn.close()
        return status, fields, body

    def _forward(self, backend: Backend, method: str, request: bytes
                 ) -> Reply:
        """One proxied exchange.

        GET/HEAD go over a pooled connection when one is idle, and once
        more over a fresh one if the pooled one had gone stale.  Raises
        :class:`_ConnectFailed` when a fresh TCP connection could not be
        established at all (nothing was transmitted, so the caller may
        fail the request over to another backend regardless of method).
        """
        head_only = method == "HEAD"
        pooled = method in _IDEMPOTENT_METHODS
        if pooled:
            conn = self._borrow(backend)
            if conn is not None:
                reply = self._exchange(backend, conn, request, head_only,
                                       pooled=True, reused=True)
                if reply is not None:
                    return reply
        return self._exchange(backend, self._connect(backend), request,
                              head_only, pooled=pooled, reused=False)

    def handle(self, method: str, path: str, headers: dict[str, str],
               body: bytes) -> Reply:
        """Route one request; retry semantics depend on idempotency.

        Returns ``(status, header lines, body)``; the header lines are
        wire bytes ending in ``Content-Length``, without ``Server`` and
        ``Date``.  Only a POST's ``body`` is forwarded.
        """
        fields = [f"{name}: {value}\r\n" for name, value in headers.items()
                  if name.lower() not in _DROPPED_REQUEST_HEADERS]
        if method == "POST":
            fields.append(f"Content-Length: {len(body)}\r\n")
        else:
            body = b""
        line = f"{method} {path} HTTP/1.1\r\n".encode("latin-1")
        rest = ("".join(fields) + "\r\n").encode("latin-1") + body
        attempts = max(1, len(self.backends))
        for _ in range(attempts):
            backend = self.pick()
            if backend is None:
                break
            backend.requests += 1
            try:
                return self._forward(backend, method,
                                     line + backend.host_field + rest)
            except _ConnectFailed:
                # Nothing reached the backend: safe to try the next one
                # whatever the method.
                backend.errors += 1
                self._eject(backend, "connection failure")
            except OSError:
                backend.errors += 1
                self._eject(backend, "connection failure mid-request")
                if method in _IDEMPOTENT_METHODS:
                    continue
                # The request (an ingest, say) may already have been
                # applied by the dead backend; replaying it elsewhere
                # could double-apply.  Surface the ambiguity instead.
                obslog.log_event("balance.abort_nonidempotent",
                                 level="warning", backend=backend.url,
                                 method=method, path=path)
                return _error_reply(
                    502, "backend connection lost after the request was "
                         "sent; not retried because the method is not "
                         "idempotent — the request may have been applied")
        return _error_reply(503, "no admitted backend available",
                            b"Retry-After: 1\r\n")

    def _route(self, head: http1.RequestHead, body: bytes) -> Reply:
        """The proxy's own endpoints, else :meth:`handle`."""
        if head.target == "/v1/balancer":
            body = (json.dumps(self.status(), indent=2) + "\n").encode()
            return 200, http1.json_fields(body), body
        if head.target == "/v1/balancer/metrics":
            text = self.metrics()
            return 200, (b"Content-Type: text/plain; version=0.0.4; "
                         b"charset=utf-8\r\nContent-Length: %d\r\n"
                         % len(text)), text
        try:
            return self.handle(head.method, head.target, head.headers, body)
        except Exception as error:  # noqa: BLE001 — keep serving
            obslog.log_event("balance.proxy_failure", level="error",
                             method=head.method, path=head.target,
                             error=repr(error))
            return _error_reply(502, "proxy failure")

    # -- client connections -------------------------------------------------
    def _serve_client(self, sock: socket.socket) -> None:
        """Answer one client connection's requests in order, then close."""
        buf = bytearray()
        scan = 0
        discard = 0  # declared non-POST body bytes still to drop
        eof = False
        try:
            while True:
                if discard:
                    take = min(discard, len(buf))
                    del buf[:take]
                    discard -= take
                head = None
                if not discard:
                    try:
                        head, scan = http1.parse_request_head(buf, eof, scan)
                        if head is not None:
                            length, close = http1.request_body(
                                head.method, head.headers)
                    except http1.HeadError as error:
                        sock.sendall(http1.error_reply(error))
                        return
                if head is None:
                    if eof:
                        return
                    data = sock.recv(_RECV_CHUNK)
                    if data:
                        buf += data
                    else:
                        eof = True
                    continue
                body = b""
                if head.method == "POST":
                    if head.expect_continue and len(buf) < length:
                        sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
                    while len(buf) < length and not eof:
                        data = sock.recv(min(length - len(buf), 1 << 20))
                        if data:
                            buf += data
                        else:
                            eof = True
                    if len(buf) < length:
                        sock.sendall(http1.error_reply(http1.HeadError(
                            400, "request body shorter than Content-Length")))
                        return
                    body = bytes(buf[:length])
                    del buf[:length]
                else:
                    discard = length
                status, fields, payload = self._route(head, body)
                if head.simple:
                    sock.sendall(payload)
                    return
                close = close or head.close
                wire = http1.response_head(status, fields, close)
                sock.sendall(wire if head.method == "HEAD"
                             else wire + payload)
                if close:
                    return
        except OSError:
            pass  # client went away (or stop() shut the socket down)
        finally:
            with self._lock:
                self._clients.discard(sock)
            if not eof:
                _linger(sock)
            sock.close()

    def _accept_loop(self, listen: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                sock, _addr = listen.accept()
            except OSError:
                if self._stop.is_set():
                    return
                # Out of descriptors, say: back off instead of spinning.
                self._stop.wait(0.05)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._stop.is_set():
                    sock.close()
                    return
                self._clients.add(sock)
            threading.Thread(target=self._serve_client, args=(sock,),
                             name="balance-client", daemon=True).start()

    # -- server lifecycle -------------------------------------------------
    def start(self) -> "Balancer":
        listen = socket.create_server((self.host, self._requested_port),
                                      backlog=128)
        self._listen = listen
        self.port = listen.getsockname()[1]
        self.check_once()  # seed rotation state before the first request
        for name, target, args in (
                ("balance-probe", self._probe_loop, ()),
                ("balance-serve", self._accept_loop, (listen,))):
            thread = threading.Thread(target=target, args=args, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        obslog.log_event("balance.start", port=self.port,
                         backends=[b.url for b in self.backends])
        return self

    def __enter__(self) -> "Balancer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        if self._listen is not None:
            try:
                self._listen.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5)
        if self._listen is not None:
            self._listen.close()
        with self._lock:
            for sock in self._clients:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for backend in self.backends:
            self._close_idle(backend)
        obslog.log_event("balance.stop", port=self.port)


def _read_reply(sock: socket.socket, data: bytes, head_only: bool
                ) -> tuple[int, bytes, bytes, bool]:
    """Frame one upstream reply that begins with ``data``.

    Returns ``(status, relayed header lines, body, reusable)``.
    Anything that cannot be framed raises :class:`OSError`, like a
    connection lost mid-reply.
    """
    end = data.find(b"\r\n\r\n")
    while end < 0:
        if len(data) > http1.MAX_HEAD_BYTES:
            raise OSError("backend reply head too large")
        chunk = sock.recv(_RECV_CHUNK)
        if not chunk:
            raise ConnectionResetError("backend closed mid-reply")
        data += chunk
        end = data.find(b"\r\n\r\n")
    line_end = data.find(b"\r\n")
    status_line = data[:line_end].split(None, 2)
    try:
        status = int(status_line[1])
    except (IndexError, ValueError):
        raise OSError(f"malformed backend status line "
                      f"{data[:line_end][:80]!r}") from None
    keep = status_line[0] == b"HTTP/1.1"
    length = None
    kept = []
    for name, value in http1.split_fields(data[line_end + 2:end]):
        lower = name.lower()
        if lower == "content-length":
            try:
                length = int(value)
            except ValueError:
                raise OSError(f"backend sent Content-Length "
                              f"{value!r}") from None
            kept.append(f"{name}: {value}\r\n")
        elif lower == "connection":
            keep = keep and "close" not in value.lower()
        elif lower == "transfer-encoding":
            raise OSError("backend sent a Transfer-Encoding reply; "
                          "the relay frames replies by Content-Length")
        elif lower not in _DROPPED_RESPONSE_HEADERS:
            kept.append(f"{name}: {value}\r\n")
    start = end + 4
    if head_only or status < 200 or status in (204, 304):
        body = b""
        keep = keep and len(data) == start
    elif length is not None:
        body = data[start:start + length]
        if len(body) < length:
            body = bytearray(body)
            while len(body) < length:
                chunk = sock.recv(min(length - len(body), 1 << 20))
                if not chunk:
                    raise ConnectionResetError("backend closed mid-reply")
                body += chunk
            body = bytes(body)
        keep = keep and len(data) <= start + length
    else:
        # No length: the reply ends at EOF, and the connection with it.
        buf = bytearray(data[start:])
        while True:
            chunk = sock.recv(_RECV_CHUNK)
            if not chunk:
                break
            buf += chunk
        body = bytes(buf)
        kept.append(f"Content-Length: {len(body)}\r\n")
        keep = False
    return status, "".join(kept).encode("latin-1"), body, keep


def _linger(sock: socket.socket) -> None:
    """Send FIN, then drop what the client still sends, briefly.

    Closing with unread request bytes in the kernel buffer would reset
    the connection, and the client could lose the answer it has not
    read yet.
    """
    try:
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(_LINGER_S)
        deadline = time.monotonic() + _LINGER_S
        while sock.recv(_RECV_CHUNK) and time.monotonic() < deadline:
            pass
    except OSError:
        pass
