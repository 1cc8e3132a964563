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
connections, so a steady read load pays no TCP connect, accept or close
per request.  A pooled connection the backend closed while it sat idle
(the 30 s idle sweep, a restarted worker) fails before any response
byte arrives; the read is then resent once on a fresh connection to the
same backend, which is neither a backend error nor an ejection.  POST
and every other non-idempotent method always open a fresh connection
and close it afterwards, so a stale socket can never blur the
"never replay an ingest" rule above.

``GET /v1/balancer`` on the proxy itself reports the rotation: per
backend admitted/ejected state, probe counters, proxied request
tallies, upstream connects and pooled reuses, idle pool size,
ejection/re-admission counts.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import urlsplit

from repro.obs import logging as obslog
from repro.service.api import MAX_BODY_BYTES, json_bytes

__all__ = ["Backend", "Balancer"]

#: Methods safe to replay on another backend after a mid-request
#: connection failure (RFC 9110 §9.2.2).
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})

#: Idle keep-alive upstream connections kept per backend.  A burst wider
#: than this closes its surplus connections as they come back.
MAX_IDLE_PER_BACKEND = 16

#: How a pooled connection the backend closed while idle fails before
#: any response byte (``RemoteDisconnected`` is a ConnectionResetError).
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError)


def _error_body(status: int, message: str) -> bytes:
    """The API layer's canonical JSON error envelope."""
    return json_bytes({"error": {"status": status, "message": message}})


class _ConnectFailed(OSError):
    """Connection failed before a single request byte was transmitted."""

#: Request headers the proxy must not forward (hop-by-hop; the proxy
#: manages its own connections and re-frames bodies by length).
_HOP_BY_HOP = frozenset({
    "connection", "keep-alive", "proxy-authenticate",
    "proxy-authorization", "te", "trailers", "transfer-encoding",
    "upgrade", "host", "content-length",
})

#: Backend response headers the proxy drops: hop-by-hop ones, plus the
#: ``Server`` and ``Date`` its own status line already sends.
_DROPPED_RESPONSE_HEADERS = _HOP_BY_HOP | {"server", "date"}


class Backend:
    """One upstream server in the rotation."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http") or parts.hostname is None:
            raise ValueError(f"backend must be a plain http URL (got {url!r})")
        self.host: str = parts.hostname
        self.port: int = parts.port or 80
        self.url = f"http://{self.host}:{self.port}"
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
    remove a backend from rotation; one passing probe re-admits it.
    A proxied request that fails at the connection level also ejects
    its backend immediately — faster than waiting out a probe period —
    and is retried on the next admitted backend.
    """

    def __init__(self, backends: list[str] | list[Backend], *,
                 host: str = "127.0.0.1", port: int = 0,
                 check_interval: float = 0.25, eject_after: int = 1,
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
        self._server: Optional[ThreadingHTTPServer] = None
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
                  method: str, path: str, headers: dict[str, str],
                  body: bytes, *, pooled: bool, reused: bool
                  ) -> Optional[tuple[int, list[tuple[str, str]], bytes]]:
        """Send one request on ``conn`` and read the whole response.

        ``conn`` goes back to the idle stack when ``pooled`` and the
        backend keeps it open, and is closed otherwise.  Returns ``None``
        when ``reused`` and the connection turns out closed before any
        response byte arrived; any other :class:`OSError` means the
        request was at least partially on the wire when the backend died.
        """
        try:
            try:
                conn.request(method, path, body=body or None, headers=headers)
                response = conn.getresponse()
            except _STALE_ERRORS:
                if not reused:
                    raise
                conn.close()
                return None
            payload = response.read()
        except BaseException:
            conn.close()
            raise
        kept = [(k, v) for k, v in response.getheaders()
                if k.lower() not in _DROPPED_RESPONSE_HEADERS]
        if pooled and not response.will_close:
            self._release(backend, conn)
        else:
            conn.close()
        return response.status, kept, payload

    def _forward(self, backend: Backend, method: str, path: str,
                 headers: dict[str, str], body: bytes
                 ) -> tuple[int, list[tuple[str, str]], bytes]:
        """One proxied exchange.

        GET/HEAD go over a pooled connection when one is idle, and once
        more over a fresh one if the pooled one had gone stale.  Raises
        :class:`_ConnectFailed` when a fresh TCP connection could not be
        established at all (nothing was transmitted, so the caller may
        fail the request over to another backend regardless of method).
        """
        out = {k: v for k, v in headers.items()
               if k.lower() not in _HOP_BY_HOP}
        pooled = method.upper() in _IDEMPOTENT_METHODS
        if pooled:
            conn = self._borrow(backend)
            if conn is not None:
                result = self._exchange(backend, conn, method, path, out,
                                        body, pooled=True, reused=True)
                if result is not None:
                    return result
        return self._exchange(backend, self._connect(backend), method, path,
                              out, body, pooled=pooled, reused=False)

    def handle(self, method: str, path: str, headers: dict[str, str],
               body: bytes) -> tuple[int, list[tuple[str, str]], bytes]:
        """Route one request; retry semantics depend on idempotency."""
        attempts = max(1, len(self.backends))
        for _ in range(attempts):
            backend = self.pick()
            if backend is None:
                break
            backend.requests += 1
            try:
                return self._forward(backend, method, path, headers, body)
            except _ConnectFailed:
                # Nothing reached the backend: safe to try the next one
                # whatever the method.
                backend.errors += 1
                self._eject(backend, "connection failure")
            except OSError:
                backend.errors += 1
                self._eject(backend, "connection failure mid-request")
                if method.upper() in _IDEMPOTENT_METHODS:
                    continue
                # The request (an ingest, say) may already have been
                # applied by the dead backend; replaying it elsewhere
                # could double-apply.  Surface the ambiguity instead.
                obslog.log_event("balance.abort_nonidempotent",
                                 level="warning", backend=backend.url,
                                 method=method, path=path)
                return 502, [("Content-Type", "application/json")], \
                    _error_body(
                        502,
                        "backend connection lost after the request was "
                        "sent; not retried because the method is not "
                        "idempotent — the request may have been applied")
        return 503, [("Content-Type", "application/json"),
                     ("Retry-After", "1")], \
            _error_body(503, "no admitted backend available")

    # -- server lifecycle -------------------------------------------------
    def start(self) -> "Balancer":
        balancer = self

        class _ProxyHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def _respond(self, status: int,
                         headers: list[tuple[str, str]],
                         body: bytes) -> None:
                self.send_response(status)
                for key, value in headers:
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(body)))
                # Head and body in one write (wfile is unbuffered).
                self._headers_buffer.append(b"\r\n")
                if self.command != "HEAD":
                    self._headers_buffer.append(body)
                self.flush_headers()

            def _proxy(self) -> None:
                if self.path == "/v1/balancer":
                    body = (json.dumps(balancer.status(), indent=2) + "\n"
                            ).encode("utf-8")
                    self._respond(200, [("Content-Type",
                                         "application/json")], body)
                    return
                declared = self.headers.get("Content-Length")
                try:
                    length = int(declared) if declared is not None else 0
                except ValueError:
                    length = -1
                if length < 0:
                    # Framing is unknowable from here on: answer the API
                    # layer's envelope and drop the connection.
                    self.close_connection = True
                    self._respond(
                        400, [("Content-Type", "application/json"),
                              ("Connection", "close")],
                        _error_body(
                            400, f"invalid Content-Length {declared!r}"))
                    return
                if length > MAX_BODY_BYTES:
                    self.close_connection = True
                    self._respond(
                        413, [("Content-Type", "application/json"),
                              ("Connection", "close")],
                        _error_body(
                            413, f"request body exceeds "
                                 f"{MAX_BODY_BYTES} bytes"))
                    return
                request_body = self.rfile.read(length) if length else b""
                status, headers, body = balancer.handle(
                    self.command, self.path, dict(self.headers.items()),
                    request_body)
                self._respond(status, headers, body)

            def _guarded(self) -> None:
                try:
                    self._proxy()
                except (BrokenPipeError, ConnectionResetError,
                        TimeoutError):
                    self.close_connection = True
                except Exception:  # noqa: BLE001 — proxy must not die
                    try:
                        self._respond(502, [("Content-Type",
                                             "application/json")],
                                      b'{"error": {"status": 502, '
                                      b'"message": "proxy failure"}}')
                    except OSError:
                        self.close_connection = True

            do_GET = do_HEAD = do_POST = do_PUT = do_DELETE = _guarded  # noqa: N815

            def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
                pass

        server = ThreadingHTTPServer((self.host, self._requested_port),
                                     _ProxyHandler)
        server.daemon_threads = True
        self._server = server
        self.port = server.server_address[1]
        self.check_once()  # seed rotation state before the first request
        for name, target in (("balance-probe", self._probe_loop),
                             ("balance-serve", server.serve_forever)):
            thread = threading.Thread(target=target, name=name, daemon=True)
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
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for thread in self._threads:
            thread.join(timeout=5)
        for backend in self.backends:
            self._close_idle(backend)
        obslog.log_event("balance.stop", port=self.port)
