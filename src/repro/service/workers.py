"""Pre-fork worker pool: N read processes, one writer, one store.

A single :class:`~repro.service.eventloop.EventLoopServer` runs every
request — routing, canonical-JSON encoding, SHA-256 ETags — on one
interpreter, so a busy read workload saturates one core.  This module
scales the same service across *processes* the classic pre-fork way:

* The **parent** binds the public listening socket once, then forks
  ``workers`` read-only children.  Each child builds an
  :class:`~repro.service.eventloop.EventLoopServer` around the
  inherited file descriptor (``listen_socket=...``); the kernel
  load-balances incoming connections across the children's
  concurrent ``accept(2)`` calls.
* One designated **writer** process owns the read-write
  :class:`~repro.service.store.ArchiveStore` and with it ``POST
  /v1/ingest``.  It listens on a private port; read workers answer
  ingest POSTs by *forwarding* them to the writer
  (:meth:`QueryService.set_ingest_proxy`) and re-reading the store on
  success, so clients keep one public endpoint and read-your-writes.
* Read workers open the store **read-only, mmap'd** — the table and
  shard pages are shared through the OS page cache, so N workers cost
  roughly one copy of the data in memory — and discover the writer's
  published versions by tailing the on-disk manifest with a
  :class:`~repro.service.replica.StoreTailer` thread: the same
  incremental ``extend_base_id_sets`` + ``DomainIndex.add`` adoption
  path a network follower uses, with the poll interval as the measured
  staleness bound.
* Rendered payloads are shared through a
  :class:`~repro.service.shared_cache.SharedPayloadCache` segment: a
  body any worker renders for ``(store.version, target)`` serves
  byte-identically (same ETag) from every other worker without
  re-rendering.

The parent supervises: a crashed or killed child is respawned into the
same slot (the listen sockets live in the parent, so the replacement
adopts the very same ports), ``SIGTERM`` drains every child
gracefully, and a small **control endpoint** aggregates the per-worker
``/v1/metrics`` scrapes into one exposition
(:func:`repro.obs.metrics.aggregate_expositions`) that
``parse_exposition`` reads like any single-process render.

POSIX-only (``os.fork``); the single-process ``repro-serve serve``
path remains the portable default.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro import faults
from repro.obs import logging as obslog
from repro.obs.metrics import aggregate_expositions
from repro.service.api import QueryService, Response
from repro.service.eventloop import EventLoopServer
from repro.service.replica import StoreTailer
from repro.service.shared_cache import DEFAULT_MAX_BYTES, SharedPayloadCache
from repro.service.store import ArchiveStore

__all__ = [
    "CRASH_EXIT_CODE",
    "WorkerPool",
    "WorkerSlot",
]

#: Exit status a worker dies with when an injected crash fires while it
#: serves a request.  :class:`~repro.faults.InjectedCrash` means *the
#: process died here*; the worker's server exits with this status (its
#: torn store state stays on disk) and the supervisor respawns it
#: through the real recovery path.  Distinct from 0 (drain) and 1
#: (setup failure) so the supervisor's restart log — and the chaos
#: tests — can tell a simulated process death from everything else.
CRASH_EXIT_CODE = 70

#: How long :meth:`WorkerPool.stop` waits for SIGTERM'd children before
#: escalating to SIGKILL.
DEFAULT_GRACE_SECONDS = 5.0


class WorkerSlot:
    """One supervised child position: role, private socket, current pid."""

    def __init__(self, role: str, index: int, sock: socket.socket) -> None:
        self.role = role          # "writer" | "reader"
        self.index = index
        self.sock = sock          # private per-slot listen socket
        self.port: int = sock.getsockname()[1]
        self.pid: Optional[int] = None
        self.restarts = 0
        self.last_exit: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.role}-{self.index}"

    def describe(self) -> dict[str, Any]:
        return {"role": self.role, "index": self.index, "name": self.name,
                "pid": self.pid, "port": self.port,
                "restarts": self.restarts, "last_exit": self.last_exit}


def _http_get(port: int, path: str, host: str = "127.0.0.1",
              timeout: float = 2.0) -> tuple[int, bytes]:
    """One GET against a worker's private port; raises ``OSError`` kin."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class WorkerPool:
    """Parent-side controller for the pre-fork serving pool.

    ``start()`` binds every socket, forks the writer and ``workers``
    readers, begins supervision and the control endpoint, and blocks
    until every child answers its readiness probe.  ``stop()`` drains.
    Usable as a context manager::

        with WorkerPool(store_dir, workers=4) as pool:
            url = f"http://127.0.0.1:{pool.port}/v1/meta"

    ``worker_init`` (if given) runs *inside each child* right after the
    fork, with ``(role, index)`` — the chaos tests use it to install a
    seeded :class:`~repro.faults.FaultPlan` in exactly one process.
    """

    def __init__(self, store_dir: str | Path, *, workers: int = 4,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_path: Optional[str | Path] = None,
                 cache_max_bytes: int = DEFAULT_MAX_BYTES,
                 poll_interval: float = 0.05,
                 max_staleness: int = 0,
                 control: bool = True,
                 ready_file: Optional[str | Path] = None,
                 worker_init: Optional[Callable[[str, int], None]] = None,
                 ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise RuntimeError("WorkerPool requires os.fork (POSIX)")
        self.store_dir = Path(store_dir)
        self.workers = workers
        self.host = host
        self._requested_port = port
        self.cache_path = (Path(cache_path) if cache_path is not None
                           else self.store_dir / "payload_cache.bin")
        self.cache_max_bytes = cache_max_bytes
        self.poll_interval = poll_interval
        self.max_staleness = max_staleness
        self._control_enabled = control
        self.ready_file = Path(ready_file) if ready_file is not None else None
        self.worker_init = worker_init

        self.port: Optional[int] = None
        self.control_port: Optional[int] = None
        self.writer_port: Optional[int] = None
        self._listen_sock: Optional[socket.socket] = None
        self._slots: list[WorkerSlot] = []
        self._by_pid: dict[int, WorkerSlot] = {}
        self._slot_lock = threading.Lock()
        self._stopping = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._control_sock: Optional[socket.socket] = None
        self._control_server: Optional[EventLoopServer] = None
        self._control_thread: Optional[threading.Thread] = None
        self._started = False

    # -- lifecycle --------------------------------------------------------
    def start(self, ready_timeout: float = 30.0) -> "WorkerPool":
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        # The writer child opens read-write; readers open read-only and
        # need a manifest to exist.  Materialise an empty store up front
        # so a pool over a fresh directory boots (first ingest fills it).
        with ArchiveStore(self.store_dir):
            pass
        self.cache_path.touch(exist_ok=True)

        self._listen_sock = socket.create_server(
            (self.host, self._requested_port), backlog=128)
        self.port = self._listen_sock.getsockname()[1]

        writer_slot = WorkerSlot(
            "writer", 0, socket.create_server((self.host, 0), backlog=64))
        self.writer_port = writer_slot.port
        self._slots = [writer_slot] + [
            WorkerSlot("reader", i,
                       socket.create_server((self.host, 0), backlog=64))
            for i in range(self.workers)]
        # Fork before any parent thread exists: the children must not
        # inherit a lock some sibling thread holds mid-acquire.
        for slot in self._slots:
            self._spawn(slot)

        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True)
        self._supervisor.start()
        if self._control_enabled:
            self._start_control()
        try:
            self.wait_ready(ready_timeout)
        except Exception:
            self.stop()
            raise
        if self.ready_file is not None:
            self.ready_file.write_text(
                json.dumps(self.describe(), indent=2) + "\n",
                encoding="utf-8")
        obslog.log_event("pool.start", store=str(self.store_dir),
                         port=self.port, writer_port=self.writer_port,
                         control_port=self.control_port,
                         workers=self.workers)
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self, grace: float = DEFAULT_GRACE_SECONDS) -> None:
        """Drain: SIGTERM every child, SIGKILL stragglers, close sockets."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        with self._slot_lock:
            pids = [slot.pid for slot in self._slots if slot.pid is not None]
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        remaining = set(pids)
        while remaining and time.monotonic() < deadline:
            for pid in list(remaining):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid  # supervisor thread reaped it first
                if done:
                    remaining.discard(pid)
            if remaining:
                time.sleep(0.02)
        for pid in remaining:  # pragma: no cover - drain timeout path
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        if self._supervisor is not None:
            self._supervisor.join(timeout=grace)
        if self._control_server is not None:
            self._control_server.shutdown()
            if self._control_thread is not None:
                self._control_thread.join(timeout=grace)
            self._control_server.server_close()
            self._control_sock.close()
        for slot in self._slots:
            slot.sock.close()
        if self._listen_sock is not None:
            self._listen_sock.close()
        if self.ready_file is not None:
            try:
                self.ready_file.unlink()
            except OSError:
                pass
        obslog.log_event("pool.stop", port=self.port)

    # -- forking ----------------------------------------------------------
    def _spawn(self, slot: WorkerSlot) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: never return into the parent's stack.  Any failure
            # below exits the process; the supervisor respawns.
            try:
                self._child_main(slot)
                os._exit(0)
            except BaseException as error:  # noqa: BLE001 — child boundary
                if faults.is_crash(error):
                    os._exit(CRASH_EXIT_CODE)
                try:
                    sys.stderr.write(
                        f"worker {slot.name} died in setup: "
                        f"{type(error).__name__}: {error}\n")
                except OSError:
                    pass
                os._exit(1)
        slot.pid = pid
        with self._slot_lock:
            self._by_pid[pid] = slot

    def _supervise(self) -> None:
        """Reap dead children; respawn them into their slots.

        Waits on this pool's pids specifically — never ``waitpid(-1)``,
        which would steal child exits belonging to the embedding
        process (another pool, a test's subprocesses).
        """
        while not self._stopping.is_set():
            with self._slot_lock:
                pids = list(self._by_pid)
            reaped: list[tuple[int, Optional[int]]] = []
            for pid in pids:
                try:
                    done, status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done, status = pid, None  # reaped by stop()
                if done:
                    reaped.append((pid, status))
            if not reaped:
                self._stopping.wait(0.05)
                continue
            for pid, status in reaped:
                with self._slot_lock:
                    slot = self._by_pid.pop(pid, None)
                if slot is None or self._stopping.is_set():
                    continue
                code = (None if status is None
                        else os.waitstatus_to_exitcode(status))
                slot.last_exit = code
                slot.restarts += 1
                slot.pid = None
                obslog.log_event("pool.worker_exit", level="warning",
                                 worker=slot.name, exit=code,
                                 restarts=slot.restarts)
                self._spawn(slot)

    # -- child side -------------------------------------------------------
    def _child_main(self, slot: WorkerSlot) -> None:
        """Everything a worker process runs (called right after fork)."""
        # Hygiene: drop inherited fds this worker does not serve, so a
        # killed sibling's port is not silently held open by survivors
        # (the parent keeps the canonical copy for respawn).
        for other in self._slots:
            if other is not slot:
                other.sock.close()
        if self._control_sock is not None:  # respawn after control start
            self._control_sock.close()
        if slot.role == "writer" and self._listen_sock is not None:
            self._listen_sock.close()

        if self.worker_init is not None:
            self.worker_init(slot.role, slot.index)

        if slot.role == "writer":
            store = ArchiveStore(self.store_dir)
            service = QueryService(store, role="leader")
        else:
            store = ArchiveStore(self.store_dir, create=False,
                                 read_only=True)
            service = QueryService(store, role="reader")
            service.set_ingest_proxy(
                f"http://{self.host}:{self.writer_port}")
        service.attach_shared_cache(
            SharedPayloadCache(self.cache_path, self.cache_max_bytes))

        stop = threading.Event()
        threads: list[threading.Thread] = []
        if slot.role == "reader":
            tailer = StoreTailer(service, max_staleness=self.max_staleness)
            service.attach_replica(tailer)
            thread = threading.Thread(
                target=tailer.run, args=(stop, self.poll_interval),
                name="store-tailer", daemon=True)
            thread.start()
            threads.append(thread)

        sockets = [slot.sock]
        if slot.role == "reader":
            sockets.append(self._listen_sock)
        servers = [EventLoopServer(service, listen_socket=sock,
                                   crash_exit_code=CRASH_EXIT_CODE)
                   for sock in sockets]

        def on_term(signum: int, frame: object) -> None:
            # Runs on this thread, whose loop is servers[0]: shutdown()
            # from a loop's own thread only flags it, and the loop ends
            # once the handler returns.  The process then leaves through
            # one path, below and in _spawn.
            stop.set()
            for server in servers:
                server.shutdown()

        signal.signal(signal.SIGTERM, on_term)
        obslog.log_event("pool.worker_start", worker=slot.name,
                         pid=os.getpid(), port=slot.port,
                         role=service.role)
        for server in servers[1:]:
            thread = threading.Thread(target=server.serve_forever,
                                      name="public-accept", daemon=True)
            thread.start()
            threads.append(thread)
        servers[0].serve_forever()
        store.close()

    # -- parent-side observability ---------------------------------------
    def describe(self) -> dict[str, Any]:
        with self._slot_lock:
            workers = [slot.describe() for slot in self._slots]
        return {
            "host": self.host,
            "port": self.port,
            "writer_port": self.writer_port,
            "control_port": self.control_port,
            "cache_path": str(self.cache_path),
            "poll_interval": self.poll_interval,
            "restarts": sum(w["restarts"] for w in workers),
            "workers": workers,
        }

    def worker_pids(self, role: Optional[str] = None) -> list[int]:
        with self._slot_lock:
            return [slot.pid for slot in self._slots
                    if slot.pid is not None
                    and (role is None or slot.role == role)]

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker answers ``/v1/ready`` with 200."""
        deadline = time.monotonic() + timeout
        pending = list(self._slots)
        while pending:
            still = []
            for slot in pending:
                try:
                    status, _ = _http_get(slot.port, "/v1/ready",
                                          self.host, timeout=1.0)
                except OSError:
                    status = None
                if status != 200:
                    still.append(slot)
            pending = still
            if not pending:
                return
            if time.monotonic() >= deadline:
                names = ", ".join(slot.name for slot in pending)
                raise TimeoutError(
                    f"workers not ready after {timeout:.1f}s: {names}")
            time.sleep(0.05)

    def metrics_text(self, timeout: float = 2.0) -> str:
        """Aggregated exposition across every scrapeable worker.

        Workers mid-respawn are skipped — the aggregate is what the
        pool can prove *right now* — and the parent adds its own
        supervision families on top.
        """
        texts: list[str] = []
        with self._slot_lock:
            slots = list(self._slots)
        scraped = 0
        for slot in slots:
            if slot.pid is None:
                continue
            try:
                status, body = _http_get(slot.port, "/v1/metrics",
                                         self.host, timeout=timeout)
            except OSError:
                continue
            if status == 200:
                texts.append(body.decode("utf-8"))
                scraped += 1
        restarts = sum(slot.restarts for slot in slots)
        texts.append(
            "# HELP repro_pool_workers_scraped Workers answering the last"
            " aggregated scrape.\n"
            "# TYPE repro_pool_workers_scraped gauge\n"
            f"repro_pool_workers_scraped {scraped}\n"
            "# HELP repro_pool_worker_restarts_total Workers respawned by"
            " the pool supervisor.\n"
            "# TYPE repro_pool_worker_restarts_total counter\n"
            f"repro_pool_worker_restarts_total {restarts}\n")
        return aggregate_expositions(texts)

    # -- control endpoint -------------------------------------------------
    def _start_control(self) -> None:
        self._control_sock = socket.create_server((self.host, 0),
                                                  backlog=64)
        self._control_server = EventLoopServer(
            _Control(self), listen_socket=self._control_sock)
        self.control_port = self._control_sock.getsockname()[1]
        self._control_thread = threading.Thread(
            target=self._control_server.serve_forever, name="pool-control",
            daemon=True)
        self._control_thread.start()


class _Control:
    """The control port's routes: the aggregated metrics and the pool's
    description, answered like the API's ``QueryService.handle_request``
    so an :class:`EventLoopServer` serves them."""

    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool

    def handle_request(self, target: str,
                       headers: Optional[Mapping[str, str]] = None,
                       method: str = "GET", body: bytes = b"") -> Response:
        if method == "GET" and target == "/v1/metrics":
            return Response(200, self.pool.metrics_text().encode("utf-8"), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"})
        if method == "GET" and target in ("/v1/pool", "/v1/health"):
            status, payload = 200, self.pool.describe()
        else:
            status, payload = 404, {"error": {
                "status": 404, "message": "unknown control path",
                "paths": ["/v1/metrics", "/v1/pool"]}}
        return Response(status, (json.dumps(payload, indent=2) + "\n"
                                 ).encode("utf-8"),
                        {"Content-Type": "application/json"})
