"""Follower replica: tail a leader's mutation log into a local store.

The :class:`~repro.service.store.ArchiveStore` manifest records every
mutation in one global order (its ``log``; entry *i* produced store
version *i + 1*), and appends are deterministic given that order — the
interner table's first-seen ordering, the shard records and the zlib
payloads all fall out of the entry sequence alone.  A follower therefore
needs no snapshot transfer or file copying: it replays the leader's log
through the *ordinary* append machinery and converges to byte-identical
``interner.tbl`` / shard files, hence byte-identical query payloads at
every shared version (the chaos differential tests assert exactly this).

:class:`Replica` pulls batches from ``GET /v1/replication/log`` (or any
injected ``fetch`` callable — the tests drive a leader's
:meth:`~repro.service.api.QueryService.handle_request` in-process),
retries transient failures under a :class:`~repro.util.retry.RetryPolicy`
with a :class:`~repro.util.retry.CircuitBreaker`, and applies entries
with batched ``sync=False`` appends plus one :meth:`flush` per cycle.

Crash safety comes for free from the store: a replica killed mid-batch
left un-fsynced tails the durable manifest does not name; the next open
truncates them, ``store.version`` falls back to the durable truth, and
the next sync re-fetches from there — re-appending the same entries at
the truncated EOF reproduces the same bytes.  Entries at or below the
local version are skipped, so re-delivered batches are idempotent.

:class:`StoreTailer` is the disk-only variant a pool read worker runs:
the writer process has already appended, so a cycle just re-reads the
manifest (:meth:`~repro.service.api.QueryService.refresh_from_disk`).
Both classes share one ``status()`` / ``ready()`` / ``run()``, and
neither touches a query service's archives or index: the service adopts
new days on its next read, through
:meth:`~repro.service.api.QueryService._refresh`.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import random
import threading
import time
import urllib.request
from typing import Any, Callable, Mapping, Optional
from urllib.parse import urlencode

from repro import faults
from repro.obs import logging as obslog
from repro.obs import metrics, tracing
from repro.providers.base import ListSnapshot
from repro.service.api import json_bytes
from repro.service.store import ArchiveStore, StoreError
from repro.util.retry import (
    CircuitBreaker,
    RetryExhaustedError,
    RetryPolicy,
    call_with_retry,
)

__all__ = ["Replica", "ReplicaError", "StoreTailer", "http_fetcher"]


class ReplicaError(RuntimeError):
    """Replication cannot proceed (divergence, gaps, malformed entries)."""


# Sync cycles are ms-scale (network fetch + batched appends + flush);
# registry instruments are affordable per cycle.
_M_SYNC_CYCLES = metrics.counter(
    "repro_replica_sync_cycles_total", "Completed replica sync cycles.")
_M_SYNC_SECONDS = metrics.histogram(
    "repro_replica_sync_seconds", "Wall-clock seconds per sync cycle.")
_M_APPLIED = metrics.counter(
    "repro_replica_entries_applied_total",
    "Replication log entries applied to the local store.")
_M_SYNC_ERRORS = metrics.counter(
    "repro_replica_sync_errors_total",
    "Sync cycles that failed (recorded in status()).")
_M_LAG = metrics.gauge(
    "repro_replication_lag_versions",
    "leader_version - local_version observed at the end of the last "
    "sync cycle.")


def _log_request(base: str, since: int, limit: int) -> urllib.request.Request:
    """The replication-log fetch, stamped with the active trace id.

    :meth:`Replica.sync_once` activates one trace id per cycle, so every
    fetch of that cycle carries the same ``X-Request-Id`` — a leader's
    access log correlates follower tailing without any other protocol.
    """
    query = urlencode({"since": since, "max": limit})
    trace_id = tracing.current_trace_id() or tracing.new_trace_id()
    return urllib.request.Request(f"{base}/v1/replication/log?{query}",
                                  headers={"X-Request-Id": trace_id})


def http_fetcher(base_url: str,
                 timeout: float = 10.0) -> Callable[[int, int], dict]:
    """A ``fetch(since, limit)`` callable over HTTP (stdlib only).

    Network failures surface as ``OSError``/``urllib`` errors, which the
    replica's retry policy treats as transient.
    """
    base = base_url.rstrip("/")

    def fetch(since: int, limit: int) -> dict:
        try:
            with urllib.request.urlopen(_log_request(base, since, limit),
                                        timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except http.client.HTTPException as error:
            # Truncated/garbled responses (e.g. IncompleteRead when the
            # leader dies mid-send) are transient network failures, not
            # protocol errors — normalise to the retryable shape.
            raise OSError(f"replication fetch failed: {error!r}") from error

    return fetch


class _Tail:
    """What :class:`Replica` and :class:`StoreTailer` share: the status
    ``/v1/health`` renders, readiness, and the polling loop.

    A subclass supplies ``sync_once()`` (one cycle; returns entries or
    versions applied, records failures in ``_last_error``),
    ``_leader()`` (the version to catch up with, ``None`` while
    unknown) and ``_extra_status()`` (its own status fields).
    :meth:`status` is safe from any thread (the health endpoint calls it
    concurrently with a sync cycle).
    """

    def __init__(self, store: ArchiveStore, max_staleness: int) -> None:
        self.store = store
        #: Largest ``leader - local`` version gap :meth:`ready` accepts.
        self.max_staleness = max_staleness
        self._lock = threading.Lock()
        self._last_error: Optional[BaseException] = None
        self._sync_cycles = 0
        self._applied_total = 0

    def status(self) -> dict[str, Any]:
        """Staleness and degraded-mode flags (the health payload body)."""
        with self._lock:
            last_error = self._last_error
            cycles = self._sync_cycles
            applied = self._applied_total
        leader_version = self._leader()
        local = self.store.version
        staleness = (None if leader_version is None
                     else max(0, leader_version - local))
        return {
            "leader_version": leader_version,
            "local_version": local,
            "staleness": staleness,
            "max_staleness": self.max_staleness,
            "last_error": (f"{type(last_error).__name__}: {last_error}"
                           if last_error is not None else None),
            "sync_cycles": cycles,
            "entries_applied": applied,
            **self._extra_status(),
        }

    def staleness(self) -> Optional[int]:
        """Versions behind the leader (``None`` before it is known)."""
        return self.status()["staleness"]

    def ready(self) -> bool:
        """Whether this node should take read traffic."""
        staleness = self.staleness()
        return staleness is not None and staleness <= self.max_staleness

    def run(self, stop: threading.Event, poll_interval: float = 1.0) -> None:
        """Sync every ``poll_interval`` seconds until ``stop`` is set.

        The ``repro-serve serve --follow`` loop and a pool reader's
        refresh thread.  A failed cycle is recorded (health reports it as
        degraded) and retried next tick; an injected crash is a
        ``BaseException`` and propagates — a simulated process death must
        kill the loop, not be absorbed by it.
        """
        while not stop.is_set():
            try:
                self.sync_once()
            except Exception:  # noqa: BLE001 — recorded in status()
                pass
            stop.wait(poll_interval)


class Replica(_Tail):
    """Tail one leader's mutation log into a local follower store.

    ``fetch(since, limit)`` returns the leader's replication payload
    (``{"store_version", "entries", "remaining", ...}``).  One replica
    owns its store's write side.
    """

    def __init__(self, store: ArchiveStore,
                 fetch: Callable[[int, int], Mapping[str, Any]],
                 *,
                 policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 batch: int = 16,
                 max_staleness: int = 0,
                 rng: Optional[random.Random] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        super().__init__(store, max_staleness)
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=5, base_delay=0.02, max_delay=0.5)
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=8, reset_timeout=5.0, clock=clock)
        self.batch = batch
        self._fetch = fetch
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._sleep = sleep
        self._leader_version: Optional[int] = None

    # -- observability ----------------------------------------------------
    def _leader(self) -> Optional[int]:
        """The leader version the last fetch reported."""
        return self._leader_version

    def _extra_status(self) -> dict[str, Any]:
        return {"breaker": self.breaker.state}

    # -- the tail loop ----------------------------------------------------
    def _fetch_batch(self) -> Mapping[str, Any]:
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("replica.fetch")
        return self._fetch(self.store.version, self.batch)

    def _apply(self, entry: Mapping[str, Any]) -> bool:
        """Apply one log entry; returns whether it advanced the store.

        Entries at or below the local version are idempotently skipped
        (re-delivered batch); an entry that would leave a version gap is
        a protocol violation and raises — a follower must never append
        day *n+1* without day *n*.
        """
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("replica.apply")
        version = entry["version"]
        local = self.store.version
        if version <= local:
            return False
        if version != local + 1:
            raise ReplicaError(
                f"replication gap: leader sent version {version}, "
                f"local store is at {local}")
        kind = entry["kind"]
        if kind == "append":
            snapshot = ListSnapshot.from_cleaned_entries(
                entry["provider"], dt.date.fromisoformat(entry["date"]),
                entry["entries"])
            self.store.append(snapshot, sync=False)
        elif kind == "report":
            # ``json_bytes`` is the canonical serialisation the leader
            # stored, so the round trip is byte-stable.
            self.store.save_report_bytes(entry["profile"],
                                         json_bytes(entry["document"]))
        else:
            raise ReplicaError(f"unknown replication entry kind {kind!r}")
        return True

    def sync_once(self) -> int:
        """One sync cycle: fetch/apply until caught up with the leader.

        Returns how many entries were applied.  Transient fetch failures
        retry under the policy (and trip the breaker); exhaustion raises
        :class:`~repro.util.retry.RetryExhaustedError`.  Batched appends
        are flushed durably before the cycle counts as complete.
        """
        applied = 0
        start = time.perf_counter()
        # One trace id per cycle: every leader fetch of this cycle (see
        # _log_request) and every log line below carries it.
        trace_token = tracing.activate(tracing.new_trace_id())
        try:
            try:
                while True:
                    payload = call_with_retry(
                        self._fetch_batch, self.policy,
                        retry_on=(OSError, json.JSONDecodeError),
                        rng=self._rng, clock=self._clock, sleep=self._sleep,
                        breaker=self.breaker)
                    leader_version = payload["store_version"]
                    with self._lock:
                        self._leader_version = leader_version
                    if leader_version < self.store.version:
                        raise ReplicaError(
                            f"leader at version {leader_version} is behind "
                            f"this replica ({self.store.version}); refusing "
                            f"to diverge")
                    for entry in payload["entries"]:
                        if self._apply(entry):
                            applied += 1
                    if not payload["remaining"] \
                            and self.store.version >= leader_version:
                        break
            except BaseException as error:
                if applied and not faults.is_crash(error):
                    # Keep the prefix that did land: it is valid data and
                    # the next cycle resumes after it.  (Not on a
                    # simulated crash — a dead process runs no cleanup;
                    # recovery happens at the next open instead.)
                    self.store.flush()
                if not faults.is_crash(error):
                    recorded = error
                    if isinstance(error, RetryExhaustedError) \
                            and error.last_error is not None:
                        # Health pages want the root cause ("leader
                        # refused connection"), not the retry wrapper.
                        recorded = error.last_error
                    with self._lock:
                        self._last_error = recorded
                    _M_SYNC_ERRORS.inc()
                    obslog.log_event(
                        "replica.sync_error", level="warning",
                        applied=applied,
                        error=f"{type(recorded).__name__}: {recorded}")
                raise
            if applied:
                self.store.flush()
            with self._lock:
                self._last_error = None
                self._sync_cycles += 1
                self._applied_total += applied
            lag = max(0, leader_version - self.store.version)
            _M_SYNC_CYCLES.inc()
            _M_APPLIED.inc(applied)
            _M_LAG.set(lag)
            _M_SYNC_SECONDS.observe(time.perf_counter() - start)
            obslog.log_event(
                "replica.sync", level="debug", applied=applied,
                local_version=self.store.version,
                leader_version=leader_version, staleness=lag)
            return applied
        finally:
            tracing.deactivate(trace_token)

    def sync_to_leader(self, attempts: int = 10) -> int:
        """Sync until staleness 0, tolerating leader churn in between.

        :meth:`sync_once` already loops until it has caught up with the
        version its last fetch reported; this wrapper re-runs it while
        fresh mutations keep landing, up to ``attempts`` cycles.
        """
        total = 0
        for _ in range(attempts):
            total += self.sync_once()
            if self.staleness() == 0:
                return total
        raise ReplicaError(
            f"still {self.staleness()} versions behind after "
            f"{attempts} sync cycles")


_M_TAILER_REFRESHES = metrics.counter(
    "repro_tailer_refreshes_total",
    "Disk-tail refresh cycles that adopted new store versions.")
_M_TAILER_LAG = metrics.gauge(
    "repro_tailer_lag_versions",
    "published_version - adopted_version observed at the end of the "
    "last disk-tail refresh cycle.")


class StoreTailer(_Tail):
    """Follow versions another *process* publishes to this store's disk.

    The worker pool's consistency primitive: the writer process appends
    and publishes the manifest; each read worker runs one ``StoreTailer``
    that polls :meth:`QueryService.refresh_from_disk`, which adopts new
    days through the same :meth:`QueryService._refresh` tail replay a
    network follower's appends go through, minus the network (the "log
    transport" is the shared filesystem, and the shard bytes are already
    local, so nothing is re-appended — just adopted).

    Shares :class:`Replica`'s ``status()`` / ``staleness()`` /
    ``ready()`` / ``run()``, so ``/v1/health`` and ``/v1/ready`` report
    a read worker's staleness through the same
    :meth:`QueryService.attach_replica` plumbing.
    """

    def __init__(self, service, *, max_staleness: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(service.store, max_staleness)
        self.service = service
        self._clock = clock
        #: Wall-clock seconds the last adopting refresh observed between
        #: polls — the *measured* staleness bound the pool tests assert.
        self._last_adopt_seconds: Optional[float] = None
        self._last_poll: Optional[float] = None

    def _leader(self) -> Optional[int]:
        """The durable manifest's version (what the writer has made real)."""
        try:
            return int(self.store._read_manifest()["store_version"])
        except (OSError, ValueError, KeyError, StoreError):
            return None

    def _extra_status(self) -> dict[str, Any]:
        return {"mode": "disk-tail",
                "last_adopt_seconds": self._last_adopt_seconds}

    def sync_once(self) -> int:
        """One refresh cycle; returns versions adopted."""
        store = self.store
        before = store.version
        now = self._clock()
        try:
            self.service.refresh_from_disk()
        except Exception as error:  # noqa: BLE001 — recorded, retried
            with self._lock:
                self._last_error = error
            raise
        adopted = store.version - before
        with self._lock:
            self._sync_cycles += 1
            self._last_error = None
            if adopted:
                self._applied_total += adopted
                if self._last_poll is not None:
                    self._last_adopt_seconds = now - self._last_poll
            self._last_poll = now
        if adopted:
            _M_TAILER_REFRESHES.inc()
        _M_TAILER_LAG.set(max(0, (self._leader() or 0) - store.version))
        return adopted
