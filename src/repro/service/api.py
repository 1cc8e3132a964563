"""Deterministic JSON query API over a stored archive corpus.

:class:`QueryService` binds an :class:`~repro.service.store.ArchiveStore`
to the analysis library and answers the ``/v1`` endpoints:

========================================  =====================================
``GET /v1/meta``                          store/version/provider inventory
``GET /v1/domains/{name}/history``        per-provider rank history, longevity,
                                          days-in-top-k (``providers=``,
                                          ``start=``, ``end=``, ``top_k=``)
``GET /v1/providers/{p}/stability``       the Section-6.1 stability battery
                                          (``top_n=``)
``GET /v1/scenarios/{profile}/report``    the stored scenario report document
``GET /v1/compare``                       daily cross-list intersections
                                          (``providers=a,b``, ``top_n=``)
``GET /v1/replication/log``               the store's mutation log for
                                          followers (``since=``, ``max=``)
``GET /v1/health``                        role, versions, staleness, degraded
                                          flags (uncached)
``GET /v1/ready``                         readiness probe: 200 serving /
                                          503 still syncing (uncached)
``GET /v1/metrics``                       Prometheus text exposition of the
                                          process metrics registry plus the
                                          service's hot-path counters
                                          (uncached)
``POST /v1/ingest``                       append one day's snapshot (JSON or
                                          CSV body) — live, no restart
                                          (leader role only; followers 403)
``POST /v1/query``                        batch read: many GET targets in one
                                          request body
========================================  =====================================

Every payload is built from the same :mod:`repro.core` /
:mod:`repro.scenarios` calls a library user would make directly, floats
pass through :func:`repro.scenarios.runner.canonical_float`, and
serialisation is canonical JSON (sorted keys, two-space indent, trailing
newline; :mod:`repro.util.canonical_json`) — so an endpoint's bytes are
*identical* to computing the answer in-process (asserted in
``tests/test_service_api.py``).

Responses carry a strong ETag (SHA-256 of the body) and honour
``If-None-Match``; bodies are memoised in a bounded LRU keyed on
``(store.version, canonical request)``, so a mutation-free store serves
repeated queries from memory and any append invalidates everything at
once: the first read at a new version drops the older versions' bodies,
which no request can hit any more.

**Consistency model.**  One lock guards *all* shared state — the LRU,
the materialised archives and index, and the version the cache key is
derived from — so the service is safe to call from the serving loop
and from a replica or store-tailer thread at once.  A cache key's
version and its body are read/produced inside one continuous lock hold.
``/v1/ingest`` only appends to the store under the same lock (durable,
atomic manifest publish); it never touches the archives or the index.
Those change in one place, :meth:`QueryService._refresh`, which every
read runs first: per provider it replays the store's days after the
loaded tail (every day, on a cold start) through
:func:`repro.core.cache.extend_base_id_sets`, which carries forward the
base-domain sets an earlier ``/v1/compare`` built, and hands the archive
to :meth:`~repro.service.index.DomainIndex.add`.  Indexing builds no
base-domain sets; the first compare per variant does.  The same step
serves a cold start, an in-process ingest, a direct ``store.append``, a
follower's replicated appends and a pool reader's disk refresh.  Once
an ingest response is on the wire, every subsequent read observes the
new day.

All logic lives in the transport-free :meth:`QueryService.handle_request`,
which the CLI, tests and benchmarks call directly.  The HTTP layer is
:class:`repro.service.eventloop.EventLoopServer`: request bodies are
length-capped, chunked transfer is rejected up front, protocol-level
failures (malformed request lines, overlong headers) answer with the
same JSON error envelope as the API proper, and nothing a client sends
can raise out of the loop (the server records would-be escapes in
``server.unhandled_errors``, which the fuzz tests assert stays empty).
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence
from urllib.parse import parse_qs, unquote, urlencode, urlsplit

from repro import faults
from repro.core.cache import extend_base_id_sets
from repro.obs import logging as obslog
from repro.obs import metrics
from repro.core.intersection import intersection_over_time
from repro.core.stability import (
    cumulative_unique_domains,
    daily_changes,
    days_in_list,
    intersection_with_reference,
    mean_daily_change,
    new_domains_per_day,
)
from repro.domain.name import InvalidDomainError
from repro.interning import default_interner
from repro.listio import iter_csv_domains
from repro.providers.base import ListArchive, ListSnapshot
from repro.scenarios.runner import canonical_float as _f
from repro.service.index import DomainIndex
from repro.service.store import ArchiveStore, StoreConflictError, StoreError
from repro.util import canonical_json
from repro.util.ringlog import RingLog

#: Default bound of the per-service response LRU.
DEFAULT_CACHE_SIZE = 256

#: Retained unexpected-exception detail on the service (drop-oldest).
INTERNAL_ERRORS_CAPACITY = 16

#: Retained request-handling escapes on the server (drop-oldest).
UNHANDLED_ERRORS_CAPACITY = 64

#: Largest accepted ingest/batch request body (transport and service).
#: A real top-1M daily list is ~25 MB as JSON, so the cap leaves
#: paper-scale days comfortable headroom while still bounding a hostile
#: client's allocation.
MAX_BODY_BYTES = 64 << 20

#: Most GET targets one ``POST /v1/query`` batch may carry.
MAX_BATCH_REQUESTS = 100

#: Default / largest number of log entries one replication fetch returns
#: (append entries carry whole days, so batches stay deliberately small).
DEFAULT_REPLICATION_BATCH = 16
MAX_REPLICATION_BATCH = 256

#: Query parameters each route accepts; anything else is a 400 (a typoed
#: parameter silently changing nothing is worse than an error).
_ROUTE_PARAMS: dict[str, frozenset[str]] = {
    "meta": frozenset(),
    "history": frozenset({"providers", "start", "end", "top_k"}),
    "stability": frozenset({"top_n"}),
    "report": frozenset(),
    "compare": frozenset({"providers", "top_n"}),
    "ingest": frozenset({"provider", "date", "domain_column"}),
    "query": frozenset(),
    "replication": frozenset({"since", "max"}),
    "health": frozenset(),
    "ready": frozenset(),
    "metrics": frozenset(),
}

# Registry instruments for the API layer.  All of these sit on paths
# that already cost ≥ hundreds of µs (the wire, error envelopes,
# ingest), so the registry lock is affordable; the cached in-process
# read path uses plain ints on QueryService instead (see
# ``_metrics_families``).
_M_REQUESTS = metrics.counter(
    "repro_http_requests_total",
    "HTTP requests received on the wire, by method.",
    labelnames=("method",))
_M_REQUEST_SECONDS = metrics.histogram(
    "repro_http_request_seconds",
    "Wall-clock seconds answering one HTTP request (wire layer).")
_M_ERRORS = metrics.counter(
    "repro_http_errors_total",
    "JSON error envelopes produced, by HTTP status code.",
    labelnames=("code",))
_M_DEGRADED = metrics.counter(
    "repro_http_degraded_total",
    "503 degraded-mode answers (injected faults / shed load).")
_M_INTERNAL = metrics.counter(
    "repro_http_internal_errors_total",
    "Unexpected exceptions converted to 500 envelopes.")
_M_UNHANDLED = metrics.counter(
    "repro_http_unhandled_errors_total",
    "Exceptions that escaped request handling (server.unhandled_errors).")
_M_INGEST_DAYS = metrics.counter(
    "repro_ingest_days_total", "Snapshot days ingested via POST /v1/ingest.")
_M_INGEST_ROWS = metrics.counter(
    "repro_ingest_rows_total", "List rows accepted via POST /v1/ingest.")
_M_INGEST_SKIPPED = metrics.counter(
    "repro_ingest_skipped_rows_total",
    "Malformed/overlong rows skipped during CSV ingest.")
_M_INGEST_FORWARDED = metrics.counter(
    "repro_ingest_forwarded_total",
    "Ingest requests a pool read-worker proxied to the writer.")
_M_ADOPT_SECONDS = metrics.histogram(
    "repro_service_adopt_seconds",
    "Wall-clock seconds adopting one provider's new stored days into "
    "the served archives and index (a cold load or a tail).")


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON error body."""

    def __init__(self, status: int, message: str,
                 allow: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        #: ``Allow`` header value for 405 answers (RFC 9110 requires it).
        self.allow = allow


@dataclass
class Response:
    """One materialised API response (transport-independent).

    ``body`` may be a :class:`memoryview` over the shared payload
    segment (:mod:`repro.service.shared_cache`): transports write it to
    the socket without ever materialising a Python ``bytes`` copy.
    """

    status: int
    body: bytes | memoryview
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def etag(self) -> Optional[str]:
        return self.headers.get("ETag")

    def json(self) -> Any:
        """The decoded body (test/CLI convenience)."""
        return json.loads(bytes(self.body).decode("utf-8"))


def json_bytes(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, indent 2, trailing newline.

    The UTF-8 of :func:`repro.util.canonical_json.dumps`, the one
    serialisation the repo has, so a payload's bytes equal
    :meth:`repro.scenarios.runner.ScenarioReport.to_json`'s for the same
    document by construction.
    """
    return canonical_json.dumps(payload).encode("utf-8")


def _etag_of(body: bytes) -> str:
    return '"' + hashlib.sha256(body).hexdigest() + '"'


def _if_none_match_hit(header: str, etag: Optional[str]) -> bool:
    """RFC 7232 §3.2: does an ``If-None-Match`` header match ``etag``?

    The header is a comma-separated list of entity-tags or a bare
    ``*``.  Comparison is *weak* (§3.2 mandates it for If-None-Match):
    a ``W/`` weakness prefix on either side is ignored and the opaque
    tags compared byte-for-byte.
    """
    if etag is None:
        return False
    opaque = etag[2:] if etag.startswith("W/") else etag
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate and candidate == opaque:
            return True
    return False


def _is_get_route(tail: list[str]) -> bool:
    """Whether ``tail`` (path parts after ``v1``) names a GET endpoint."""
    if tail in (["meta"], ["compare"], ["health"], ["ready"], ["metrics"],
                ["replication", "log"]):
        return True
    return len(tail) == 3 and (tail[0], tail[2]) in {
        ("domains", "history"), ("providers", "stability"),
        ("scenarios", "report")}


def allowed_methods(path: str) -> str:
    """The ``Allow`` header value for ``path`` (per-resource, RFC 9110)."""
    parts = [part for part in path.split("/") if part]
    if parts[:1] == ["v1"] and parts[1:] in (["ingest"], ["query"]):
        return "POST"
    return "GET, HEAD"


def _check_params(params: Mapping[str, list[str]], route: str) -> None:
    allowed = _ROUTE_PARAMS[route]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ApiError(
            400, f"unknown query parameter(s) for {route}: {', '.join(unknown)} "
                 f"(allowed: {', '.join(sorted(allowed)) or 'none'})")


def _parse_date(params: Mapping[str, list[str]], name: str) -> Optional[dt.date]:
    values = params.get(name)
    if not values:
        return None
    try:
        return dt.date.fromisoformat(values[-1])
    except ValueError:
        raise ApiError(400, f"{name} must be an ISO date (got {values[-1]!r})") from None


def _parse_positive_int(params: Mapping[str, list[str]], name: str) -> Optional[int]:
    values = params.get(name)
    if not values:
        return None
    try:
        value = int(values[-1])
    except ValueError:
        raise ApiError(400, f"{name} must be an integer (got {values[-1]!r})") from None
    if value <= 0:
        raise ApiError(400, f"{name} must be positive (got {value})")
    return value


def _parse_non_negative_int(params: Mapping[str, list[str]],
                            name: str) -> Optional[int]:
    values = params.get(name)
    if not values:
        return None
    try:
        value = int(values[-1])
    except ValueError:
        raise ApiError(400, f"{name} must be an integer (got {values[-1]!r})") from None
    if value < 0:
        raise ApiError(400, f"{name} must be >= 0 (got {value})")
    return value


def _parse_providers(params: Mapping[str, list[str]]) -> Optional[list[str]]:
    values = params.get("providers")
    if not values:
        return None
    names = [name.strip() for chunk in values for name in chunk.split(",")]
    names = [name for name in names if name]
    if not names:
        raise ApiError(400, "providers must name at least one provider")
    return names


def _decode_json_body(body: bytes, what: str) -> dict:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ApiError(400, f"{what} body is not valid JSON") from None
    if not isinstance(document, dict):
        raise ApiError(400, f"{what} body must be a JSON object")
    return document


class QueryService:
    """Query layer over one archive store (transport-free).

    ``role`` is ``"leader"`` (accepts ``POST /v1/ingest``) or
    ``"follower"`` (read-only: ingest answers 403; the store mutates
    only through the attached :class:`~repro.service.replica.Replica`,
    whose staleness ``/v1/health`` and ``/v1/ready`` report).
    """

    def __init__(self, store: ArchiveStore,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 role: str = "leader") -> None:
        if role not in ("leader", "follower", "reader"):
            raise ValueError(f"role must be 'leader', 'follower' or "
                             f"'reader' (got {role!r})")
        self.store = store
        self.cache_size = cache_size
        self.role = role
        #: The follower's tailer, bound via :meth:`attach_replica`.
        self._replica = None
        #: Writer base URL a pool read-worker forwards ingest to
        #: (:meth:`set_ingest_proxy`); ``None`` keeps the follower 403.
        self._ingest_proxy: Optional[str] = None
        #: Cross-worker payload segment (:meth:`attach_shared_cache`).
        self._shared_cache = None
        self._result_cache: OrderedDict[tuple[int, str], Response] = OrderedDict()
        #: The store version the LRU's entries are keyed to.
        self._cache_version: Optional[int] = None
        self._archives: dict[str, ListArchive] = {}
        self._index = DomainIndex()
        self._loaded_version: Optional[int] = None
        # Hot-path telemetry: plain ints, not registry counters.  A
        # cached read costs ~5 µs, so its entire budget (<2%, see
        # BENCH_obs.json) is one GIL-atomic ``+= 1``; readers (the
        # /v1/metrics scrape, /v1/health) see whole values, never torn.
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._bypass_reads = 0
        #: Last few unexpected exceptions answered as generic 500s; the
        #: envelope withholds their text (it can carry server paths), so
        #: this is where operators and tests find the detail.  Bounded
        #: (drop-oldest) so a client that can trigger 500s cannot grow
        #: server memory; ``internal_errors.dropped`` tallies evictions.
        self.internal_errors: RingLog = RingLog(INTERNAL_ERRORS_CAPACITY)
        # The serving loop and a replica/tailer thread share the service:
        # one lock guards the LRU, the materialised archives/index, AND
        # the store-version reads the cache keys derive from.  Every
        # shared-state touch in this class happens inside it — readers and the ingest writer serialise
        # here, which is what makes a 200 ingest response a barrier:
        # later reads cannot miss the new day.
        self._lock = threading.RLock()

    # -- materialised state ----------------------------------------------
    def _refresh(self) -> None:
        """Catch the materialised archives/index up with the store.

        The only code that changes ``_archives`` and ``_index``, and one
        step for every provider: the store's days after the loaded tail
        (all of them for a provider not loaded yet) are replayed into
        the archive through the delta engine
        (:func:`extend_base_id_sets`), then ``index.add`` indexes them,
        wherever the days came from (this service's ingest, a direct
        ``store.append``, a replica, or another process via
        :meth:`refresh_from_disk`).  Keyed on the store's *data*
        version, so report saves don't force a walk.  The version is
        read before the walk: a day appended mid-walk leaves the
        recorded version behind the store's, so the next read walks
        again and picks it up.
        """
        with self._lock:
            version = self.store.data_version
            if self._loaded_version == version:
                return
            for provider in self.store.providers():
                archive = self._archives.get(provider)
                if archive is None:
                    archive = ListArchive(provider=provider)
                last_loaded = archive.dates()[-1] if len(archive) else None
                if last_loaded == self.store.dates(provider)[-1]:
                    continue
                start = time.perf_counter()
                # Only the days after the loaded tail are inflated; the
                # store skips earlier records with their chunks still
                # compressed.
                for snapshot in self.store.iter_snapshots(provider,
                                                          after=last_loaded):
                    extend_base_id_sets(archive, snapshot)
                self._index.add(archive)
                self._archives[provider] = archive
                _M_ADOPT_SECONDS.observe(time.perf_counter() - start)
            self._loaded_version = version

    def providers(self) -> tuple[str, ...]:
        with self._lock:
            self._refresh()
            return tuple(sorted(self._archives))

    def archive(self, provider: str) -> ListArchive:
        with self._lock:
            self._refresh()
            try:
                return self._archives[provider]
            except KeyError:
                known = ", ".join(sorted(self._archives)) or "none"
                raise ApiError(404, f"unknown provider {provider!r} "
                                    f"(stored: {known})") from None

    @property
    def index(self) -> DomainIndex:
        with self._lock:
            self._refresh()
            return self._index

    def clear_cache(self) -> None:
        """Drop memoised responses, so the next request is computed afresh.

        A test hook: the wire fuzz suite uses it to route a request past
        the LRU into a monkeypatched payload builder.
        """
        with self._lock:
            self._result_cache.clear()

    def attach_replica(self, replica) -> None:
        """Bind the follower's tailer so health/ready report its staleness."""
        with self._lock:
            self._replica = replica

    def attach_shared_cache(self, cache) -> None:
        """Bind a :class:`~repro.service.shared_cache.SharedPayloadCache`.

        GET misses probe it before building (a payload rendered by any
        worker serves from every worker), and freshly built payloads
        are published into it.
        """
        with self._lock:
            self._shared_cache = cache

    def set_ingest_proxy(self, base_url: str) -> None:
        """Forward ``POST /v1/ingest`` to the writer at ``base_url``.

        A pool read-worker is not a leader, but the pool's shared
        listening socket means ingest requests land on whichever worker
        accepted the connection — a reader proxies them to the single
        designated writer instead of answering 403, then refreshes from
        disk so its own next read observes the write.
        """
        with self._lock:
            self._ingest_proxy = base_url.rstrip("/")

    def refresh_from_disk(self) -> bool:
        """Adopt store versions another process published to disk.

        The pool read-worker discovery path: :meth:`ArchiveStore.refresh`
        re-reads the manifest (atomic — old or new, never torn) and
        extends the table state incrementally; :meth:`_refresh` then
        catches the archives/index up through the same tail replay that
        adopts an in-process ingest.  Returns whether new versions were
        adopted.
        """
        with self._lock:
            changed = self.store.refresh()
            if changed:
                self._refresh()
            return changed

    # -- payload builders (pure, deterministic) ---------------------------
    def meta_payload(self) -> dict[str, Any]:
        """Store inventory: providers, date ranges, stored reports."""
        self._refresh()
        providers: dict[str, Any] = {}
        for name in sorted(self._archives):
            archive = self._archives[name]
            days = len(archive)
            latest = archive[days - 1] if days else None
            providers[name] = {
                "days": days,
                "first_date": archive[0].date.isoformat() if days else None,
                "last_date": latest.date.isoformat() if latest else None,
                "list_size": len(archive[0]) if days else 0,
                "domains_indexed": self.index.domain_count(name),
                # One interner lookup, not latest.entries[0]: that would
                # materialise the whole day's string tuple (a megabyte-
                # scale allocation at 1M entries) to read one name.
                "top_domain": (default_interner().domain(latest.entry_ids()[0])
                               if latest and len(latest) else None),
            }
        return {
            "service": "repro-serve",
            "store_version": self.store.version,
            "providers": providers,
            "reports": list(self.store.report_names()),
        }

    def domain_history_payload(self, domain: str,
                               providers: Optional[Sequence[str]] = None,
                               start: Optional[dt.date] = None,
                               end: Optional[dt.date] = None,
                               top_k: Optional[int] = None) -> dict[str, Any]:
        """Rank history + longevity of one domain across providers.

        Answered entirely from the :class:`DomainIndex`, with one
        :meth:`~DomainIndex.view` lookup per provider (the window, the
        longevity and the days-in-top-k off one bisect of each segment);
        byte-identical to scanning the archives directly (the parity
        tests do exactly that) and to the index's own ``history``,
        ``longevity`` and ``days_in_top_k`` answers.
        """
        name = domain.strip().lower().rstrip(".")
        if not name:
            raise ApiError(400, "domain must be non-empty")
        selected = list(providers) if providers is not None else list(self.providers())
        index = self.index
        sections: dict[str, Any] = {}
        for provider in selected:
            if provider not in self._archives:
                raise ApiError(404, f"unknown provider {provider!r}")
            observations, longevity, in_top_k = index.view(
                name, provider, start, end, top_k)
            section: dict[str, Any] = {
                "observations": [{"date": date.isoformat(), "rank": rank}
                                 for date, rank in observations],
                "days_listed": longevity.days_listed,
                "first_seen": (longevity.first_seen.isoformat()
                               if longevity.first_seen else None),
                "last_seen": (longevity.last_seen.isoformat()
                              if longevity.last_seen else None),
                "best_rank": min((r for _, r in observations), default=None),
                "worst_rank": max((r for _, r in observations), default=None),
            }
            if top_k is not None:
                section["days_in_top_k"] = in_top_k
            sections[provider] = section
        payload: dict[str, Any] = {"domain": name, "providers": sections}
        if start is not None:
            payload["start"] = start.isoformat()
        if end is not None:
            payload["end"] = end.isoformat()
        if top_k is not None:
            payload["top_k"] = top_k
        return payload

    def provider_stability_payload(self, provider: str,
                                   top_n: Optional[int] = None) -> dict[str, Any]:
        """The Section-6.1 stability battery for one provider's archive."""
        archive = self.archive(provider)
        changes = daily_changes(archive, top_n)
        mean_change = mean_daily_change(archive, top_n)
        new_counts = new_domains_per_day(archive, top_n)
        cumulative = cumulative_unique_domains(archive, top_n)
        counts = days_in_list(archive, top_n)
        always = (sum(1 for v in counts.values() if v == len(archive)) / len(counts)
                  if counts else 0.0)
        decay = intersection_with_reference(archive, reference_days=range(7),
                                            top_n=top_n)
        list_size = len(archive[0]) if len(archive) else 0
        head = list_size if top_n is None else min(top_n, list_size)
        return {
            "provider": provider,
            "top_n": top_n,
            "days": len(archive),
            "list_size": list_size,
            "mean_daily_change": _f(mean_change),
            "churn_fraction": _f(mean_change / max(1, head)),
            "daily_changes": {date.isoformat(): count
                              for date, count in sorted(changes.items())},
            "new_per_day": {date.isoformat(): count
                            for date, count in sorted(new_counts.items())},
            "cumulative_unique": {date.isoformat(): count
                                  for date, count in sorted(cumulative.items())},
            "distinct_domains": len(counts),
            "always_listed_share": _f(always),
            "reference_decay": {str(offset): _f(value)
                                for offset, value in sorted(decay.items())},
        }

    def compare_payload(self, providers: Optional[Sequence[str]] = None,
                        top_n: Optional[int] = None) -> dict[str, Any]:
        """Daily pairwise/three-way base-domain intersections (Figure 1a)."""
        names = sorted(providers) if providers else list(self.providers())
        if len(names) < 2:
            raise ApiError(400, "compare needs at least two providers")
        if len(names) != len(set(names)):
            raise ApiError(400, "compare providers must be distinct")
        archives = {name: self.archive(name) for name in names}
        series = intersection_over_time(archives, top_n=top_n)
        per_pair: dict[str, list[int]] = {}
        daily: dict[str, dict[str, int]] = {}
        for date, matrix in series.items():
            row = {"&".join(pair): count for pair, count in matrix.items()}
            daily[date.isoformat()] = row
            for pair, count in row.items():
                per_pair.setdefault(pair, []).append(count)
        return {
            "providers": names,
            "top_n": top_n,
            "days": len(series),
            "pairs": {
                pair: {"mean": _f(sum(counts) / len(counts)),
                       "min": min(counts), "max": max(counts)}
                for pair, counts in sorted(per_pair.items())
            },
            "series": daily,
        }

    def scenario_report_bytes(self, profile: str) -> bytes:
        """The stored scenario report document (exact persisted bytes)."""
        try:
            return self.store.load_report_bytes(profile)
        except StoreError:
            # The store rejects path-escaping profile names before lookup.
            raise ApiError(400, f"invalid profile name {profile!r}") from None
        except KeyError:
            stored = ", ".join(self.store.report_names()) or "none"
            raise ApiError(404, f"no stored report for profile {profile!r} "
                                f"(stored: {stored})") from None

    def replication_log_payload(self, since: int,
                                limit: int) -> dict[str, Any]:
        """Mutation-log entries for a follower at version ``since``.

        ``remaining`` tells the follower how far behind this batch still
        leaves it, so a bootstrap loops without a second round-trip to
        discover it has more to pull.
        """
        version = self.store.version
        entries = self.store.mutation_log(since, limit)
        return {
            "since": since,
            "store_version": version,
            "entries": entries,
            "remaining": max(0, version - since - len(entries)),
        }

    def health_payload(self) -> dict[str, Any]:
        """Liveness report: role, versions, staleness, degraded flags.

        Never memoised: a follower's staleness moves without its store
        version moving, so this payload must be rebuilt per request.
        """
        payload: dict[str, Any] = {
            "service": "repro-serve",
            "role": self.role,
            "store_version": self.store.version,
            "data_version": self.store.data_version,
            "internal_errors": len(self.internal_errors),
        }
        hits, misses = self._cache_hits, self._cache_misses
        lookups = hits + misses
        payload["cache"] = {
            "entries": len(self._result_cache),
            "capacity": self.cache_size,
            "hits": hits,
            "misses": misses,
            "evictions": self._cache_evictions,
            "hit_ratio": _f(hits / lookups) if lookups else None,
        }
        payload["store_chunks"] = {
            "inflated": self.store.chunks_inflated,
            "bytes_inflated": self.store.chunk_bytes_inflated,
        }
        if self._shared_cache is not None:
            payload["shared_cache"] = self._shared_cache.stats()
        degraded = bool(self.internal_errors)
        if self._replica is not None:
            replication = self._replica.status()
            payload["replication"] = replication
            if replication.get("breaker") not in (None, "closed") \
                    or replication.get("last_error"):
                degraded = True
        payload["status"] = "degraded" if degraded else "ok"
        return payload

    def ready_payload(self) -> tuple[int, dict[str, Any]]:
        """Readiness probe: ``(status_code, payload)``.

        A leader is ready once its store is open.  A follower is ready
        only after at least one successful sync with staleness within
        its bound — before that it answers 503 so a load balancer keeps
        traffic on caught-up nodes.
        """
        ready = True
        reason = None
        if self._replica is not None:
            ready = self._replica.ready()
            if not ready:
                reason = "replica not caught up with leader"
        payload: dict[str, Any] = {
            "ready": ready,
            "role": self.role,
            "store_version": self.store.version,
        }
        if reason:
            payload["reason"] = reason
        return (200 if ready else 503), payload

    # -- the write path ---------------------------------------------------
    def _parse_ingest_snapshot(self, body: bytes,
                               params: Mapping[str, list[str]],
                               headers: Optional[Mapping[str, str]]
                               ) -> tuple[ListSnapshot, int]:
        """Validate an ingest body into a snapshot (no shared state yet).

        Two body formats: a JSON object ``{"provider", "date",
        "entries"}``, or a ``rank,domain`` CSV body (``domain_column=2``
        for Majestic's ``rank,tld,domain`` shape) with ``provider=`` and
        ``date=`` as query parameters.  ``Content-Type`` ``text/csv``
        selects CSV explicitly; otherwise a body opening with ``{`` is
        treated as JSON.  Entries are validated as DNS names *before*
        touching the append-only interner (see
        :meth:`~repro.providers.base.ListSnapshot.from_raw_entries`); a
        CSV row failing validation is skipped (downloaded lists carry
        junk rows) while a JSON entry failing it rejects the request.
        CSV rows stream straight into the id column
        (:meth:`~repro.providers.base.ListSnapshot.from_wire_rows`), so
        a 1M-row day is never materialised as a Python string list.
        Returns the snapshot plus the skipped-row count.
        """
        if not body:
            raise ApiError(400, "ingest requires a request body")
        if len(body) > MAX_BODY_BYTES:
            raise ApiError(413, f"ingest body exceeds {MAX_BODY_BYTES} bytes")
        content_type = {key.lower(): value
                        for key, value in (headers or {}).items()
                        }.get("content-type", "")
        kind = content_type.split(";")[0].strip().lower()
        is_json = (kind in ("application/json", "text/json")
                   or (kind not in ("text/csv", "text/plain")
                       and body.lstrip()[:1] == b"{"))

        def identity(provider: object, date_raw: object) -> tuple[str, dt.date]:
            if not isinstance(provider, str) or not provider:
                raise ApiError(400, "ingest provider must be a non-empty string")
            if not isinstance(date_raw, str):
                raise ApiError(400, "ingest date must be an ISO date string")
            try:
                return provider, dt.date.fromisoformat(date_raw)
            except ValueError:
                raise ApiError(400, f"ingest date must be an ISO date "
                                    f"(got {date_raw!r})") from None

        if is_json:
            # The snapshot identity lives in the body; a provider=/date=
            # query parameter would be silently shadowed, which is the
            # exact failure mode the unknown-param policy exists to stop.
            ignored = sorted(set(params) & {"provider", "date", "domain_column"})
            if ignored:
                raise ApiError(
                    400, f"{', '.join(ignored)} query parameter(s) apply to "
                         "CSV ingest only; a JSON body carries its own "
                         "provider and date")
            document = _decode_json_body(body, "ingest")
            unknown = sorted(set(document) - {"provider", "date", "entries"})
            if unknown:
                raise ApiError(400, "unknown ingest field(s): "
                                    f"{', '.join(unknown)} "
                                    "(expected provider, date, entries)")
            provider, date = identity(document.get("provider"),
                                      document.get("date"))
            entries = document.get("entries")
            if not isinstance(entries, list) or not entries:
                raise ApiError(400, "ingest entries must be a non-empty list")
            try:
                snapshot = ListSnapshot.from_raw_entries(provider, date, entries)
            except InvalidDomainError as error:
                raise ApiError(400, f"invalid list entry: {error}") from None
            return snapshot, 0
        provider_values = params.get("provider", [])
        date_values = params.get("date", [])
        if not provider_values or not date_values:
            raise ApiError(400, "CSV ingest requires provider= and date= "
                                "query parameters")
        # Identity is validated before any row may intern: a request that
        # is going to 400 on its parameters must not grow the id space.
        provider, date = identity(provider_values[-1], date_values[-1])
        # Mirrors repro.listio.parse_top_list_csv: rank,domain by
        # default, domain_column=2 for Majestic's rank,tld,domain
        # format (the repro-serve ingest CLI exposes the same knob).
        domain_column = _parse_positive_int(params, "domain_column") or 1
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            raise ApiError(400, "CSV ingest body is not valid UTF-8") from None
        # The row filter is shared with parse_top_list_csv, so a file
        # the offline parser accepts is never rejected over the wire
        # (and a bare "domain" header line can never become the
        # rank-1 entry).  Real downloaded lists carry junk rows; like
        # the offline parser we keep going past them — but unlike it
        # we validate first and *drop* the junk, so hostile bytes
        # never occupy interner id space (JSON ingest, whose bodies
        # are constructed programmatically, stays strict instead).
        # Rows flow one at a time through validate → intern → id
        # column; only the decoded body text exists in full.
        try:
            return ListSnapshot.from_wire_rows(
                provider, date, iter_csv_domains(io.StringIO(text),
                                                 domain_column))
        except InvalidDomainError:
            raise ApiError(400, "CSV ingest body holds no rank,domain "
                                "rows (send JSON for a bare entry list)"
                           ) from None

    def _metrics_families(self) -> list:
        """Hot-path plain-int telemetry as render-time sample families.

        These values live as GIL-atomic ``int`` attributes on this
        service, the store and the index (never registry instruments —
        the hot paths that bump them cannot afford the registry lock).
        Each scrape reads the attributes directly: reads are atomic, so
        samples are whole values (no torn reads) and monotone within
        any one scraping thread.
        """
        with self._lock:
            store = self.store
            families = [
                ("repro_cache_entries", "gauge",
                 "Entries resident in the response LRU.",
                 [({}, len(self._result_cache))]),
                ("repro_cache_capacity", "gauge",
                 "Bound of the response LRU.", [({}, self.cache_size)]),
                ("repro_cache_hits_total", "counter",
                 "Response-LRU hits.", [({}, self._cache_hits)]),
                ("repro_cache_misses_total", "counter",
                 "Response-LRU misses (payload built).",
                 [({}, self._cache_misses)]),
                ("repro_cache_evictions_total", "counter",
                 "Response-LRU evictions.", [({}, self._cache_evictions)]),
                ("repro_uncached_reads_total", "counter",
                 "Reads of the uncached probe endpoints "
                 "(health/ready/metrics).", [({}, self._bypass_reads)]),
                ("repro_store_version", "gauge",
                 "Store manifest version.", [({}, store.version)]),
                ("repro_store_data_version", "gauge",
                 "Store data version (excludes report saves).",
                 [({}, store.data_version)]),
                ("repro_store_chunks_inflated_total", "counter",
                 "Compressed id chunks inflated from shards.",
                 [({}, store.chunks_inflated)]),
                ("repro_store_chunk_bytes_inflated_total", "counter",
                 "Compressed bytes inflated from shards.",
                 [({}, store.chunk_bytes_inflated)]),
                ("repro_index_lookups_total", "counter",
                 "DomainIndex posting-list lookups.",
                 [({}, self._index.lookups)]),
                ("repro_service_internal_errors", "gauge",
                 "Unexpected exceptions retained on the service.",
                 [({}, len(self.internal_errors))]),
            ]
            shared = self._shared_cache
            if shared is not None:
                families += [
                    ("repro_shared_cache_hits_total", "counter",
                     "Payloads adopted from the cross-worker segment.",
                     [({}, shared.hits)]),
                    ("repro_shared_cache_misses_total", "counter",
                     "Cross-worker segment probes that missed.",
                     [({}, shared.misses)]),
                    ("repro_shared_cache_puts_total", "counter",
                     "Payloads published into the cross-worker segment.",
                     [({}, shared.puts)]),
                    ("repro_shared_cache_skipped_puts_total", "counter",
                     "Publishes skipped at the segment's size cap.",
                     [({}, shared.skipped_puts)]),
                ]
        return families

    def ingest(self, snapshot: ListSnapshot) -> dict[str, Any]:
        """Append ``snapshot`` to the store live and report the new version.

        Validate, append, respond: the archives and the index are left
        alone, and the next read adopts the day through :meth:`_refresh`
        like any other append.  The append runs under the service lock,
        so no read can key a body on the old version after the store
        moved; the moment this returns, every reader (history,
        stability, compare, meta) observes the new day.  The append is
        durable (fsynced tails, atomic manifest publish) before it is
        visible; a failed append leaves the service exactly as it was.
        """
        with self._lock:
            try:
                self.store.append(snapshot)
            except StoreConflictError as error:
                raise ApiError(409, str(error)) from None
            except StoreError as error:
                raise ApiError(400, str(error)) from None
            entries = len(snapshot)
            _M_INGEST_DAYS.inc()
            _M_INGEST_ROWS.inc(entries)
            obslog.log_event(
                "ingest.day", provider=snapshot.provider,
                date=snapshot.date.isoformat(), entries=entries,
                store_version=self.store.version)
            return {
                "ingested": {
                    "provider": snapshot.provider,
                    "date": snapshot.date.isoformat(),
                    "entries": entries,
                },
                "store_version": self.store.version,
                "data_version": self.store.data_version,
            }

    def batch_query_payload(self, body: bytes) -> dict[str, Any]:
        """Answer many GET targets in one request (``POST /v1/query``).

        The body is ``{"requests": ["/v1/...", ...]}``; each target runs
        through the same routing/caching pipeline as a standalone GET
        (so repeated batches hit the LRU), and per-target errors are
        embedded rather than failing the batch.  The whole batch runs
        under one lock hold, so every embedded payload — and the
        top-level ``store_version`` — reflects a single store version
        even while a writer is ingesting.
        """
        document = _decode_json_body(body, "query")
        unknown = sorted(set(document) - {"requests"})
        if unknown:
            raise ApiError(400, f"unknown query field(s): {', '.join(unknown)} "
                                "(expected requests)")
        requests = document.get("requests")
        if not isinstance(requests, list) or not requests:
            raise ApiError(400, "query requests must be a non-empty list")
        if len(requests) > MAX_BATCH_REQUESTS:
            raise ApiError(400, f"query batches are capped at "
                                f"{MAX_BATCH_REQUESTS} requests "
                                f"(got {len(requests)})")
        for target in requests:
            if not isinstance(target, str) or not target.startswith("/"):
                raise ApiError(400, f"query targets must be absolute request "
                                    f"paths (got {target!r})")
        responses = []
        with self._lock:
            version = self.store.version
            for target in requests:
                try:
                    sub = self._answer_get(target)
                except ApiError as error:
                    sub = self._error_response(error)
                responses.append({
                    "target": target,
                    "status": sub.status,
                    "payload": json.loads(bytes(sub.body).decode("utf-8")),
                })
        return {
            "requests": len(responses),
            "responses": responses,
            "store_version": version,
        }

    # -- request handling -------------------------------------------------
    def _route(self, path: str, params: Mapping[str, list[str]]) -> bytes:
        parts = [part for part in path.split("/") if part]
        if not parts or parts[0] != "v1":
            raise ApiError(404, f"unknown path {path!r} (endpoints live under /v1)")
        tail = parts[1:]
        if tail in (["ingest"], ["query"]):
            raise ApiError(405, f"/v1/{tail[0]} requires POST", allow="POST")
        if tail == ["meta"]:
            _check_params(params, "meta")
            return json_bytes(self.meta_payload())
        if len(tail) == 3 and tail[0] == "domains" and tail[2] == "history":
            _check_params(params, "history")
            return json_bytes(self.domain_history_payload(
                tail[1],
                providers=_parse_providers(params),
                start=_parse_date(params, "start"),
                end=_parse_date(params, "end"),
                top_k=_parse_positive_int(params, "top_k")))
        if len(tail) == 3 and tail[0] == "providers" and tail[2] == "stability":
            _check_params(params, "stability")
            return json_bytes(self.provider_stability_payload(
                tail[1], top_n=_parse_positive_int(params, "top_n")))
        if len(tail) == 3 and tail[0] == "scenarios" and tail[2] == "report":
            _check_params(params, "report")
            return self.scenario_report_bytes(tail[1])
        if tail == ["compare"]:
            _check_params(params, "compare")
            return json_bytes(self.compare_payload(
                providers=_parse_providers(params),
                top_n=_parse_positive_int(params, "top_n")))
        if tail == ["replication", "log"]:
            _check_params(params, "replication")
            since = _parse_non_negative_int(params, "since") or 0
            limit = _parse_positive_int(params, "max") or DEFAULT_REPLICATION_BATCH
            if limit > MAX_REPLICATION_BATCH:
                raise ApiError(400, f"max is capped at {MAX_REPLICATION_BATCH} "
                                    f"entries (got {limit})")
            return json_bytes(self.replication_log_payload(since, limit))
        raise ApiError(404, f"unknown path {path!r}")

    def _answer_get(self, target: str) -> Response:
        """The GET pipeline: one lock hold covers version → LRU → route.

        The cache key's store version, the LRU probe, the payload build
        and the insertion all happen inside a single continuous lock
        acquisition — a concurrent ingest can run strictly before or
        strictly after, never between the version read and the body it
        is keyed to (the race the version-keyed LRU would otherwise
        cache a stale body under).
        """
        parsed = urlsplit(target)
        path = unquote(parsed.path)
        # keep_blank_values: '?top_n=' must reach validation and fail
        # loudly, not silently vanish into the default behaviour.
        params = parse_qs(parsed.query, keep_blank_values=True)
        # urlencode percent-escapes values, so '?top_n=5&top_n=10' and
        # '?top_n=5,10' canonicalise differently — a cached 200 for the
        # former must never answer the latter (which cold-paths to 400).
        canonical = path + "?" + urlencode(sorted(params.items()), doseq=True)
        parts = [part for part in path.split("/") if part]
        if parts[:1] == ["v1"] and parts[1:] in (["health"], ["ready"],
                                                 ["metrics"]):
            # Probes bypass the version-keyed LRU entirely: a follower's
            # staleness (and every metric) moves without its store
            # version moving, so a memoised body would report stale
            # state forever.
            route = parts[1]
            _check_params(params, route)
            self._bypass_reads += 1
            if route == "metrics":
                body = metrics.render(extra=self._metrics_families())
                return Response(200, body, {
                    "Content-Type": "text/plain; version=0.0.4; "
                                    "charset=utf-8",
                    "Cache-Control": "no-store",
                    "X-Repro-Store-Version": str(self.store.version),
                    "X-Repro-Cache": "bypass",
                })
            with self._lock:
                if route == "health":
                    status, payload = 200, self.health_payload()
                else:
                    status, payload = self.ready_payload()
                version = self.store.version
            body = json_bytes(payload)
            return Response(status, body, {
                "Content-Type": "application/json; charset=utf-8",
                "Cache-Control": "no-store",
                "X-Repro-Store-Version": str(version),
                "X-Repro-Cache": "bypass",
            })
        with self._lock:
            version = self.store.version
            if version != self._cache_version:
                # The store version only grows, so no request can hit an
                # older version's body again: drop them all now rather
                # than let them age out behind newer entries.
                self._cache_evictions += len(self._result_cache)
                self._result_cache.clear()
                self._cache_version = version
            cache_key = (version, canonical)
            cached = self._result_cache.get(cache_key)
            if cached is not None:
                self._cache_hits += 1
                self._result_cache.move_to_end(cache_key)
                response = Response(cached.status, cached.body,
                                    dict(cached.headers))
                response.headers["X-Repro-Cache"] = "hit"
                return response
            shared = self._shared_cache
            if shared is not None:
                found = shared.get(version, canonical)
                if found is not None:
                    # Another worker already rendered these bytes; adopt
                    # them (and their ETag) without re-routing, and seed
                    # this process's LRU so the next read is a dict hit.
                    body, etag = found
                    response = Response(200, body, {
                        "Content-Type": "application/json; charset=utf-8",
                        "ETag": etag,
                        "X-Repro-Store-Version": str(version),
                        "X-Repro-Cache": "shared",
                    })
                    self._remember(cache_key, response)
                    return response
            body = self._route(path, params)  # ApiError propagates
            self._cache_misses += 1
            etag = _etag_of(body)
            response = Response(200, body, {
                "Content-Type": "application/json; charset=utf-8",
                "ETag": etag,
                "X-Repro-Store-Version": str(version),
                "X-Repro-Cache": "miss",
            })
            # Payloads are deterministic per version, so two threads
            # racing to fill the same key store identical bodies.
            self._remember(cache_key, response)
            if shared is not None:
                # Publish after the local insert: a racing worker putting
                # the same key appends identical bytes (determinism per
                # version), so ordering does not matter for correctness.
                shared.put(version, canonical, body, etag)
        return response

    def _remember(self, cache_key: tuple[int, str],
                  response: Response) -> None:
        """Insert a copy of ``response`` into the LRU, evicting the oldest."""
        self._result_cache[cache_key] = Response(
            response.status, response.body, dict(response.headers))
        while len(self._result_cache) > self.cache_size:
            self._result_cache.popitem(last=False)
            self._cache_evictions += 1

    def _answer_post(self, target: str, headers: Optional[Mapping[str, str]],
                     body: bytes) -> Response:
        parsed = urlsplit(target)
        path = unquote(parsed.path)
        params = parse_qs(parsed.query, keep_blank_values=True)
        parts = [part for part in path.split("/") if part]
        tail = parts[1:] if parts[:1] == ["v1"] else None
        if tail == ["ingest"]:
            _check_params(params, "ingest")
            if self.role != "leader":
                if self._ingest_proxy is not None:
                    return self._forward_ingest(target, headers, body)
                raise ApiError(403, "this node is a read-only follower; "
                                    "POST /v1/ingest on the leader")
            snapshot, skipped = self._parse_ingest_snapshot(body, params, headers)
            payload = self.ingest(snapshot)
            payload["ingested"]["skipped_rows"] = skipped
            if skipped:
                _M_INGEST_SKIPPED.inc(skipped)
        elif tail == ["query"]:
            _check_params(params, "query")
            if len(body) > MAX_BODY_BYTES:
                raise ApiError(413, f"query body exceeds {MAX_BODY_BYTES} bytes")
            payload = self.batch_query_payload(body)
        elif tail is not None and _is_get_route(tail):
            raise ApiError(405, f"method POST not allowed for {path} "
                                "(allowed: GET, HEAD)", allow="GET, HEAD")
        else:
            raise ApiError(404, f"unknown path {path!r}")
        out = json_bytes(payload)
        return Response(200, out, {
            "Content-Type": "application/json; charset=utf-8",
            "ETag": _etag_of(out),
            # The payload's version was captured under the lock that
            # produced it; re-reading here could expose a concurrent
            # writer's later version in the header of this body.
            "X-Repro-Store-Version": str(payload["store_version"]),
            "X-Repro-Cache": "miss",
        })

    def _forward_ingest(self, target: str,
                        headers: Optional[Mapping[str, str]],
                        body: bytes) -> Response:
        """Proxy one ingest to the designated writer, then catch up.

        The writer's response (status, body, ETag) passes through
        verbatim with an ``X-Repro-Forwarded`` marker; on a 2xx the
        reader immediately refreshes from disk, so the worker that
        answered the ingest serves the new day on its very next read —
        read-your-writes through the pool's shared socket.
        """
        import http.client

        parsed = urlsplit(self._ingest_proxy)
        fwd_headers = {"Content-Type": "application/json"}
        for name, value in (headers or {}).items():
            if name.lower() in ("content-type", "x-request-id"):
                fwd_headers[name.title()] = value
        _M_INGEST_FORWARDED.inc()
        try:
            conn = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=60)
            try:
                conn.request("POST", target, body=body, headers=fwd_headers)
                upstream = conn.getresponse()
                data = upstream.read()
                status = upstream.status
                passthrough = {
                    "Content-Type": upstream.getheader(
                        "Content-Type", "application/json; charset=utf-8"),
                }
                for name in ("ETag", "X-Repro-Store-Version"):
                    value = upstream.getheader(name)
                    if value is not None:
                        passthrough[name] = value
            finally:
                conn.close()
        except OSError as error:
            raise ApiError(503, "ingest writer unavailable: "
                                f"{type(error).__name__}") from None
        if 200 <= status < 300:
            self.refresh_from_disk()
        passthrough["X-Repro-Cache"] = "bypass"
        passthrough["X-Repro-Forwarded"] = "writer"
        return Response(status, data, passthrough)

    def _error_response(self, error: ApiError) -> Response:
        # Single chokepoint for every JSON error envelope (direct
        # errors, batch sub-errors, degraded 503s) — the chaos suite
        # asserts on this counter instead of scraping exception lists.
        _M_ERRORS.labels(code=str(error.status)).inc()
        body = json_bytes({"error": {"status": error.status,
                                     "message": str(error)}})
        headers = {
            "Content-Type": "application/json; charset=utf-8",
            "ETag": _etag_of(body),
            "X-Repro-Store-Version": str(self.store.version),
            "X-Repro-Cache": "miss",
        }
        if error.allow:
            headers["Allow"] = error.allow
        return Response(error.status, body, headers)

    def handle_request(self, target: str,
                       headers: Optional[Mapping[str, str]] = None,
                       method: str = "GET", body: bytes = b"") -> Response:
        """Answer one request (``target`` is the path with query string).

        GET/HEAD bodies are memoised per ``(store.version, canonical
        request)``; a matching ``If-None-Match`` turns the answer into an
        empty 304.  POST routes to the ingest/batch endpoints.  This
        method never raises: errors — including unexpected ones — come
        back as JSON error-envelope responses, which is what keeps the
        serving loop alive under fuzzed input.
        """
        method = method.upper()
        if faults.ACTIVE is not None:
            try:
                # Injection point "api.request": a ``slow`` rule stalls
                # admission, an ``error`` rule answers 503 — the
                # degraded-mode shape a load-shedding proxy produces —
                # without polluting ``internal_errors`` (the fault is
                # deliberate, not an escape).
                faults.ACTIVE.hit("api.request")
            except faults.InjectedFault:
                _M_DEGRADED.inc()
                obslog.log_event("api.degraded", level="warning",
                                 target=target, method=method)
                return self._error_response(ApiError(
                    503, "service degraded (injected fault)"))
        try:
            if method in ("GET", "HEAD"):
                response = self._answer_get(target)
            elif method == "POST":
                response = self._answer_post(target, headers, body)
            else:
                allow = allowed_methods(unquote(urlsplit(target).path))
                raise ApiError(405, f"method {method} not allowed "
                                    f"(allowed: {allow})", allow=allow)
        except ApiError as error:
            response = self._error_response(error)
        except Exception as error:  # noqa: BLE001 — serving must not die
            # The envelope names only the exception type: str(error) can
            # carry server-side paths (OSError file names etc.) that a
            # remote client has no business seeing.  The full exception
            # is retained on the service for operators and tests.
            self.internal_errors.append(error)
            _M_INTERNAL.inc()
            obslog.log_event("api.internal_error", level="error",
                             target=target, method=method,
                             error=type(error).__name__)
            response = self._error_response(ApiError(
                500, f"internal error ({type(error).__name__}); "
                     "detail retained server-side"))
        if_none_match = {key.lower(): value
                         for key, value in (headers or {}).items()
                         }.get("if-none-match")
        if response.status == 200 and method in ("GET", "HEAD") and if_none_match:
            if _if_none_match_hit(if_none_match, response.headers.get("ETag")):
                return Response(304, b"", dict(response.headers))
        return response
