"""repro.service — the serving subsystem on top of the analysis library.

Three layers turn the in-process analysis pipeline into a system that can
answer queries without rebuilding the world per request:

* :mod:`repro.service.store` — :class:`ArchiveStore`, an append-only
  on-disk snapshot store (shared string table + per-day rank arrays,
  sharded by provider/month) that reloads
  :class:`~repro.providers.base.ListArchive` objects as id columns and
  seeds the interner's base-id column from its stored bases, so the
  :mod:`repro.core.cache` delta engine PSL-parses nothing on load.
* :mod:`repro.service.index` — :class:`DomainIndex`, a domain-centric
  inverted index (``domain → provider → [(date, rank)]``) answering
  rank-history, longevity and days-in-top-k queries without an archive
  scan.
* :mod:`repro.service.api` — :class:`QueryService`, the deterministic
  JSON query layer behind the ``repro-serve`` HTTP endpoints, with an
  LRU result cache keyed on the store version and ETag revalidation.
* :mod:`repro.service.eventloop` — :class:`EventLoopServer`, the one
  HTTP server for the ``/v1`` API: a selectors/epoll loop where an idle
  keep-alive connection costs one file descriptor.  Every ``serve``
  role runs it — leader, follower, and the pool's readers, writer and
  control port.
* :mod:`repro.service.replica` — :class:`Replica`, a follower that
  tails a leader's mutation log over ``GET /v1/replication/log`` and
  converges to byte-identical store files and payloads (retry/backoff
  and circuit breaking via :mod:`repro.util.retry`; failure modes are
  reproducible through :mod:`repro.faults`), plus :class:`StoreTailer`,
  the same convergence loop over a shared filesystem.
* :mod:`repro.service.workers` — :class:`WorkerPool`, the pre-fork
  multi-process server: N read-only workers accepting on one shared
  socket, one writer owning ingest, supervised respawn, and an
  aggregated metrics control endpoint.
* :mod:`repro.service.shared_cache` — :class:`SharedPayloadCache`, the
  mmap-shared rendered-payload segment the pool's workers serve from.
* :mod:`repro.service.balance` — :class:`Balancer`, a stdlib
  round-robin proxy that ejects backends failing ``/v1/ready`` and
  re-admits them on recovery.

The command-line entry point lives in :mod:`repro.service.cli`
(``repro-serve`` / ``python -m repro.service.cli``).
"""

from repro.service.api import QueryService, Response
from repro.service.balance import Backend, Balancer
from repro.service.eventloop import EventLoopServer
from repro.service.index import DomainIndex, DomainLongevity
from repro.service.replica import Replica, ReplicaError, StoreTailer, http_fetcher
from repro.service.shared_cache import SharedPayloadCache
from repro.service.store import ArchiveStore
from repro.service.workers import WorkerPool

__all__ = [
    "ArchiveStore",
    "Backend",
    "Balancer",
    "DomainIndex",
    "DomainLongevity",
    "EventLoopServer",
    "QueryService",
    "Replica",
    "ReplicaError",
    "Response",
    "SharedPayloadCache",
    "StoreTailer",
    "WorkerPool",
    "http_fetcher",
]
