"""Domain-centric inverted index over list archives (id postings).

Every per-domain question the paper's stability sections ask — "what was
example.com's Alexa rank over January?", "how many days was it listed?",
"how long did it stay in the Top 1k?" — today costs a full archive scan:
``O(days × list size)`` per domain.  :class:`DomainIndex` inverts the
archives once into ``domain id → provider → uint32 postings``: one
interleaved ``(date ordinal, rank)`` array per domain, appended in date
order — eight bytes per observation, no boxed tuples, binary-searchable
for windowed history — after which rank history, list longevity and
days-in-top-k are one int-keyed dictionary lookup plus a walk over
exactly the domain's own postings.  Queries arrive as strings and
leave as strings; ids never escape the index.  Indexing builds no
base-domain sets: the one served view that needs them (``/v1/compare``)
asks the :mod:`repro.core.cache` delta engine on demand.

:meth:`DomainIndex.add` is the one way days enter the index: it takes a
provider's archive and indexes the days after that provider's indexed
tail, so building from scratch and adopting a newly appended day are the
same call.  It is order-strict per provider, mirroring the append-only
store; answers are element-for-element identical to a brute-force scan
over the archive, however the days were split across ``add`` calls
(property-tested in ``tests/test_service_index.py``).
"""

from __future__ import annotations

import datetime as dt
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot

_EMPTY = array("I")


@dataclass(frozen=True)
class DomainLongevity:
    """Summary of one domain's presence in one provider's list."""

    days_listed: int
    first_seen: Optional[dt.date]
    last_seen: Optional[dt.date]


def _bisect_postings(postings: array, ordinal: int) -> int:
    """First pair index whose date ordinal is ``>= ordinal``.

    ``postings`` interleaves ``(ordinal, rank)`` pairs in date order, so
    this is a binary search over the even slots.
    """
    lo, hi = 0, len(postings) // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if postings[2 * mid] < ordinal:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _ProviderIndex:
    """Per-provider indexed days and posting arrays."""

    __slots__ = ("dates", "observations")

    def __init__(self) -> None:
        self.dates: list[int] = []                 # indexed day ordinals
        #: domain id -> interleaved (ordinal, rank) postings, date order.
        self.observations: dict[int, array] = {}


def _append_postings(observations: dict[int, array],
                     snapshot: ListSnapshot) -> None:
    """Append one day's ``(ordinal, rank)`` pair to each listed domain."""
    ordinal = snapshot.date.toordinal()
    for rank, domain_id in enumerate(snapshot.entry_ids(), start=1):
        postings = observations.get(domain_id)
        if postings is None:
            observations[domain_id] = array("I", (ordinal, rank))
        else:
            postings.append(ordinal)
            postings.append(rank)


def _bulk_postings(observations: dict[int, array],
                   snapshots: Sequence[ListSnapshot]) -> None:
    """Fill an empty provider's postings from whole days at once.

    The days' id columns are concatenated in date order and
    stable-sorted by id, so each domain's observations stay in date
    order; every domain's interleaved ``(ordinal, rank)`` postings are
    then cut out of one pairs buffer — one Python step per distinct
    domain, not one per entry.  The pairs buffer is allocated before the
    sort temporaries, and those are freed before the per-domain arrays
    exist, so the freed temporaries do not end up pinned in the heap
    beneath the long-lived postings.
    """
    sizes = [len(snapshot) for snapshot in snapshots]
    total = sum(sizes)
    if not total:
        return
    pairs = np.empty((total, 2), np.uint32)
    ids = np.empty(total, np.uint32)
    unsorted = np.empty((total, 2), np.uint32)
    at = 0
    for snapshot, size in zip(snapshots, sizes):
        ids[at:at + size] = np.frombuffer(snapshot.entry_ids(), np.uint32)
        unsorted[at:at + size, 0] = snapshot.date.toordinal()
        unsorted[at:at + size, 1] = np.arange(1, size + 1, dtype=np.uint32)
        at += size
    order = np.argsort(ids, kind="stable")
    np.take(unsorted, order, axis=0, out=pairs)
    ids = ids[order]
    del unsorted, order
    cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    keys = ids[np.concatenate(([0], cuts))].tolist()
    bounds = [0, *cuts.tolist(), total]
    del ids, cuts
    boxed = default_interner().boxed
    view = memoryview(pairs).cast("B")
    width = pairs.itemsize * 2
    for key, lo, hi in zip(keys, bounds, bounds[1:]):
        postings = array("I")
        postings.frombytes(view[lo * width:hi * width])
        observations[boxed[key]] = postings


class DomainIndex:
    """Inverted ``domain → provider → rank history`` index (incremental)."""

    def __init__(self) -> None:
        self._providers: dict[str, _ProviderIndex] = {}
        #: Posting-list lookups answered (every per-domain query path
        #: funnels through :meth:`_postings`).
        #: A plain GIL-atomic int — lookups are ~µs-scale, too hot for
        #: the metrics-registry lock; scraped via ``/v1/metrics``.
        self.lookups = 0

    # -- construction -----------------------------------------------------
    def add(self, archive: ListArchive) -> None:
        """Index the archive's days after its provider's indexed tail.

        The archive only ever grows at its end: its days up to the
        indexed tail must be exactly the indexed days, or ``ValueError``.
        A provider with no indexed days gets its postings in one bulk
        build (:func:`_bulk_postings`), which wins on a whole history;
        later days are appended one at a time, which wins on a day or
        two.  Both give identical postings.
        """
        state = self._providers.get(archive.provider)
        indexed = state.dates if state is not None else []
        dates = archive.dates()
        if [date.toordinal() for date in dates[:len(indexed)]] != indexed:
            raise ValueError(
                f"index is append-only: the {archive.provider} archive's "
                f"days do not extend the {len(indexed)} indexed days")
        snapshots = [archive[date] for date in dates[len(indexed):]]
        if not snapshots:
            return
        state = self._providers.setdefault(archive.provider, _ProviderIndex())
        if state.dates:
            for snapshot in snapshots:
                _append_postings(state.observations, snapshot)
        else:
            _bulk_postings(state.observations, snapshots)
        state.dates.extend(snapshot.date.toordinal() for snapshot in snapshots)

    # -- introspection ----------------------------------------------------
    def providers(self) -> tuple[str, ...]:
        """Indexed provider names, sorted."""
        return tuple(sorted(self._providers))

    def dates(self, provider: str) -> list[dt.date]:
        """Indexed snapshot dates of ``provider``, in order."""
        state = self._providers.get(provider)
        if state is None:
            return []
        return [dt.date.fromordinal(o) for o in state.dates]

    def domain_count(self, provider: str) -> int:
        """Distinct domains ever indexed for ``provider``."""
        state = self._providers.get(provider)
        return len(state.observations) if state else 0

    # -- queries ----------------------------------------------------------
    def _postings(self, domain: str, provider: str) -> array:
        self.lookups += 1
        state = self._providers.get(provider)
        if state is None:
            raise KeyError(f"provider {provider!r} is not indexed")
        domain_id = default_interner().id_of(domain)
        if domain_id is None:
            return _EMPTY
        return state.observations.get(domain_id, _EMPTY)

    def history(self, domain: str, provider: str,
                start: Optional[dt.date] = None,
                end: Optional[dt.date] = None) -> list[tuple[dt.date, int]]:
        """The domain's ``(date, rank)`` observations, optionally windowed.

        Cost is ``O(log h + h')`` for a history of length ``h`` with
        ``h'`` observations in the window — never an archive scan.
        """
        postings = self._postings(domain, provider)
        lo = 0 if start is None else _bisect_postings(postings, start.toordinal())
        hi = (len(postings) // 2 if end is None
              else _bisect_postings(postings, end.toordinal() + 1))
        return [(dt.date.fromordinal(postings[2 * i]), postings[2 * i + 1])
                for i in range(lo, hi)]

    def longevity(self, domain: str, provider: str) -> DomainLongevity:
        """Days listed plus first/last sighting (Figure 2c's per-domain view)."""
        postings = self._postings(domain, provider)
        if not postings:
            return DomainLongevity(days_listed=0, first_seen=None, last_seen=None)
        return DomainLongevity(
            days_listed=len(postings) // 2,
            first_seen=dt.date.fromordinal(postings[0]),
            last_seen=dt.date.fromordinal(postings[-2]))

    def days_in_top_k(self, domain: str, provider: str, k: int) -> int:
        """Days the domain ranked within the Top-``k`` head."""
        if k <= 0:
            raise ValueError("k must be positive")
        return sum(1 for rank in self._postings(domain, provider)[1::2] if rank <= k)
