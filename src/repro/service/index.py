"""Domain-centric inverted index over list archives (id postings).

Every per-domain question the paper's stability sections ask — "what was
example.com's Alexa rank over January?", "how many days was it listed?",
"how long did it stay in the Top 1k?" — today costs a full archive scan:
``O(days × list size)`` per domain.  :class:`DomainIndex` inverts the
archives once into

* ``domain id → provider → uint32 postings``: one interleaved
  ``(date ordinal, rank)`` array per domain, appended in date order —
  eight bytes per observation, no boxed tuples, binary-searchable for
  windowed history; and
* ``base-domain id → provider → membership intervals`` built from the
  same day-over-day deltas the :func:`repro.core.cache.archive_base_id_sets`
  engine computes (shared via the archive's cache, so an analysis that
  already asked for them costs the index nothing more),

after which rank history, list longevity and days-in-top-k are one
int-keyed dictionary lookup plus a walk over exactly the domain's own
postings.  Queries arrive as strings and leave as strings; ids never
escape the index.

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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.cache import archive_base_id_sets
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
    """Per-provider posting arrays and base-membership events."""

    __slots__ = ("dates", "observations", "base_events", "prev_bases")

    def __init__(self) -> None:
        self.dates: list[int] = []                 # indexed day ordinals
        #: domain id -> interleaved (ordinal, rank) postings, date order.
        self.observations: dict[int, array] = {}
        #: base-domain id -> [(ordinal, entered?)] transitions, date order.
        self.base_events: dict[int, list[tuple[int, bool]]] = {}
        self.prev_bases: frozenset[int] = frozenset()


def _advance_bases(state: _ProviderIndex, ordinal: int,
                   current: frozenset[int]) -> None:
    """Record the day's base-membership changes and the day itself."""
    if current != state.prev_bases:
        events = state.base_events
        for base in state.prev_bases - current:
            events[base].append((ordinal, False))
        for base in current - state.prev_bases:
            events.setdefault(base, []).append((ordinal, True))
        state.prev_bases = current
    state.dates.append(ordinal)


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
        #: funnels through :meth:`_postings` / :meth:`base_intervals`).
        #: A plain GIL-atomic int — lookups are ~µs-scale, too hot for
        #: the metrics-registry lock; scraped via ``/v1/metrics``.
        self.lookups = 0

    # -- construction -----------------------------------------------------
    def add(self, archive: ListArchive) -> None:
        """Index the archive's days after its provider's indexed tail.

        The archive only ever grows at its end: its days up to the
        indexed tail must be exactly the indexed days, or ``ValueError``.
        The new days' base-domain sets come from the one delta engine
        (:func:`~repro.core.cache.archive_base_id_sets`), whose per-day
        mapping the archive caches.  A provider with no indexed days
        gets its postings in one bulk build (:func:`_bulk_postings`),
        which wins on a whole history; later days are appended one at
        a time, which wins on a day or two.  Both give identical
        postings.
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
        per_day = archive_base_id_sets(archive)
        state = self._providers.setdefault(archive.provider, _ProviderIndex())
        if state.dates:
            for snapshot in snapshots:
                _append_postings(state.observations, snapshot)
        else:
            _bulk_postings(state.observations, snapshots)
        for snapshot in snapshots:
            _advance_bases(state, snapshot.date.toordinal(),
                           per_day[snapshot.date])

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

    def rank_on(self, domain: str, provider: str, date: dt.date) -> Optional[int]:
        """The domain's rank on ``date`` (``None`` when not listed)."""
        postings = self._postings(domain, provider)
        ordinal = date.toordinal()
        position = _bisect_postings(postings, ordinal)
        if 2 * position < len(postings) and postings[2 * position] == ordinal:
            return postings[2 * position + 1]
        return None

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

    def base_intervals(self, base: str, provider: str
                       ) -> list[tuple[dt.date, Optional[dt.date]]]:
        """Closed presence intervals of a *base domain* in the list.

        Returns ``[(entered, left), ...]`` where ``left`` is the last
        indexed date the base was still present (``None`` while it remains
        listed on the newest indexed day).  Built from the same change
        events the delta engine produces, so membership follows the
        paper's base-domain normalisation (footnote 6), not raw FQDNs.
        """
        self.lookups += 1
        state = self._providers.get(provider)
        if state is None:
            raise KeyError(f"provider {provider!r} is not indexed")
        base_id = default_interner().id_of(base)
        events = state.base_events.get(base_id, []) if base_id is not None else []
        intervals: list[tuple[dt.date, Optional[dt.date]]] = []
        entered: Optional[int] = None
        for ordinal, present in events:
            if present:
                entered = ordinal
            elif entered is not None:
                # The base left on `ordinal`: last present day is the
                # provider's previous indexed date.
                position = bisect_left(state.dates, ordinal)
                last_present = state.dates[position - 1]
                intervals.append((dt.date.fromordinal(entered),
                                  dt.date.fromordinal(last_present)))
                entered = None
        if entered is not None:
            intervals.append((dt.date.fromordinal(entered), None))
        return intervals
