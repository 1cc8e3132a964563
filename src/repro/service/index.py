"""Domain-centric inverted index over list archives (columnar postings).

Every per-domain question the paper's stability sections ask — "what was
example.com's Alexa rank over January?", "how many days was it listed?",
"how long did it stay in the Top 1k?" — today costs a full archive scan:
``O(days × list size)`` per domain.  :class:`DomainIndex` inverts each
provider's days once into a few immutable CSR segments of ``uint32``
columns — sorted distinct domain ids, their offsets, and each
observation's date ordinal and rank — about nine bytes per observation.
Rank history, list longevity and days-in-top-k then bisect the ids of
each segment and walk exactly the domain's own observations.  Queries
arrive as strings and leave as strings; ids never escape the index.
Indexing builds no base-domain sets: the one served view that needs them
(``/v1/compare``) asks the :mod:`repro.core.cache` delta engine on demand.

:meth:`DomainIndex.add` is the one way days enter the index: it takes a
provider's archive and indexes the days after that provider's indexed
tail, so building from scratch and adopting a newly appended day are the
same call.  It is order-strict per provider, mirroring the append-only
store, and never writes into a published column.  Answers are
element-for-element identical to a brute-force scan over the archive,
however the days were split across ``add`` calls (property-tested in
``tests/test_service_index.py``).
"""

from __future__ import annotations

import datetime as dt
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot


@dataclass(frozen=True)
class DomainLongevity:
    """Summary of one domain's presence in one provider's list."""

    days_listed: int
    first_seen: Optional[dt.date]
    last_seen: Optional[dt.date]


class _Segment(NamedTuple):
    """Immutable CSR postings of a run of consecutive indexed days.

    Domain ``ids[i]``'s observations are ``ordinals[offsets[i]:
    offsets[i + 1]]`` and the matching ``ranks``, in date order.
    """

    days: int
    ids: array
    offsets: array
    ordinals: array
    ranks: array


class _ProviderIndex(NamedTuple):
    """One provider's published index state (replaced, never mutated)."""

    dates: tuple[dt.date, ...]          # indexed days, in order
    segments: tuple[_Segment, ...]      # oldest days first
    domain_count: int                   # distinct ids over all segments


_UNINDEXED = _ProviderIndex(dates=(), segments=(), domain_count=0)


def _segment(snapshots: Sequence[ListSnapshot]) -> _Segment:
    """One segment over ``snapshots`` (consecutive days, in date order).

    The days' id columns are concatenated in date order and
    stable-sorted by id, so each domain's observations stay in date
    order.  The two observation columns are allocated before the sort
    temporaries and filled in place, so the freed temporaries are not
    left pinned in the heap beneath them.
    """
    sizes = [len(snapshot) for snapshot in snapshots]
    total = sum(sizes)
    ordinals, ranks = array("I", [0]) * total, array("I", [0]) * total
    ids = np.empty(total, np.uint32)
    unsorted = np.empty((2, total), np.uint32)
    at = 0
    for snapshot, size in zip(snapshots, sizes):
        ids[at:at + size] = np.frombuffer(snapshot.entry_ids(), np.uint32)
        unsorted[0, at:at + size] = snapshot.date.toordinal()
        unsorted[1, at:at + size] = np.arange(1, size + 1, dtype=np.uint32)
        at += size
    order = np.argsort(ids, kind="stable")
    np.take(unsorted[0], order, out=np.frombuffer(ordinals, np.uint32))
    np.take(unsorted[1], order, out=np.frombuffer(ranks, np.uint32))
    ids = ids[order]
    del unsorted, order
    heads = np.flatnonzero(np.diff(ids, prepend=ids[:1] + 1))  # run starts
    offsets = np.append(heads, total).astype(np.uint32)
    return _Segment(len(snapshots), array("I", ids[heads].tobytes()),
                    array("I", offsets.tobytes()), ordinals, ranks)


class DomainIndex:
    """Inverted ``domain → provider → rank history`` index (incremental)."""

    def __init__(self) -> None:
        self._providers: dict[str, _ProviderIndex] = {}
        #: Posting-list lookups answered (every per-domain query path
        #: funnels through :meth:`_runs`).
        #: A plain GIL-atomic int — lookups are ~µs-scale, too hot for
        #: the metrics-registry lock; scraped via ``/v1/metrics``.
        self.lookups = 0

    # -- construction -----------------------------------------------------
    def add(self, archive: ListArchive) -> None:
        """Index the archive's days after its provider's indexed tail.

        The archive only ever grows at its end: its days up to the
        indexed tail must be exactly the indexed days, or ``ValueError``.
        The new days become one segment, which also takes in the days of
        every older segment from the oldest one that covers no more days
        than all the days after it.  Each kept segment then covers more
        days than all later ones together, so a provider holds at most
        ``⌊log₂ days⌋ + 1`` segments, however the days are split across
        calls (one-day adds compact like a binary counter).
        """
        state = self._providers.get(archive.provider, _UNINDEXED)
        dates = tuple(archive.dates())
        indexed = len(state.dates)
        if dates[:indexed] != state.dates:
            raise ValueError(
                f"index is append-only: the {archive.provider} archive's "
                f"days do not extend the {indexed} indexed days")
        if len(dates) == indexed:
            return
        kept, start = [], 0
        for segment in state.segments:
            if segment.days <= len(dates) - start - segment.days:
                break  # this segment and every later one are rebuilt
            kept.append(segment)
            start += segment.days
        segments = (*kept, _segment(archive.snapshots()[start:]))
        # np.unique (numpy 2.4) costs ~20× this sort-and-count here.
        every_id = np.sort(np.concatenate(
            [np.frombuffer(segment.ids, np.uint32) for segment in segments]))
        distinct = (int(np.count_nonzero(every_id[1:] != every_id[:-1]))
                    + bool(len(every_id)))
        self._providers[archive.provider] = _ProviderIndex(
            dates, segments, domain_count=distinct)

    # -- introspection ----------------------------------------------------
    def providers(self) -> tuple[str, ...]:
        """Indexed provider names, sorted."""
        return tuple(sorted(self._providers))

    def dates(self, provider: str) -> list[dt.date]:
        """Indexed snapshot dates of ``provider``, in order."""
        return list(self._providers.get(provider, _UNINDEXED).dates)

    def domain_count(self, provider: str) -> int:
        """Distinct domains ever indexed for ``provider``."""
        return self._providers.get(provider, _UNINDEXED).domain_count

    # -- queries ----------------------------------------------------------
    def _runs(self, domain: str,
              provider: str) -> list[tuple[_Segment, int, int]]:
        """The domain's ``(segment, lo, hi)`` observation slices, oldest first."""
        self.lookups += 1
        state = self._providers.get(provider)
        if state is None:
            raise KeyError(f"provider {provider!r} is not indexed")
        domain_id = default_interner().id_of(domain)
        runs = []
        if domain_id is None:
            return runs
        for segment in state.segments:
            ids = segment.ids
            at = bisect_left(ids, domain_id)
            if at < len(ids) and ids[at] == domain_id:
                runs.append((segment, segment.offsets[at],
                             segment.offsets[at + 1]))
        return runs

    def history(self, domain: str, provider: str,
                start: Optional[dt.date] = None,
                end: Optional[dt.date] = None) -> list[tuple[dt.date, int]]:
        """The domain's ``(date, rank)`` observations, optionally windowed.

        Cost is ``O(s log h + h')`` over ``s`` segments, for a history of
        length ``h`` with ``h'`` observations in the window — never an
        archive scan.
        """
        history: list[tuple[dt.date, int]] = []
        for segment, lo, hi in self._runs(domain, provider):
            ordinals = segment.ordinals
            if start is not None:
                lo = bisect_left(ordinals, start.toordinal(), lo, hi)
            if end is not None:
                hi = bisect_left(ordinals, end.toordinal() + 1, lo, hi)
            history += zip(map(dt.date.fromordinal, ordinals[lo:hi]),
                           segment.ranks[lo:hi])
        return history

    def longevity(self, domain: str, provider: str) -> DomainLongevity:
        """Days listed plus first/last sighting (Figure 2c's per-domain view)."""
        runs = self._runs(domain, provider)
        if not runs:
            return DomainLongevity(days_listed=0, first_seen=None, last_seen=None)
        (first, lo, _), (last, _, hi) = runs[0], runs[-1]
        return DomainLongevity(
            days_listed=sum(hi - lo for _, lo, hi in runs),
            first_seen=dt.date.fromordinal(first.ordinals[lo]),
            last_seen=dt.date.fromordinal(last.ordinals[hi - 1]))

    def days_in_top_k(self, domain: str, provider: str, k: int) -> int:
        """Days the domain ranked within the Top-``k`` head."""
        if k <= 0:
            raise ValueError("k must be positive")
        return sum(1 for segment, lo, hi in self._runs(domain, provider)
                   for rank in segment.ranks[lo:hi] if rank <= k)
