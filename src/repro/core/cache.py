"""Incremental per-archive caches for the domain-normalisation hot paths.

The paper's central stability finding — consecutive daily lists overlap
by ~99% — makes the analysis pipeline's naive shape (re-parse every
entry of every day through the PSL, for every analysis) almost entirely
redundant work.  This module exploits it, and since the columnar
refactor it does so **in id space**: snapshots store interned uint32
columns (:mod:`repro.interning`), so the delta engines diff
``frozenset[int]`` objects, keep reference counts in int-keyed dicts,
and answer base-domain normalisation from a PSL-version-stamped id
column instead of a string memo.

* :func:`snapshot_base_ids` caches one snapshot's normalised base-id
  set per ``(PSL identity, version)``.
* :func:`archive_base_id_sets` is the one base-set delta engine, for
  in-memory and store-loaded archives alike: it computes each day's base
  set as a *delta* against the previous day, so only entries that
  entered or left the list are resolved, and a per-base reference count
  keeps the set exact when several FQDNs map to the same base.  Each
  day's raw id set is transient, so the engine pins only its results.
  Names map back to strings through ``default_interner().domains(...)``.
* :func:`extend_base_id_sets` is the live-append entry point: it adds a
  snapshot to an archive while carrying the cached per-day base-id
  mappings forward by one day instead of letting ``archive.add`` drop
  them (the serving layer's one adoption step,
  ``QueryService._refresh``, calls it for every day appended after the
  loaded tail).
* :func:`archive_sld_count_events` tracks per-day SLD-group membership
  counts as change events (day index, new count), again delta-driven.
* :func:`archive_rank_series_ids` / :func:`archive_rank_partition_ids`
  build id-keyed per-domain rank columns once per ``(archive, top_n)``;
  callers that need names map the ids through
  ``default_interner().domains(...)``.

All per-archive results live in the archive's ``_analysis_cache`` dict,
which :meth:`repro.providers.base.ListArchive.add` drops on mutation;
PSL-dependent entries additionally key on ``psl.cache_key`` (a
never-reused instance id plus the rule-set version) so
:meth:`~repro.domain.psl.PublicSuffixList.add_rule` invalidates them.
Every function is a pure accelerator: results are element-for-element
identical to recomputing from scratch with the non-cached code paths.
"""

from __future__ import annotations

import datetime as dt
import time
from collections import Counter, defaultdict
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.domain.name import normalise
from repro.domain.psl import PublicSuffixList, default_list
from repro.interning import default_interner
from repro.obs import metrics
from repro.providers.base import ListArchive, ListSnapshot

_DEFAULT_PSL = default_list()

# Live-append extensions run a few times per ingested day (ms-scale
# path), cheap enough for registry instruments.
_M_EXTENDS = metrics.counter(
    "repro_delta_extends_total",
    "Live snapshot extensions of the delta engine "
    "(extend_base_id_sets calls).")
_M_EXTEND_SECONDS = metrics.histogram(
    "repro_delta_extend_seconds",
    "Wall-clock seconds per extend_base_id_sets call.")

#: Bound on the flat per-PSL parse memos below (unique names, not bytes).
_PARSE_MEMO_LIMIT = 1 << 20
_MISSING = object()


def _psl_key(psl: PublicSuffixList) -> tuple[int, int]:
    return psl.cache_key


def _memo_for(kind: str, psl: PublicSuffixList) -> dict:
    """Flat per-PSL memo for ``kind``, stored *on* the PSL instance.

    The same domains recur across days and lists, so after the first
    sighting a delta entry costs one dict lookup.  Living on the PSL, a
    memo is freed with its instance; superseded rule-set versions are
    evicted as soon as a newer version is requested.
    """
    store = psl.__dict__.setdefault("_derived_memos", {})
    key = (kind, psl.version)
    memo = store.get(key)
    if memo is None:
        for stale in [k for k in store if k[0] == kind and k[1] < key[1]]:
            del store[stale]
        memo = store[key] = {}
    return memo


def _archive_cache(archive: ListArchive) -> dict:
    return archive.__dict__.setdefault("_analysis_cache", {})


#: Distinct PSL generations retained per cached analysis before the
#: oldest is dropped (bounds growth when callers churn PSL instances).
_PSL_GENERATION_LIMIT = 4


def _evict_superseded(cache: dict, key: tuple) -> None:
    """Drop stale cache entries of the same analysis before adding ``key``.

    ``key`` is ``(kind, top_n, ..., psl.cache_key)`` with the PSL
    ``(uid, version)`` tuple last.  Older versions of the same PSL are
    removed immediately (after ``add_rule`` they would otherwise stay
    alive until the owning archive mutates), and the whole ``(kind,
    top_n)`` family — spanning distinct PSL instances *and* distinct
    ``dates`` subsets — is bounded at :data:`_PSL_GENERATION_LIMIT`
    entries, oldest first, so churning either cannot grow the cache
    without bound.
    """
    family = key[:2]
    uid, version = key[-1]
    same_family = [k for k in cache if k[:2] == family]
    for stale in [k for k in same_family if k[-1][0] == uid and k[-1][1] < version]:
        del cache[stale]
        same_family.remove(stale)
    while len(same_family) >= _PSL_GENERATION_LIMIT:
        del cache[same_family.pop(0)]


def _sld_of_id_memoised(psl: PublicSuffixList):
    """Memoised ``domain id -> SLD group label`` lookup (id-keyed)."""
    memo = _memo_for("sld-id", psl)
    table = default_interner()

    def sld_of(domain_id: int) -> Optional[str]:
        sld = memo.get(domain_id, _MISSING)
        if sld is _MISSING:
            base = psl.suffix_and_base(normalise(table.domain(domain_id)))[1]
            sld = None if base is None else base.split(".", 1)[0]
            if len(memo) >= _PARSE_MEMO_LIMIT:
                memo.clear()
            memo[domain_id] = sld
        return sld

    return sld_of


def extend_base_id_sets(archive: ListArchive, snapshot: ListSnapshot,
                        psl: Optional[PublicSuffixList] = None) -> None:
    """Add ``snapshot`` to ``archive`` without losing the delta engine.

    :meth:`~repro.providers.base.ListArchive.add` drops the archive's
    derived caches wholesale — correct, but it would force a live-append
    server to redo a month of base-domain deltas for every ingested day.
    This helper captures the cached full-range per-day base-id mappings
    (every ``top_n`` variant computed under ``psl``) *before* the add,
    appends the new day's set — resolved through the same base-id
    column, so the value is exactly what the delta engine would compute
    — and reinstalls the extended mappings afterwards.

    Falls back to a plain (cold) ``add`` when the snapshot is not
    strictly after the archive's last date: a mid-series insert would
    reorder the per-day mapping, so correctness wins over warmth.
    """
    start = time.perf_counter()
    psl = psl or _DEFAULT_PSL
    pkey = _psl_key(psl)
    cache = archive.__dict__.get("_analysis_cache", {})
    last = archive.dates()[-1] if len(archive) else None
    captured = [
        (key[1], view) for key, view in cache.items()
        if key[0] == "base-domain-sets" and key[2] is None and key[3] == pkey
    ] if last is not None and snapshot.date > last else []
    archive.add(snapshot)
    if captured:
        fresh = _archive_cache(archive)
        for top_n, view in captured:
            snap = snapshot.top(top_n) if top_n is not None else snapshot
            extended = dict(view)
            extended[snap.date] = snapshot_base_ids(snap, psl)
            fresh[("base-domain-sets", top_n, None, pkey)] = \
                MappingProxyType(extended)
    _M_EXTENDS.inc()
    _M_EXTEND_SECONDS.observe(time.perf_counter() - start)


def snapshot_base_ids(snapshot: ListSnapshot,
                      psl: Optional[PublicSuffixList] = None) -> frozenset[int]:
    """The snapshot's entries normalised to unique base-domain ids (cached)."""
    psl = psl or _DEFAULT_PSL
    key = _psl_key(psl)
    cache = snapshot.__dict__.setdefault("_base_id_sets", {})
    result = cache.get(key)
    if result is None:
        for stale in [k for k in cache if k[0] == key[0] and k[1] < key[1]]:
            del cache[stale]
        while len(cache) >= _PSL_GENERATION_LIMIT:
            del cache[next(iter(cache))]
        table = default_interner()
        base_id = table.base_column(psl).base_id
        boxed = table.boxed
        result = frozenset({boxed[base_id(domain_id)]
                            for domain_id in snapshot.entry_ids()})
        cache[key] = result
    return result


def archive_base_id_sets(archive: ListArchive,
                         top_n: Optional[int] = None,
                         psl: Optional[PublicSuffixList] = None,
                         dates: Optional[Sequence[dt.date]] = None
                         ) -> Mapping[dt.date, frozenset[int]]:
    """Per-day normalised base-domain **id** sets, delta-computed.

    The canonical per-archive engine:
    day *n+1* comes from day *n* by resolving only the ids that entered
    or left the list — an array lookup per changed id once the base
    column is warm — with an int-keyed reference count keeping the set
    exact when multiple FQDNs share a base domain.  Days with identical
    entry sets share one frozenset object.  The returned mapping is a
    read-only view of the shared cache.

    ``dates`` restricts the computation to a sorted subset of the
    archive's dates (deltas work between any two consecutive *processed*
    days, so the subset stays exact); days outside it are neither
    resolved nor reported.
    """
    psl = psl or _DEFAULT_PSL
    dates_key = None if dates is None else tuple(dates)
    key = ("base-domain-sets", top_n, dates_key, _psl_key(psl))
    cache = _archive_cache(archive)
    result = cache.get(key)
    if result is not None:
        return result
    _evict_superseded(cache, key)
    table = default_interner()
    base_id = table.base_column(psl).base_id
    boxed = table.boxed
    id_set = table.id_set
    result = {}
    counts: dict[int, int] = {}
    prev_raw: Optional[frozenset[int]] = None
    prev_frozen: frozenset[int] = frozenset()
    snapshots = archive if dates_key is None else (archive[d] for d in dates_key)
    for snapshot in snapshots:
        snap = snapshot.top(top_n) if top_n is not None else snapshot
        # A transient set, not the cached snap.id_set(): the delta needs
        # a two-day window, and caching would pin every day's full-size
        # set for the archive's lifetime.
        raw = id_set(snap.entry_ids())
        if prev_raw is None:
            for domain_id in snap.entry_ids():
                base = boxed[base_id(domain_id)]
                counts[base] = counts.get(base, 0) + 1
            frozen = frozenset(counts)
        else:
            removed = prev_raw - raw
            added = raw - prev_raw
            if removed or added:
                for domain_id in removed:
                    base = boxed[base_id(domain_id)]
                    remaining = counts[base] - 1
                    if remaining:
                        counts[base] = remaining
                    else:
                        del counts[base]
                for domain_id in added:
                    base = boxed[base_id(domain_id)]
                    counts[base] = counts.get(base, 0) + 1
                frozen = frozenset(counts)
            else:
                frozen = prev_frozen
        result[snap.date] = frozen
        prev_raw = raw
        prev_frozen = frozen
    view = MappingProxyType(result)
    cache[key] = view
    return view


def archive_id_sets(archive: ListArchive,
                    top_n: Optional[int] = None,
                    dates: Optional[Sequence[dt.date]] = None
                    ) -> Mapping[dt.date, frozenset[int]]:
    """Per-day raw (un-normalised) interned-id sets of an archive (cached).

    ``dates`` restricts the result to a subset of the archive's dates.
    """
    dates_key = None if dates is None else tuple(dates)
    key = ("id-sets", top_n, dates_key)
    cache = _archive_cache(archive)
    view = cache.get(key)
    if view is None:
        same_family = [k for k in cache if k[:2] == key[:2]]
        while len(same_family) >= _PSL_GENERATION_LIMIT:
            del cache[same_family.pop(0)]
        result = {}
        snapshots = archive if dates_key is None else (archive[d] for d in dates_key)
        for snapshot in snapshots:
            snap = snapshot.top(top_n) if top_n is not None else snapshot
            result[snap.date] = snap.id_set()
        view = MappingProxyType(result)
        cache[key] = view
    return view


def archive_sld_count_events(archive: ListArchive,
                             top_n: Optional[int] = None,
                             psl: Optional[PublicSuffixList] = None
                             ) -> tuple[tuple[dt.date, ...],
                                        Mapping[str, tuple[tuple[int, int], ...]]]:
    """Per-SLD-group membership counts as change events.

    Returns ``(dates, events)`` where ``events[group]`` is a sequence of
    ``(day_index, count)`` pairs: the group's member count becomes
    ``count`` on ``dates[day_index]`` and stays there until the next
    event.  Before a group's first event its count is zero.  Only ids
    that changed between consecutive days are resolved (via the
    id-keyed SLD memo).
    """
    psl = psl or _DEFAULT_PSL
    key = ("sld-count-events", top_n, _psl_key(psl))
    cache = _archive_cache(archive)
    hit = cache.get(key)
    if hit is not None:
        return hit
    _evict_superseded(cache, key)
    dates: list[dt.date] = []
    events: dict[str, list[tuple[int, int]]] = {}
    sld_of = _sld_of_id_memoised(psl)
    counts: Counter[str] = Counter()
    prev_raw: Optional[frozenset[int]] = None
    for index, snapshot in enumerate(archive):
        snap = snapshot.top(top_n) if top_n is not None else snapshot
        dates.append(snap.date)
        raw = snap.id_set()
        if prev_raw is None:
            for domain_id in snap.entry_ids():
                sld = sld_of(domain_id)
                if sld is not None:
                    counts[sld] += 1
            for group, count in counts.items():
                events[group] = [(0, count)]
        else:
            changed: set[str] = set()
            for domain_id in prev_raw - raw:
                sld = sld_of(domain_id)
                if sld is None:
                    continue
                remaining = counts[sld] - 1
                if remaining:
                    counts[sld] = remaining
                else:
                    del counts[sld]
                changed.add(sld)
            for domain_id in raw - prev_raw:
                sld = sld_of(domain_id)
                if sld is None:
                    continue
                counts[sld] += 1
                changed.add(sld)
            for group in changed:
                count = counts.get(group, 0)
                series = events.setdefault(group, [])
                last = series[-1][1] if series else 0
                if count != last:
                    series.append((index, count))
        prev_raw = raw
    result = (tuple(dates),
              MappingProxyType({group: tuple(series) for group, series in events.items()}))
    cache[key] = result
    return result


def counts_per_day(events: Sequence[tuple[int, int]], n_days: int) -> list[int]:
    """Expand a change-event series into one count per day index."""
    expanded = [0] * n_days
    for position, (start, count) in enumerate(events):
        end = events[position + 1][0] if position + 1 < len(events) else n_days
        for index in range(start, end):
            expanded[index] = count
    return expanded


def archive_rank_series_ids(archive: ListArchive,
                            top_n: Optional[int] = None
                            ) -> Mapping[int, tuple[tuple[dt.date, int], ...]]:
    """Per-domain-id ``(date, rank)`` observations in date order (cached).

    Built once per ``(archive, top_n)`` on the id columns and shared by
    every analysis that needs per-domain rank distributions (Table 4
    rank variation, the serving layer's history endpoint parity tests).
    """
    key = ("rank-series-ids", top_n)
    cache = _archive_cache(archive)
    view = cache.get(key)
    if view is None:
        result: dict[int, list[tuple[dt.date, int]]] = {}
        for snapshot in archive:
            snap = snapshot.top(top_n) if top_n is not None else snapshot
            date = snap.date
            for rank, domain_id in enumerate(snap.entry_ids(), start=1):
                observations = result.get(domain_id)
                if observations is None:
                    result[domain_id] = [(date, rank)]
                else:
                    observations.append((date, rank))
        view = MappingProxyType({domain_id: tuple(obs)
                                 for domain_id, obs in result.items()})
        cache[key] = view
    return view


def _freeze_rank_dict(ranks: dict[int, list[int]]) -> Mapping[int, tuple[int, ...]]:
    return MappingProxyType({key: tuple(values) for key, values in ranks.items()})


def archive_rank_partition_ids(archive: ListArchive,
                               top_n: Optional[int] = None,
                               weekend: Sequence[int] = (5, 6)
                               ) -> tuple[Mapping[int, tuple[int, ...]],
                                          Mapping[int, tuple[int, ...]]]:
    """Per-domain-id rank observations split into (weekday, weekend) groups.

    Cached per ``(archive, top_n, weekend)``; ranks are in date order.
    This is the substrate of the Figure-3a weekday/weekend KS analysis.
    """
    weekend_key = tuple(weekend)
    key = ("rank-partition-ids", top_n, weekend_key)
    cache = _archive_cache(archive)
    hit = cache.get(key)
    if hit is not None:
        return hit
    weekday_ranks: dict[int, list[int]] = defaultdict(list)
    weekend_ranks: dict[int, list[int]] = defaultdict(list)
    weekend_set = frozenset(weekend_key)
    for snapshot in archive:
        snap = snapshot.top(top_n) if top_n is not None else snapshot
        target = weekend_ranks if snap.date.weekday() in weekend_set else weekday_ranks
        for rank, domain_id in enumerate(snap.entry_ids(), start=1):
            target[domain_id].append(rank)
    result = (_freeze_rank_dict(weekday_ranks), _freeze_rank_dict(weekend_ranks))
    cache[key] = result
    return result


def archive_alternating_half_ranks_ids(archive: ListArchive,
                                       top_n: Optional[int] = None,
                                       weekend: Sequence[int] = (5, 6),
                                       use_weekends: bool = False
                                       ) -> tuple[Mapping[int, tuple[int, ...]],
                                                  Mapping[int, tuple[int, ...]]]:
    """Id-keyed rank observations of one day group, in alternating halves.

    The control comparison of Figure 3a: take only weekday (or only
    weekend) snapshots and assign them alternately to two halves.
    Cached per ``(archive, top_n, weekend, use_weekends)``.
    """
    weekend_key = tuple(weekend)
    key = ("half-ranks-ids", top_n, weekend_key, use_weekends)
    cache = _archive_cache(archive)
    hit = cache.get(key)
    if hit is not None:
        return hit
    weekend_set = frozenset(weekend_key)
    first_half: dict[int, list[int]] = defaultdict(list)
    second_half: dict[int, list[int]] = defaultdict(list)
    index = 0
    for snapshot in archive:
        if (snapshot.date.weekday() in weekend_set) != use_weekends:
            continue
        snap = snapshot.top(top_n) if top_n is not None else snapshot
        target = first_half if index % 2 == 0 else second_half
        index += 1
        for rank, domain_id in enumerate(snap.entry_ids(), start=1):
            target[domain_id].append(rank)
    result = (_freeze_rank_dict(first_half), _freeze_rank_dict(second_half))
    cache[key] = result
    return result
