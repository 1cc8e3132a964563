"""Intersection analysis between top lists (Section 5.2/5.3, Figure 1a, Table 3).

The paper normalises all lists to unique base domains before intersecting
(so Umbrella's FQDNs do not artificially depress the overlap), computes
pairwise and three-way intersections per day, and studies the domains
found in only one list ("disjunct" domains).

Since the columnar refactor the per-day set algebra runs in interned-id
space: each provider's per-day (base-)domain sets are ``frozenset[int]``
from the shared :mod:`repro.core.cache` delta engine, and only the
*counts* leave this module — no domain string is hashed, compared or
materialised on the Figure-1a hot path.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.cache import (
    archive_base_id_sets,
    archive_id_sets,
    snapshot_base_ids,
)
from repro.core.structure import normalise_to_base_domains
from repro.domain.psl import PublicSuffixList
from repro.providers.base import ListArchive, ListSnapshot


def _id_set(snapshot: ListSnapshot, normalise: bool,
            psl: Optional[PublicSuffixList]) -> frozenset[int]:
    if normalise:
        return snapshot_base_ids(snapshot, psl=psl)
    return snapshot.id_set()


def _matrix_from_sets(sets: Mapping[str, frozenset]) -> dict[tuple[str, ...], int]:
    result: dict[tuple[str, ...], int] = {}
    for name_a, name_b in combinations(sorted(sets), 2):
        result[(name_a, name_b)] = len(sets[name_a] & sets[name_b])
    if len(sets) >= 3:
        names = tuple(sorted(sets))
        # Intersect the frozensets directly, smallest first, so the
        # working set only ever shrinks and nothing is copied up front.
        ordered = sorted(sets.values(), key=len)
        common = ordered[0]
        for other in ordered[1:]:
            common = common & other
            if not common:
                break
        result[names] = len(common)
    return result


def intersection_matrix(snapshots: Mapping[str, ListSnapshot],
                        normalise: bool = True,
                        psl: Optional[PublicSuffixList] = None
                        ) -> dict[tuple[str, ...], int]:
    """All pairwise intersections plus the all-lists intersection.

    Keys are sorted tuples of provider names; the full-combination key
    contains every provider (only added when there are 3+ snapshots).
    """
    sets = {name: _id_set(snap, normalise, psl) for name, snap in snapshots.items()}
    return _matrix_from_sets(sets)


def intersection_over_time(archives: Mapping[str, ListArchive],
                           top_n: Optional[int] = None,
                           normalise: bool = True,
                           psl: Optional[PublicSuffixList] = None
                           ) -> dict[dt.date, dict[tuple[str, ...], int]]:
    """Per-day intersection matrix over the dates shared by all archives.

    This is Figure 1a: the daily intersection counts between the Top-1M
    (or, with ``top_n``, Top-1k) lists.  Each archive's per-day
    (base-)id sets come from the incremental per-archive cache, so only
    the ~1% of entries that change between days are re-resolved, and the
    per-day intersections are pure integer-set operations.
    """
    if not archives:
        return {}
    effective_top = top_n if top_n else None
    common_dates = sorted(set.intersection(*(set(a.dates()) for a in archives.values())))
    per_archive: dict[str, Mapping[dt.date, frozenset[int]]] = {}
    for name, archive in archives.items():
        # Only the shared dates are analysed (and resolved); an archive
        # whose dates all are shared uses the date-unrestricted cache entry.
        dates = None if len(common_dates) == len(archive) else common_dates
        if normalise:
            per_archive[name] = archive_base_id_sets(
                archive, top_n=effective_top, psl=psl, dates=dates)
        else:
            per_archive[name] = archive_id_sets(archive, top_n=effective_top, dates=dates)
    series: dict[dt.date, dict[tuple[str, ...], int]] = {}
    for date in common_dates:
        series[date] = _matrix_from_sets(
            {name: sets[date] for name, sets in per_archive.items()})
    return series


def aggregate_top(archive: ListArchive, top_n: int,
                  last_days: Optional[int] = None) -> set[str]:
    """Union of the Top-``top_n`` entries over the archive's (last) days.

    The paper aggregates the Top 1k lists over the last week of April 2018
    before computing disjunct domains (Section 5.3).
    """
    snapshots = archive.snapshots()
    if last_days is not None:
        snapshots = snapshots[-last_days:]
    aggregated: set[str] = set()
    for snapshot in snapshots:
        aggregated.update(snapshot.top(top_n).entries)
    return aggregated


def disjunct_domains(sets_by_list: Mapping[str, Iterable[str]],
                     normalise: bool = True,
                     psl: Optional[PublicSuffixList] = None) -> dict[str, set[str]]:
    """Domains found in exactly one of the given lists (Table 3 input).

    ``sets_by_list`` maps a provider name to its aggregated domain
    collection; the result maps each provider to the domains appearing in
    its collection and no other.
    """
    normalised: dict[str, set[str]] = {}
    for name, names in sets_by_list.items():
        if normalise:
            normalised[name] = set(normalise_to_base_domains(names, psl=psl))
        else:
            normalised[name] = set(names)
    # One global membership count replaces the O(k²) per-provider union of
    # "all others": a domain is disjunct iff exactly one list carries it.
    membership: Counter[str] = Counter()
    for domains in normalised.values():
        membership.update(domains)
    return {name: {domain for domain in domains if membership[domain] == 1}
            for name, domains in normalised.items()}


def jaccard_index(a: Sequence[str] | set[str], b: Sequence[str] | set[str]) -> float:
    """Jaccard similarity of two domain collections."""
    set_a, set_b = set(a), set(b)
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)
