"""Stability analysis of top lists over time (Section 6.1, Figures 1b, 2a-c).

All functions operate on a :class:`~repro.providers.base.ListArchive`
(daily snapshots) and optionally on the Top-``n`` head of each snapshot.
The counting runs on the snapshots' interned-id sets (the columnar fast
lane): set differences, unions and membership counts are integer-set
operations, and domain strings only appear where a result is keyed by
domain (:func:`days_in_list`).  Every count is identical to the same
operation on the string sets, because ids and strings are bijective.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from typing import Optional, Sequence

from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot
from repro.stats.distributions import empirical_cdf_points
from repro.stats.summary import median


def _snapshots(archive: ListArchive, top_n: Optional[int]) -> list[ListSnapshot]:
    snapshots = archive.snapshots()
    if top_n is not None:
        snapshots = [s.top(top_n) for s in snapshots]
    return snapshots


def daily_changes(archive: ListArchive, top_n: Optional[int] = None) -> dict[dt.date, int]:
    """Number of domains present on day *n* but gone on day *n+1* (Figure 1b).

    The count is keyed by the date of day *n+1* (the day the change became
    visible in the downloaded list).
    """
    snapshots = _snapshots(archive, top_n)
    changes: dict[dt.date, int] = {}
    for previous, current in zip(snapshots, snapshots[1:]):
        removed = previous.id_set() - current.id_set()
        changes[current.date] = len(removed)
    return changes


def mean_daily_change(archive: ListArchive, top_n: Optional[int] = None) -> float:
    """Average number of daily changing domains (µ∆ of Table 2)."""
    changes = daily_changes(archive, top_n)
    if not changes:
        return 0.0
    return sum(changes.values()) / len(changes)


def new_domains_per_day(archive: ListArchive, top_n: Optional[int] = None
                        ) -> dict[dt.date, int]:
    """Domains entering the list for the first time each day (µNEW).

    A domain counts as *new* on a day when it appears in the snapshot and
    has not been part of any earlier snapshot of the archive.
    """
    snapshots = _snapshots(archive, top_n)
    seen: set[int] = set()
    new_counts: dict[dt.date, int] = {}
    for index, snapshot in enumerate(snapshots):
        current = snapshot.id_set()
        if index == 0:
            seen |= current
            continue
        fresh = current - seen
        new_counts[snapshot.date] = len(fresh)
        seen |= current
    return new_counts


def cumulative_unique_domains(archive: ListArchive, top_n: Optional[int] = None
                              ) -> dict[dt.date, int]:
    """Cumulative count of all domains ever seen in the list (Figure 2a)."""
    snapshots = _snapshots(archive, top_n)
    seen: set[int] = set()
    cumulative: dict[dt.date, int] = {}
    for snapshot in snapshots:
        seen |= snapshot.id_set()
        cumulative[snapshot.date] = len(seen)
    return cumulative


def intersection_with_reference(archive: ListArchive,
                                reference_days: Sequence[int] = range(7),
                                top_n: Optional[int] = None
                                ) -> dict[int, float]:
    """Median intersection with a fixed starting day, per day offset (Figure 2b).

    For each starting day in ``reference_days`` the intersection between
    the starting snapshot and each later snapshot is computed; the result
    maps the day offset to the *median* intersection count across starting
    days, exactly as the paper plots it.
    """
    snapshots = _snapshots(archive, top_n)
    if not snapshots:
        return {}
    per_offset: dict[int, list[int]] = {}
    for start in reference_days:
        if start >= len(snapshots):
            continue
        reference = snapshots[start].id_set()
        for offset, snapshot in enumerate(snapshots[start:]):
            per_offset.setdefault(offset, []).append(
                len(reference & snapshot.id_set()))
    return {offset: median(values) for offset, values in sorted(per_offset.items())}


def days_in_list(archive: ListArchive, top_n: Optional[int] = None) -> dict[str, int]:
    """Number of days each domain appears in the list (Figure 2c input)."""
    snapshots = _snapshots(archive, top_n)
    counts: Counter[int] = Counter()
    for snapshot in snapshots:
        counts.update(snapshot.id_set())
    name_of = default_interner().domain
    return {name_of(domain_id): count for domain_id, count in counts.items()}


def days_in_list_cdf(archive: ListArchive, top_n: Optional[int] = None
                     ) -> list[tuple[float, float]]:
    """CDF of the share of observation days a domain spends in the list.

    Returns (share of days, cumulative probability) points; lines closer
    to the lower-right corner indicate a more stable list (Figure 2c).
    """
    total_days = len(_snapshots(archive, top_n))
    counts = days_in_list(archive, top_n)
    if not counts:
        return []
    return empirical_cdf_points([count / total_days for count in counts.values()])
