"""Property-based parity tests for :class:`repro.service.index.DomainIndex`.

The index's whole contract is "same answers as a brute-force scan over the
archive's snapshots, without the scan".  For arbitrary small archives this
asserts exactly that — for rank history (windowed and full), longevity
and days-in-top-k — and that the answers
survive an :class:`~repro.service.store.ArchiveStore` round trip and any
split of an archive's days across ``add()`` calls, down to identical
per-domain postings; the segment tests pin the layout's own rules
(bounded segment count, published columns never written).
"""

from __future__ import annotations

import datetime as dt
import gc
import math
import pathlib
import random
import tempfile
import time
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import extend_base_id_sets
from repro.providers.base import ListArchive, ListSnapshot
from repro.service.index import DomainIndex
from repro.service.store import ArchiveStore

# --------------------------------------------------------------------------
# Strategies: a pool of FQDNs (several per base domain), archives as
# per-day subsets.
# --------------------------------------------------------------------------

_POOL = tuple(
    f"{host}.d{i}.{tld}" if host else f"d{i}.{tld}"
    for i in range(8)
    for tld in ("com", "co.uk")
    for host in ("", "www", "mail")
)

_day_entries = st.lists(st.sampled_from(_POOL), min_size=1, max_size=18,
                        unique=True)
_archive_days = st.lists(_day_entries, min_size=2, max_size=7)


def _build_archive(days: list[list[str]], provider: str = "prop") -> ListArchive:
    start = dt.date(2018, 1, 28)  # spans a month boundary for the store
    return ListArchive.from_snapshots(
        [ListSnapshot(provider=provider, date=start + dt.timedelta(days=i),
                      entries=tuple(entries))
         for i, entries in enumerate(days)])


# --------------------------------------------------------------------------
# Brute-force oracles (the archive scan the index is meant to replace)
# --------------------------------------------------------------------------

def _scan_history(archive: ListArchive, domain: str,
                  start: Optional[dt.date] = None,
                  end: Optional[dt.date] = None) -> list[tuple[dt.date, int]]:
    observations = []
    for snapshot in archive:
        if start is not None and snapshot.date < start:
            continue
        if end is not None and snapshot.date > end:
            continue
        if domain in snapshot.domain_set():
            observations.append(
                (snapshot.date, snapshot.entries.index(domain) + 1))
    return observations


def _assert_parity(index: DomainIndex, archive: ListArchive,
                   provider: str = "prop") -> None:
    dates = archive.dates()
    window = (dates[len(dates) // 3], dates[2 * len(dates) // 3])
    for domain in _POOL + ("never-listed.example",):
        expected = _scan_history(archive, domain)
        assert index.history(domain, provider) == expected, domain
        assert (index.history(domain, provider, start=window[0], end=window[1])
                == _scan_history(archive, domain, *window)), domain
        longevity = index.longevity(domain, provider)
        assert longevity.days_listed == len(expected)
        assert longevity.first_seen == (expected[0][0] if expected else None)
        assert longevity.last_seen == (expected[-1][0] if expected else None)
        for k in (1, 3, 10):
            assert (index.days_in_top_k(domain, provider, k)
                    == sum(1 for _, rank in expected if rank <= k)), (domain, k)


def _index_of(*archives: ListArchive) -> DomainIndex:
    index = DomainIndex()
    for archive in archives:
        index.add(archive)
    return index


def _index_in_batches(archive: ListArchive, cuts) -> DomainIndex:
    """Index ``archive`` as it grows, with one ``add`` per batch of days.

    ``cuts`` are the sorted day counts after which a batch ends (the
    last batch ends with the archive).  The growing archive takes each
    day through :func:`extend_base_id_sets`, as the query service's
    adoption step does.
    """
    index = DomainIndex()
    growing = ListArchive(provider=archive.provider)
    snapshots = archive.snapshots()
    for lo, hi in zip([0, *cuts], [*cuts, len(snapshots)]):
        for snapshot in snapshots[lo:hi]:
            extend_base_id_sets(growing, snapshot)
        index.add(growing)
    return index


class TestIndexParity:
    @given(_archive_days)
    @settings(max_examples=30, deadline=None)
    def test_from_archive_matches_scan(self, days):
        archive = _build_archive(days)
        _assert_parity(_index_of(archive), archive)

    @given(_archive_days)
    @settings(max_examples=30, deadline=None)
    def test_incremental_add_matches_scan(self, days):
        # Add the archive after every new day — each add indexes just
        # that day — and it must answer like one whole-archive add.
        archive = _build_archive(days)
        growing = ListArchive(provider="prop")
        index = DomainIndex()
        for upto, snapshot in enumerate(archive, start=1):
            growing.add(snapshot)
            index.add(growing)
            if upto in (1, len(archive)):
                _assert_parity(index, growing)

    @given(_archive_days)
    @settings(max_examples=15, deadline=None)
    def test_store_round_trip_matches_scan(self, days):
        archive = _build_archive(days)
        with tempfile.TemporaryDirectory() as tmp:
            store = ArchiveStore(pathlib.Path(tmp) / "s")
            store.append_archive(archive)
            reopened = ArchiveStore(pathlib.Path(tmp) / "s")
            index = _index_of(reopened.load_archive("prop"))
        _assert_parity(index, archive)


def _provider_state(index: DomainIndex, provider: str = "prop"):
    """The indexed days and every pool domain's ``(ordinal, rank)`` list.

    Read through the public queries only, so two indexes agree however
    their days are split into segments.
    """
    if provider not in index.providers():
        return None
    return index.dates(provider), {
        domain: [(date.toordinal(), rank)
                 for date, rank in index.history(domain, provider)]
        for domain in _POOL}


def _assert_same_index(got: DomainIndex, want: DomainIndex) -> None:
    """The indexed days, the domain count and every domain's postings agree."""
    assert _provider_state(got) == _provider_state(want)
    assert got.domain_count("prop") == want.domain_count("prop")


class TestBulkBuildParity:
    """The bulk build (a provider with no indexed days) against per-day adds."""

    @given(_archive_days)
    @settings(max_examples=30, deadline=None)
    def test_bulk_build_equals_per_snapshot_add(self, days):
        archive = _build_archive(days)
        _assert_same_index(_index_of(archive),
                           _index_in_batches(archive, range(1, len(days))))

    @given(_archive_days)
    @settings(max_examples=20, deadline=None)
    def test_provider_with_days_falls_back_to_add(self, days):
        # Once the provider has an indexed day, ``add`` builds the rest
        # of the archive as a tail segment.
        archive = _build_archive(days)
        index = _index_in_batches(archive, [1])
        _assert_same_index(index, _index_in_batches(archive, range(1, len(days))))


class TestOneAddEntryPoint:
    """One ``add`` of a whole archive against any split of its days."""

    @given(_archive_days, st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_add_equals_any_batch_split(self, days, data):
        archive = _build_archive(days)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(days) - 1)),
                                label="cuts"))
        _assert_same_index(_index_in_batches(archive, cuts), _index_of(archive))

    def test_empty_archive(self):
        index = _index_of(ListArchive(provider="prop"))
        assert index.providers() == ()
        assert _provider_state(index) is None

    def test_one_day_archive(self):
        archive = _build_archive([["www.d0.com", "d1.co.uk", "d0.com"]])
        index = _index_of(archive)
        _assert_same_index(index, _index_in_batches(archive, []))
        assert index.history("d0.com", "prop") == [(archive.dates()[0], 3)]


def _segments(index: DomainIndex, provider: str = "prop"):
    return index._providers[provider].segments


def _log_bound(days: int) -> int:
    return math.floor(math.log2(days)) + 1


def _random_days(count: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [rng.sample(_POOL, rng.randint(1, 18)) for _ in range(count)]


class TestSegments:
    """The columnar layout's own rules: few segments, never rewritten."""

    def test_forty_one_day_adds_keep_log_segments(self):
        archive = _build_archive(_random_days(40, seed=40))
        growing = ListArchive(provider="prop")
        index = DomainIndex()
        for upto, snapshot in enumerate(archive, start=1):
            growing.add(snapshot)
            index.add(growing)
            assert len(_segments(index)) <= _log_bound(upto), upto
        _assert_parity(index, archive)

    def test_shrinking_batches_keep_log_segments(self):
        # Adds of 5, 4, 3, 2 and 1 days: comparing each segment only with
        # the one after it would keep five segments over 15 days.
        archive = _build_archive(_random_days(15, seed=15))
        cuts = [5, 9, 12, 14]
        index = _index_in_batches(archive, cuts)
        assert len(_segments(index)) <= _log_bound(15)
        _assert_parity(index, archive)

    @given(_archive_days, st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_split_keeps_log_segments(self, days, data):
        archive = _build_archive(days)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(days) - 1)),
                                label="cuts"))
        index = _index_in_batches(archive, cuts)
        assert len(_segments(index)) <= _log_bound(len(days))

    def test_later_add_never_writes_a_published_column(self):
        archive = _build_archive(_random_days(40, seed=41))
        growing = ListArchive(provider="prop")
        index = DomainIndex()
        published = {}  # id(column) -> (column, its bytes when published)
        for snapshot in archive:
            growing.add(snapshot)
            index.add(growing)
            for segment in _segments(index):
                for column in segment[1:]:
                    published.setdefault(id(column),
                                         (column, column.tobytes()))
        assert len(published) > 4 * len(_segments(index))
        for column, saved in published.values():
            assert column.tobytes() == saved

    @given(_archive_days, st.data())
    @settings(max_examples=30, deadline=None)
    def test_domain_count_counts_a_domain_once(self, days, data):
        # A domain listed on days in different segments is one domain.
        archive = _build_archive(days)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(days) - 1)),
                                label="cuts"))
        split = _index_in_batches(archive, cuts)
        assert (split.domain_count("prop") == _index_of(archive).domain_count("prop")
                == len(set().union(*days)))


class TestIndexRules:
    def test_out_of_order_add_rejected(self):
        days = _build_archive([["d0.com"], ["d1.com"], ["d2.com"]]).snapshots()
        cases = [
            ([1], [0, 1]),        # an earlier day appeared before the tail
            ([0, 2], [0, 1, 2]),  # a day was inserted inside the history
            ([0, 1], [0]),        # the archive lost an indexed day
            ([0, 1], [1, 2]),     # the archive's history starts later
        ]
        for indexed, offered in cases:
            index = _index_of(ListArchive.from_snapshots(
                [days[i] for i in indexed]))
            before = _provider_state(index)
            with pytest.raises(ValueError, match="append-only"):
                index.add(ListArchive.from_snapshots(
                    [days[i] for i in offered]))
            assert _provider_state(index) == before, (indexed, offered)

    def test_unknown_provider_raises(self):
        index = _index_of(_build_archive([["d0.com"]]))
        with pytest.raises(KeyError):
            index.history("d0.com", "nosuch")
        with pytest.raises(ValueError):
            index.days_in_top_k("d0.com", "prop", 0)

    def test_multi_provider_isolation(self):
        a = _build_archive([["d0.com", "d1.com"]], provider="alexa")
        b = _build_archive([["d1.com", "d0.com"]], provider="majestic")
        index = _index_of(a, b)
        assert index.providers() == ("alexa", "majestic")
        assert index.history("d0.com", "alexa")[0][1] == 1
        assert index.history("d0.com", "majestic")[0][1] == 2
        assert index.domain_count("alexa") == 2


@pytest.mark.scale
def test_indexed_history_beats_archive_scan_tenfold(bench_run):
    """The index must answer history ≥ 10× faster than scanning the archive."""
    alexa = bench_run.archives["alexa"]
    index = _index_of(*bench_run.archives.values())
    # Every 40th name of the first day plus the last day's tail: present
    # throughout, dropped early, and late arrivals.
    probes = list(dict.fromkeys(list(alexa[0].entries[::40])
                                + list(alexa[len(alexa) - 1].entries[-20:])))

    def timed(fn):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    scanned, scan_s = timed(lambda: [_scan_history(alexa, d) for d in probes])
    # One indexed pass takes microseconds; repeat it for a stable timing.
    rounds = 50
    looked_up, lookup_s = timed(lambda: [[index.history(d, "alexa") for d in probes]
                                         for _ in range(rounds)])
    assert looked_up[0] == scanned
    speedup = scan_s / (lookup_s / rounds)
    assert speedup >= 10, f"indexed history only {speedup:.1f}x over the scan"
