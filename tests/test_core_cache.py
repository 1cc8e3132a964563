"""Tests for the incremental per-archive analysis caches.

Every cache function is a pure accelerator, so each test checks two
things: the result is identical to the naive per-day recomputation, and
the caching/invalidation behaviour (object identity on hits, staleness
on archive or PSL mutation) holds.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest

from repro.core.cache import (
    archive_base_id_sets,
    archive_id_sets,
    archive_rank_series_ids,
    archive_sld_count_events,
    counts_per_day,
    snapshot_base_ids,
)
from repro.core.structure import normalise_to_base_domains
from repro.domain.name import DomainName
from repro.domain.psl import PublicSuffixList
from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot

START = dt.date(2018, 4, 1)


def base_domain_sets(archive: ListArchive, **kwargs) -> dict:
    """Per-day base-domain *name* sets from the delta engine's id sets."""
    names = default_interner().domains
    return {date: frozenset(names(ids))
            for date, ids in archive_base_id_sets(archive, **kwargs).items()}


def _make_archive(provider: str = "alexa", days: int = 12, size: int = 120,
                  churn: int = 7, seed: int = 7) -> ListArchive:
    """Archive with ~`churn` entries changing per day, like real top lists."""
    rng = random.Random(seed)
    suffixes = ("com", "net", "org", "co.uk", "de", "blogspot.com", "unknowntld")
    pool = [f"d{i}.{rng.choice(suffixes)}" for i in range(size * 3)]
    pool += [f"www.d{i}.{rng.choice(suffixes)}" for i in range(size)]
    current = rng.sample(pool, size)
    archive = ListArchive(provider=provider)
    for day in range(days):
        for _ in range(churn):
            candidate = rng.choice(pool)
            if candidate not in current:
                current[rng.randrange(size)] = candidate
        rng.shuffle(current)
        archive.add(ListSnapshot(provider=provider,
                                 date=START + dt.timedelta(days=day),
                                 entries=tuple(current)))
    return archive


@pytest.fixture(scope="module")
def archive() -> ListArchive:
    return _make_archive()


def snapshot_base_names(snapshot: ListSnapshot, **kwargs) -> frozenset:
    """A snapshot's base-domain *name* set from its cached base-id set."""
    return frozenset(default_interner().domains(snapshot_base_ids(snapshot, **kwargs)))


class TestSnapshotBaseDomains:
    def test_matches_naive(self, archive):
        snapshot = archive[0]
        assert snapshot_base_names(snapshot) == frozenset(
            normalise_to_base_domains(snapshot.entries))

    def test_cached_identity(self, archive):
        snapshot = archive[0]
        assert snapshot_base_ids(snapshot) is snapshot_base_ids(snapshot)

    def test_psl_version_keyed(self):
        snapshot = ListSnapshot(provider="p", date=START,
                                entries=("a.faketld", "b.faketld"))
        psl = PublicSuffixList(["com"])
        before = snapshot_base_names(snapshot, psl=psl)
        assert before == frozenset({"a.faketld", "b.faketld"})
        psl.add_rule("faketld")
        after = snapshot_base_names(snapshot, psl=psl)
        assert after == frozenset({"a.faketld", "b.faketld"})
        # Same answer, recomputed under the new version key; the
        # superseded generation is evicted rather than retained.
        cache = snapshot.__dict__["_base_id_sets"]
        assert len(cache) == 1 and next(iter(cache)) == psl.cache_key


class TestArchiveBaseDomainSets:
    @pytest.mark.parametrize("top_n", [None, 40])
    def test_matches_naive_per_day(self, archive, top_n):
        sets = base_domain_sets(archive, top_n=top_n)
        assert sorted(sets) == archive.dates()
        for snapshot in archive:
            head = snapshot.top(top_n) if top_n else snapshot
            assert sets[snapshot.date] == frozenset(
                normalise_to_base_domains(head.entries)), snapshot.date
    def test_cached_identity(self, archive):
        assert archive_base_id_sets(archive) is archive_base_id_sets(archive)

    def test_identical_days_share_one_set(self):
        entries = ("a.com", "www.a.com", "b.net")
        archive = ListArchive(provider="p")
        for day in range(3):
            archive.add(ListSnapshot(provider="p", date=START + dt.timedelta(days=day),
                                     entries=entries))
        values = list(archive_base_id_sets(archive).values())
        assert values[0] is values[1] is values[2]
        assert set(default_interner().domains(values[0])) == {"a.com", "b.net"}

    @pytest.mark.parametrize("top_n", [None, 40])
    def test_caches_no_per_day_id_set(self, top_n):
        # The delta needs a two-day window of raw id sets; caching each
        # day's full set on its snapshot would pin all of them for the
        # archive's lifetime.
        fresh = _make_archive(seed=11)
        archive_base_id_sets(fresh, top_n=top_n)
        for snapshot in fresh:
            head = snapshot.top(top_n) if top_n else snapshot
            assert "_id_set" not in snapshot.__dict__, snapshot.date
            assert "_id_set" not in head.__dict__, snapshot.date

    def test_shared_base_refcounting(self):
        # Day 2 drops www.a.com but keeps a.com: the base must survive.
        archive = ListArchive(provider="p")
        archive.add(ListSnapshot(provider="p", date=START,
                                 entries=("www.a.com", "a.com", "b.net")))
        archive.add(ListSnapshot(provider="p", date=START + dt.timedelta(days=1),
                                 entries=("a.com", "b.net", "c.org")))
        archive.add(ListSnapshot(provider="p", date=START + dt.timedelta(days=2),
                                 entries=("b.net", "c.org")))
        sets = base_domain_sets(archive)
        assert sets[START] == frozenset({"a.com", "b.net"})
        assert sets[START + dt.timedelta(days=1)] == frozenset({"a.com", "b.net", "c.org"})
        assert sets[START + dt.timedelta(days=2)] == frozenset({"b.net", "c.org"})

    def test_returned_view_is_read_only(self, archive):
        sets = archive_base_id_sets(archive)
        with pytest.raises((TypeError, AttributeError)):
            sets.pop(next(iter(sets)))  # type: ignore[attr-defined]
        series = archive_rank_series_ids(archive)
        with pytest.raises((TypeError, AttributeError)):
            next(iter(series.values())).append((START, 1))  # type: ignore[attr-defined]

    def test_restricted_dates_match_full_run(self, archive):
        subset = archive.dates()[2:7]
        restricted = archive_base_id_sets(archive, dates=subset)
        full = archive_base_id_sets(archive)
        assert sorted(restricted) == subset
        for date in subset:
            assert restricted[date] == full[date]

    def test_restricted_dates_skip_other_days(self):
        # A malformed entry outside the requested dates must not be parsed.
        archive = ListArchive(provider="p")
        archive.add(ListSnapshot(provider="p", date=START, entries=("ok.com",)))
        archive.add(ListSnapshot(provider="p", date=START + dt.timedelta(days=1),
                                 entries=("bad..name",)))
        restricted = base_domain_sets(archive, dates=[START])
        assert restricted == {START: frozenset({"ok.com"})}

    def test_date_subset_entries_are_bounded(self, archive):
        dates = archive.dates()
        for window in range(8):
            archive_base_id_sets(archive, dates=dates[window:window + 3])
        keys = [k for k in archive.__dict__["_analysis_cache"]
                if k[:2] == ("base-domain-sets", None)]
        assert len(keys) <= 4, keys
        # The newest window is the one retained and still correct.
        latest = archive_base_id_sets(archive, dates=dates[7:10])
        assert sorted(latest) == dates[7:10]

    def test_copied_archive_mutation_does_not_stale_original(self, archive):
        import copy

        baseline = base_domain_sets(archive)
        clone = copy.copy(archive)
        extra = max(archive.dates()) + dt.timedelta(days=30)
        clone.add(ListSnapshot(provider=archive.provider, date=extra,
                               entries=("clone-only.com",)))
        assert extra not in archive
        assert base_domain_sets(archive) == baseline
        assert extra in archive_base_id_sets(clone)

    def test_invalidated_on_archive_mutation(self, archive):
        first = archive_base_id_sets(archive)
        extra_date = max(archive.dates()) + dt.timedelta(days=1)
        archive.add(ListSnapshot(provider=archive.provider, date=extra_date,
                                 entries=("brandnew.com",)))
        second = archive_base_id_sets(archive)
        assert second is not first
        assert extra_date in second


class TestArchiveDomainSets:
    def test_matches_snapshots(self, archive):
        sets = archive_id_sets(archive, top_n=25)
        names = default_interner().domains
        for snapshot in archive:
            assert frozenset(names(sets[snapshot.date])) == \
                frozenset(snapshot.entries[:25])


class TestSldCountEvents:
    def test_reconstruction_matches_naive(self, archive):
        dates, events = archive_sld_count_events(archive)
        assert list(dates) == archive.dates()
        for group, series in events.items():
            expanded = counts_per_day(series, len(dates))
            for index, snapshot in enumerate(archive):
                naive = sum(1 for name in snapshot.entries
                            if DomainName.parse(name).sld == group)
                assert expanded[index] == naive, (group, dates[index])

    def test_all_groups_covered(self, archive):
        _, events = archive_sld_count_events(archive)
        seen = {DomainName.parse(name).sld
                for snapshot in archive for name in snapshot.entries}
        seen.discard(None)
        assert set(events) == seen

    def test_cached_identity(self, archive):
        assert archive_sld_count_events(archive) is archive_sld_count_events(archive)


class TestRankSeries:
    def test_matches_naive(self, archive):
        series = archive_rank_series_ids(archive, top_n=30)
        for snapshot in archive:
            for rank, domain_id in enumerate(snapshot.entry_ids()[:30], start=1):
                assert (snapshot.date, rank) in series[domain_id]
        # Observations are in date order.
        for observations in series.values():
            assert [d for d, _ in observations] == sorted(d for d, _ in observations)

    def test_cached_identity(self, archive):
        assert archive_rank_series_ids(archive, top_n=30) is \
            archive_rank_series_ids(archive, top_n=30)


class TestLowChurnProfileInvalidation:
    """Invalidation at the paper's ~1% churn regime (``paper_realistic``).

    The delta engines do the least work exactly when consecutive days are
    nearly identical, so this is the regime in which a stale or
    under-invalidated cache would be most tempting — and hardest to spot.
    Each test mutates a (decoupled copy of the) scenario archive via
    ``archive.add`` or ``psl.add_rule`` and checks the cached results
    against a naive per-day recomputation.
    """

    @pytest.fixture(scope="class")
    def calm_archives(self):
        import copy

        from repro.providers.simulation import run_profile
        from repro.scenarios import get_profile

        run = run_profile(get_profile("paper_realistic"))
        # Copies decouple the mutable containers, so mutating them here
        # cannot stale the per-profile cached run other tests share.
        return {name: copy.copy(archive) for name, archive in run.archives.items()}

    @staticmethod
    def _churned_successor(archive: ListArchive, fraction: float = 0.01) -> ListSnapshot:
        """A next-day snapshot replacing ~``fraction`` of the last day."""
        last = archive[len(archive) - 1]
        entries = list(last.entries)
        n_churn = max(1, int(len(entries) * fraction))
        for i in range(n_churn):
            entries[-(i * 7 + 1)] = f"churned-in-{i}.example-churn.com"
        return ListSnapshot(provider=archive.provider,
                            date=last.date + dt.timedelta(days=1),
                            entries=tuple(entries))

    def test_profile_precondition_is_low_churn(self, calm_archives):
        from repro.core.stability import mean_daily_change

        fractions = [mean_daily_change(archive) / len(archive[0])
                     for archive in calm_archives.values()]
        assert 0.005 <= sum(fractions) / len(fractions) <= 0.02

    def test_add_invalidates_base_domain_sets(self, calm_archives):
        archive = calm_archives["alexa"]
        before = archive_base_id_sets(archive)
        extra = self._churned_successor(archive)
        archive.add(extra)
        assert archive_base_id_sets(archive) is not before
        after = base_domain_sets(archive)
        for snapshot in archive:
            assert after[snapshot.date] == frozenset(
                normalise_to_base_domains(snapshot.entries)), snapshot.date

    def test_add_invalidates_sld_count_events(self, calm_archives):
        from collections import Counter

        archive = calm_archives["majestic"]
        archive_sld_count_events(archive)
        archive.add(self._churned_successor(archive))
        dates, events = archive_sld_count_events(archive)
        assert list(dates) == archive.dates()
        naive_per_day = []
        for snapshot in archive:
            counts: Counter[str] = Counter()
            for name in snapshot.entries:
                sld = DomainName.parse(name).sld
                if sld is not None:
                    counts[sld] += 1
            naive_per_day.append(counts)
        assert set(events) == set().union(*(set(c) for c in naive_per_day))
        for group, series in events.items():
            expanded = counts_per_day(series, len(dates))
            for index in range(len(dates)):
                assert expanded[index] == naive_per_day[index].get(group, 0), (
                    group, dates[index])

    def test_add_rule_invalidates_normalisation(self, calm_archives):
        archive = calm_archives["umbrella"]
        psl = PublicSuffixList()
        before = archive_base_id_sets(archive, psl=psl)
        # Promote the base of a listed FQDN to a public suffix, which
        # shifts that entry's base domain one label to the left.
        target = next(name for snapshot in archive for name in snapshot.entries
                      if name.count(".") >= 2)
        new_suffix = target.split(".", 1)[1]
        psl.add_rule(new_suffix)
        assert archive_base_id_sets(archive, psl=psl) is not before
        after = base_domain_sets(archive, psl=psl)
        for snapshot in archive:
            assert after[snapshot.date] == frozenset(
                normalise_to_base_domains(snapshot.entries, psl=psl)), snapshot.date

    def test_add_rule_then_add_compose(self, calm_archives):
        archive = calm_archives["alexa"]
        psl = PublicSuffixList()
        archive_base_id_sets(archive, psl=psl)
        archive.add(self._churned_successor(archive, fraction=0.01))
        psl.add_rule("example-churn.com")
        after = base_domain_sets(archive, psl=psl)
        for snapshot in archive:
            assert after[snapshot.date] == frozenset(
                normalise_to_base_domains(snapshot.entries, psl=psl)), snapshot.date


class TestSnapshotTopSharing:
    def test_top_is_cached_and_identical(self, archive):
        snapshot = archive[0]
        assert snapshot.top(10) is snapshot.top(10)
        assert snapshot.top(10).entries == snapshot.entries[:10]

    def test_top_full_length_returns_self(self, archive):
        snapshot = archive[0]
        assert snapshot.top(len(snapshot)) is snapshot
        assert snapshot.top(10 * len(snapshot)) is snapshot

    def test_top_rank_delegation(self, archive):
        snapshot = archive[0]
        head = snapshot.top(10)
        for rank, domain in enumerate(snapshot.entries[:10], start=1):
            assert head.rank_of(domain) == rank
        beyond = snapshot.entries[10]
        assert head.rank_of(beyond) is None
        assert snapshot.rank_of(beyond) == 11
