"""Tests for the on-disk archive store (repro.service.store)."""

import datetime as dt

import pytest

from repro import interning
from repro.core.cache import archive_base_id_sets
from repro.core.structure import normalise_to_base_domains
from repro.domain.psl import default_list
from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot
from repro.scenarios.runner import ScenarioReport
from repro.service.store import ArchiveStore, StoreError


@pytest.fixture(scope="module")
def store_root(tmp_path_factory, small_run):
    root = tmp_path_factory.mktemp("store")
    ArchiveStore.from_archives(root, small_run.archives)
    return root


def _snapshot(provider, day, entries):
    return ListSnapshot(provider=provider,
                        date=dt.date(2018, 1, 1) + dt.timedelta(days=day),
                        entries=tuple(entries))


def _make_report(profile="unit_profile"):
    return ScenarioReport(
        profile=profile, description="unit fixture", config={"n_days": 2},
        top_k=10, providers={"alexa": {"days": 2}},
        intersection={"pairs": {}}, recommendations={})


class TestRoundTrip:
    def test_snapshots_survive_reload(self, store_root, small_run):
        store = ArchiveStore(store_root)
        for name, original in small_run.archives.items():
            loaded = store.load_archive(name)
            assert loaded.provider == name
            assert loaded.dates() == original.dates()
            for date in original.dates():
                assert loaded[date].entries == original[date].entries

    def test_manifest_inventory(self, store_root, small_run):
        store = ArchiveStore(store_root)
        assert store.providers() == tuple(sorted(small_run.archives))
        assert len(store) == sum(len(a) for a in small_run.archives.values())
        for name, original in small_run.archives.items():
            assert store.dates(name) == original.dates()

    def test_lazy_single_snapshot(self, store_root, small_run):
        store = ArchiveStore(store_root)
        original = small_run.archives["alexa"]
        date = original.dates()[5]
        assert store.load_snapshot("alexa", date).entries == original[date].entries
        with pytest.raises(KeyError):
            store.load_snapshot("alexa", dt.date(1999, 1, 1))

    def test_iter_snapshots_streams_in_order(self, store_root, small_run):
        store = ArchiveStore(store_root)
        original = small_run.archives["umbrella"]
        streamed = list(store.iter_snapshots("umbrella"))
        assert [s.date for s in streamed] == original.dates()
        assert [s.entries for s in streamed] == [s.entries for s in original]

    def test_unknown_provider(self, store_root):
        store = ArchiveStore(store_root)
        with pytest.raises(KeyError):
            store.load_archive("nosuch")
        assert store.dates("nosuch") == []


def _base_name_sets(archive: ListArchive) -> dict:
    names = default_interner().domains
    return {date: frozenset(names(ids))
            for date, ids in archive_base_id_sets(archive).items()}


def _naive_base_name_sets(archive: ListArchive) -> dict:
    return {snapshot.date: frozenset(normalise_to_base_domains(snapshot.entries))
            for snapshot in archive}


class TestWarmStart:
    """A reopened store starts with its base-id column seeded.

    Opening a store seeds the interner's base-id column from the stored
    bases when the PSL version matches, so the one delta engine answers
    a loaded archive's base sets by array lookups alone.  Loading itself
    installs no derived cache.
    """

    def test_loaded_archive_is_pre_seeded(self, tmp_path, monkeypatch):
        # Names no other test uses; a fresh interner then stands in for
        # a new reader process, where nothing is resolved yet.
        archive = ListArchive.from_snapshots([
            _snapshot("alexa", day, [f"{host}.s{i}.preseed-{day % 2}.example"
                                     for i in range(6) for host in ("www", "cdn")])
            for day in range(4)])
        ArchiveStore(tmp_path / "s").append_archive(archive)
        monkeypatch.setattr(interning, "_DEFAULT_INTERNER",
                            interning.DomainInterner())
        parsed = []
        base_of = interning.base_of

        def counting_base_of(name, psl):
            parsed.append(name)
            return base_of(name, psl)

        monkeypatch.setattr(interning, "base_of", counting_base_of)
        loaded = ArchiveStore(tmp_path / "s").load_archive("alexa")
        sets = _base_name_sets(loaded)
        assert parsed == []
        assert sets == _naive_base_name_sets(archive)

    def test_seeded_sets_match_recomputation(self, store_root, small_run):
        store = ArchiveStore(store_root)
        for name, original in small_run.archives.items():
            loaded = archive_base_id_sets(store.load_archive(name))
            fresh = archive_base_id_sets(original)
            assert dict(loaded) == dict(fresh), name

    def test_cold_load_has_no_seed(self, store_root):
        store = ArchiveStore(store_root)
        loaded = store.load_archive("alexa")
        assert "_analysis_cache" not in loaded.__dict__

    def test_base_sets_cache_no_per_day_id_set(self, store_root):
        loaded = ArchiveStore(store_root).load_archive("majestic")
        archive_base_id_sets(loaded)
        for snapshot in loaded:
            assert "_id_set" not in snapshot.__dict__, snapshot.date

    def test_psl_change_skips_seeding_but_not_data(self, tmp_path):
        # Stored bases are stamped with the PSL version at append time.
        # The rule added here changes the base of www.shop1, so a store
        # that seeded its stale bases would answer wrongly.
        original = ListArchive.from_snapshots([
            _snapshot("alexa", day, [f"www.shop{i}.psl-change.example"
                                     for i in range(day, day + 4)]
                      + ["shop0.psl-change.example"])
            for day in range(3)])
        store = ArchiveStore(tmp_path / "pslstore")
        store.append_archive(original)
        stale = _base_name_sets(original)
        default_list().add_rule("shop1.psl-change.example")
        reopened = ArchiveStore(tmp_path / "pslstore")
        loaded = reopened.load_archive("alexa")
        assert [s.entries for s in loaded] == [s.entries for s in original]
        fresh = _naive_base_name_sets(original)
        assert _base_name_sets(loaded) == fresh
        assert fresh != stale
        assert "www.shop1.psl-change.example" in fresh[original.dates()[0]]


class TestAppendRules:
    def test_append_only_per_provider(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 1, ["a.com", "b.com"]))
        with pytest.raises(StoreError, match="append-only"):
            store.append(_snapshot("alexa", 1, ["a.com"]))
        with pytest.raises(StoreError, match="append-only"):
            store.append(_snapshot("alexa", 0, ["a.com"]))
        store.append(_snapshot("alexa", 2, ["a.com", "c.com"]))
        store.append(_snapshot("majestic", 0, ["a.com"]))  # other provider free
        assert [d.day for d in store.dates("alexa")] == [2, 3]

    def test_version_bumps_on_every_append(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        assert store.version == 0
        store.append(_snapshot("alexa", 0, ["a.com"]))
        store.append(_snapshot("alexa", 1, ["b.com"]))
        assert store.version == 2

    def test_month_sharding(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        archive = ListArchive.from_snapshots(
            [_snapshot("alexa", day, [f"d{i}.com" for i in range(5)])
             for day in (29, 30, 31, 32)])  # spans Jan 30 .. Feb 2
        store.append_archive(archive)
        shards = sorted(p.name for p in (tmp_path / "s" / "shards" / "alexa").iterdir())
        assert shards == ["2018-01.rls", "2018-02.rls"]
        loaded = ArchiveStore(tmp_path / "s").load_archive("alexa")
        assert loaded.dates() == archive.dates()
        assert [s.entries for s in loaded] == [s.entries for s in archive]

    def test_string_table_shares_repeated_domains(self, tmp_path):
        # 50 near-identical days must cost ~one day plus deltas, not 50
        # full copies: the shared string table is the compactness claim.
        entries = [f"domain-{i:04d}.example.com" for i in range(200)]
        store = ArchiveStore(tmp_path / "s")
        for day in range(50):
            rotated = entries[day % 7:] + entries[:day % 7]
            store.append(_snapshot("alexa", day, rotated), sync=False)
        store.flush()
        shard_bytes = sum(p.stat().st_size
                          for p in (tmp_path / "s" / "shards" / "alexa").iterdir())
        one_day_text = sum(len(e) for e in entries)
        assert shard_bytes < one_day_text * 10

    def test_invalid_provider_name_rejected(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        for bad in ("../../tmp/evil", "a/b", "a\\b", ".hidden", ""):
            with pytest.raises((StoreError, ValueError)):
                store.append(_snapshot(bad, 0, ["a.com"]))
        assert store.providers() == ()

    def test_unflushed_append_is_discarded_on_reopen(self, tmp_path):
        # A crash between the shard write and the manifest flush must not
        # resurrect the orphan record: the manifest is the durable truth,
        # re-appending the "lost" day succeeds, and the base sets are
        # computed over exactly the published days.
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com", "b.com"]))
        store.append(_snapshot("alexa", 1, ["b.com", "c.com"]), sync=False)
        # no flush(): simulates the crash
        reopened = ArchiveStore(tmp_path / "s")
        assert [d.day for d in reopened.dates("alexa")] == [1]
        assert len(reopened.load_archive("alexa")) == 1
        reopened.append(_snapshot("alexa", 1, ["c.com", "d.com"]))
        final = ArchiveStore(tmp_path / "s").load_archive("alexa")
        assert [s.entries for s in final] == [("a.com", "b.com"), ("c.com", "d.com")]
        assert _base_name_sets(final) == _naive_base_name_sets(final) == {
            final.dates()[0]: frozenset({"a.com", "b.com"}),
            final.dates()[1]: frozenset({"c.com", "d.com"})}

    def test_report_save_bumps_only_store_version(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com"]))
        data_before = store.data_version
        store.save_report(_make_report("epoch_check"))
        assert store.data_version == data_before
        assert store.version > data_before

    def test_failed_manifest_write_rolls_back_the_tail(self, tmp_path, monkeypatch):
        # If the manifest write itself fails, the just-written shard/table
        # tail must be rolled back: appends always write at EOF, so an
        # orphan record buried under a later successful append would be
        # replayed in the newer record's place.
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com", "b.com"]))
        real_publish = ArchiveStore._publish_manifest

        def failing_publish(self, manifest):
            raise OSError("disk full")

        monkeypatch.setattr(ArchiveStore, "_publish_manifest", failing_publish)
        with pytest.raises(OSError):
            store.append(_snapshot("alexa", 1, ["b.com", "lost.example"]))
        monkeypatch.setattr(ArchiveStore, "_publish_manifest", real_publish)
        assert [d.day for d in store.dates("alexa")] == [1]
        # The next (different) day lands cleanly, in-process and on disk.
        store.append(_snapshot("alexa", 2, ["b.com", "c.com"]))
        for view in (store, ArchiveStore(tmp_path / "s")):
            loaded = view.load_archive("alexa")
            assert [s.entries for s in loaded] == \
                [("a.com", "b.com"), ("b.com", "c.com")]

    def test_post_publish_failure_keeps_the_record(self, tmp_path, monkeypatch):
        # If the failure lands AFTER the manifest rename (e.g. the root
        # directory fsync), the on-disk manifest already names the new
        # record: rolling the data back would brick the store, so the
        # append must instead keep the record and publish in memory.
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com"]))

        def failing_dir_fsync(directory):
            raise OSError("EIO on directory fd")

        monkeypatch.setattr(ArchiveStore, "_fsync_dir",
                            staticmethod(failing_dir_fsync))
        with pytest.raises(OSError):
            store.append(_snapshot("alexa", 1, ["a.com", "kept.example"]))
        monkeypatch.undo()
        assert [d.day for d in store.dates("alexa")] == [1, 2]
        for view in (store, ArchiveStore(tmp_path / "s")):
            loaded = view.load_archive("alexa")
            assert [s.entries for s in loaded] == \
                [("a.com",), ("a.com", "kept.example")]

    def test_failed_data_write_rolls_back_the_table(self, tmp_path, monkeypatch):
        # A failed shard write must also unwind the in-memory table
        # extension: otherwise the next append finds the new domains'
        # store ids in memory, never re-encodes their table records, and
        # publishes a manifest whose entry count outruns the table file.
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com", "b.com"]))
        real_append = ArchiveStore._append_file

        def failing_append(path, data, sync, point="store.file"):
            if path.suffix == ".rls":
                raise OSError("disk full")
            return real_append(path, data, sync, point)

        monkeypatch.setattr(ArchiveStore, "_append_file",
                            staticmethod(failing_append))
        with pytest.raises(OSError):
            store.append(_snapshot("alexa", 1, ["b.com", "lost.example"]))
        monkeypatch.setattr(ArchiveStore, "_append_file",
                            staticmethod(real_append))
        store.append(_snapshot("alexa", 1, ["b.com", "lost.example"]))
        for view in (store, ArchiveStore(tmp_path / "s")):
            loaded = view.load_archive("alexa")
            assert [s.entries for s in loaded] == \
                [("a.com", "b.com"), ("b.com", "lost.example")]

    def test_unresolvable_name_mid_append_rolls_back_table(self, tmp_path):
        # ListSnapshot tolerates malformed names (analyses skip them),
        # but the store cannot normalise their base domains: the append
        # fails mid-table-encoding, and the entries appended before the
        # bad one must be unwound or a later clean append would publish
        # a manifest counting table records never written to disk.
        from repro.domain.name import InvalidDomainError

        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com"]))
        bad = _snapshot("alexa", 1, ["new-one.com", "bad..label", "new-two.com"])
        with pytest.raises(InvalidDomainError):
            store.append(bad)
        assert [d.day for d in store.dates("alexa")] == [1]
        store.append(_snapshot("alexa", 1, ["new-one.com", "a.com"]))
        for view in (store, ArchiveStore(tmp_path / "s")):
            loaded = view.load_archive("alexa")
            assert [s.entries for s in loaded] == \
                [("a.com",), ("new-one.com", "a.com")]

    def test_reopen_and_continue_appending(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        store.append(_snapshot("alexa", 0, ["a.com", "b.com"]))
        reopened = ArchiveStore(tmp_path / "s")
        reopened.append(_snapshot("alexa", 1, ["b.com", "c.com"]))
        loaded = ArchiveStore(tmp_path / "s").load_archive("alexa")
        assert [s.entries for s in loaded] == [("a.com", "b.com"), ("b.com", "c.com")]


class TestReports:
    def test_report_roundtrip(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        report = _make_report()
        store.save_report(report)
        assert store.report_names() == ("unit_profile",)
        assert store.load_report_bytes("unit_profile") == report.to_bytes()

    def test_unknown_report(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        with pytest.raises(KeyError):
            store.load_report_bytes("nosuch")

    def test_path_traversal_rejected(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        with pytest.raises(StoreError):
            store.load_report_bytes("../../etc/passwd")

    def test_save_bumps_version(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        before = store.version
        store.save_report(_make_report())
        assert store.version == before + 1
