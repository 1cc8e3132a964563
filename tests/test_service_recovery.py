"""Crash-recovery property tests for the archive store.

The store's durability contract: the manifest is published *after* the
table/shard tails it names are on disk, so a crash at any byte of an
in-flight append leaves (at worst) orphaned tail bytes past the last
published manifest.  Reopening must recover to exactly the published
version — whatever garbage the tail holds — with the id lane and the
string lane still in parity, and re-appending the lost day must
succeed.

Hypothesis drives the crash point: it picks the archive contents, then
truncates ``interner.tbl`` and the active shard at arbitrary byte
offsets inside the un-published tail (including offsets that cut a
record or a table entry in half), and drops a half-written
``manifest.json.tmp`` on top.
"""

import datetime as dt
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.cache import archive_base_id_sets
from repro.faults import FaultPlan, FaultRule
from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot
from repro.service.store import (ArchiveStore, StoreError,
                                 _iter_shard_records, _shard_view)

BASE_DATE = dt.date(2018, 3, 1)
POOL = tuple(f"pool-{i:02d}.example.com" for i in range(24)) + (
    "deep.sub.pool-00.example.com", "other.example.org",
    "host.co.uk", "second.host.co.uk")

_day_strategy = st.lists(st.sampled_from(POOL), unique=True,
                         min_size=2, max_size=10)


def _snapshot(day: int, entries) -> ListSnapshot:
    return ListSnapshot(provider="alexa",
                        date=BASE_DATE + dt.timedelta(days=day),
                        entries=tuple(entries))


def _assert_matches(store: ArchiveStore, expected: list[ListSnapshot]) -> None:
    """Dates, string lane, id lane and base sets all match."""
    assert store.dates("alexa") == [s.date for s in expected]
    loaded = store.load_archive("alexa")
    interner = default_interner()
    for got, want in zip(loaded, expected):
        # String lane and id lane answer identically (parity intact).
        assert got.entries == want.entries
        assert interner.domains(got.entry_ids()) == want.entries
        assert got.id_set() == want.id_set()
    # The loaded archive's base sets equal a from-scratch computation.
    fresh = ListArchive.from_snapshots(
        [ListSnapshot("alexa", s.date, s.entries) for s in expected])
    assert dict(archive_base_id_sets(loaded)) == \
        dict(archive_base_id_sets(fresh))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_truncated_append_tail_recovers_to_published_version(data):
    n_days = data.draw(st.integers(min_value=1, max_value=4), label="days")
    published = [
        _snapshot(day, data.draw(_day_strategy, label=f"day{day}"))
        for day in range(n_days)]
    # The crashed day always carries table growth, so the un-published
    # tail spans both files.
    crash_entries = tuple(data.draw(_day_strategy, label="crash")) + (
        f"crash-only-{n_days}.example.net",)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = ArchiveStore(root)
        for snapshot in published:
            store.append(snapshot)
        table_path = root / "interner.tbl"
        shard_dir = root / "shards" / "alexa"
        durable_sizes = {
            path: path.stat().st_size
            for path in [table_path, *shard_dir.iterdir()]
            if path.exists()}

        # The append that "crashes": data written, manifest never flushed.
        store.append(_snapshot(n_days, crash_entries), sync=False)

        # The crash truncates each grown file somewhere inside its
        # un-published tail — possibly mid-record.
        for path, durable in sorted(durable_sizes.items()):
            full = path.stat().st_size
            if full > durable:
                cut = data.draw(st.integers(min_value=durable, max_value=full),
                                label=f"cut:{path.name}")
                with path.open("r+b") as handle:
                    handle.truncate(cut)
        # A half-written manifest tmp from the interrupted publish.
        (root / "manifest.json.tmp").write_bytes(b'{"format_version": 2, "sto')

        reopened = ArchiveStore(root, create=False)
        _assert_matches(reopened, published)
        assert not (root / "manifest.json.tmp").exists()

        # The lost day is re-appendable (not a silent duplicate), and the
        # store is fully intact afterwards — including across one more
        # reopen, proving the truncated tails were cleanly superseded.
        reopened.append(_snapshot(n_days, crash_entries))
        final = published + [_snapshot(n_days, crash_entries)]
        _assert_matches(reopened, final)
        _assert_matches(ArchiveStore(root, create=False), final)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fully_lost_tail_files_still_open(data):
    """Truncating the whole tail (crash before any byte landed) recovers."""
    entries = data.draw(_day_strategy)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = ArchiveStore(root)
        store.append(_snapshot(0, entries))
        sizes = {path: path.stat().st_size
                 for path in [root / "interner.tbl",
                              *(root / "shards" / "alexa").iterdir()]}
        store.append(_snapshot(1, tuple(entries) + ("tail-loss.example",)),
                     sync=False)
        for path, durable in sizes.items():
            with path.open("r+b") as handle:
                handle.truncate(durable)
        _assert_matches(ArchiveStore(root, create=False), [_snapshot(0, entries)])


def test_truncation_inside_published_data_is_loud(tmp_path):
    """Corruption of *published* bytes must raise, never silently heal."""
    store = ArchiveStore(tmp_path / "s")
    store.append(_snapshot(0, POOL[:6]))
    table_path = tmp_path / "s" / "interner.tbl"
    with table_path.open("r+b") as handle:
        handle.truncate(table_path.stat().st_size - 1)
    try:
        ArchiveStore(tmp_path / "s", create=False).load_archive("alexa")
    except StoreError as error:
        assert "truncated" in str(error)
    else:  # pragma: no cover - the assertion documents the contract
        raise AssertionError("published-data truncation went unnoticed")


def _decoded_store(root: Path) -> tuple[bytes, list]:
    """``interner.tbl`` bytes and every record's decoded store-id column."""
    records = []
    for shard in sorted((root / "shards").rglob("*.rls")):
        for ordinal, _, chunks, _ in _iter_shard_records(
                _shard_view(shard), shard, limit=1 << 30):
            records.append((shard.name, ordinal, b"".join(
                zlib.decompress(raw) for _, raw in chunks)))
    return (root / "interner.tbl").read_bytes(), records


def test_failed_append_rolls_back_the_lookup_table(tmp_path):
    """A failed append that added table entries leaves no stale store id.

    The shard write fails after the append has grown the in-memory table
    (and its process-id lookup table) with the day's new names.  The
    retry must re-assign and re-encode those names, so the store decodes
    exactly like one that never saw the failure.
    """
    days = [
        _snapshot(0, POOL[:8]),
        _snapshot(1, POOL[6:12] + ("rollback-a.example.net",
                                   "www.rollback-b.example.net")),
        _snapshot(2, ("rollback-c.example.net",) + POOL[10:16]),
    ]
    clean_root = tmp_path / "clean"
    with ArchiveStore(clean_root) as clean:
        for snapshot in days:
            clean.append(snapshot)

    root = tmp_path / "faulty"
    store = ArchiveStore(root)
    store.append(days[0])
    table_before = (root / "interner.tbl").read_bytes()
    plan = FaultPlan(seed=0, rules=[
        FaultRule("store.shard.write", "error", on_calls=(1,))])
    with faults.injected(plan):
        try:
            store.append(days[1])
        except faults.InjectedFault:
            pass
        else:
            raise AssertionError("the shard write fault did not fire")
    assert plan.fired == [("store.shard.write", 1, "error")]
    assert (root / "interner.tbl").read_bytes() == table_before
    assert store.dates("alexa") == [days[0].date]

    store.append(days[1])
    store.append(days[2])
    for snapshot in days:
        assert store.load_snapshot(
            "alexa", snapshot.date).entries == snapshot.entries
    store.close()
    assert _decoded_store(root) == _decoded_store(clean_root)
    _assert_matches(ArchiveStore(root), days)
