"""Chunk-granularity regressions for the v3 store format.

The chunked record format earns its keep only if every boundary is
exact: a day whose size is one off a multiple of the chunk size must
split into the expected chunks and load back whole, and adopting a new
day must inflate only that day's chunks.  These tests pin that
behaviour with a tiny monkeypatched chunk size (so boundaries are cheap
to hit), pin the refusal of manifests this reader cannot serve, and
re-run the crash-truncation oracle with the cut landing *inside* a
record's final chunk payload.
"""

import datetime as dt
import json
import math
import struct
import zlib
from array import array
from pathlib import Path

import pytest

import repro.service.store as store_module
from repro.providers.base import ListSnapshot
from repro.service.api import QueryService
from repro.service.store import (_CHUNK_DIR, _HEADER, _MAGIC,
                                 _iter_shard_records, ArchiveStore,
                                 StoreError)

BASE = dt.date(2018, 5, 1)


def _snapshot(day: int, size: int, provider: str = "alexa") -> ListSnapshot:
    entries = tuple(f"chunk-d{day}-{i:05d}.example" for i in range(size))
    return ListSnapshot(provider=provider, date=BASE + dt.timedelta(days=day),
                        entries=entries)


def _shard_path(root: Path, provider: str = "alexa") -> Path:
    paths = sorted((root / "shards" / provider).glob("*.rls"))
    assert len(paths) == 1
    return paths[0]


def _record_chunk_counts(path: Path) -> list[int]:
    """Number of chunks per record in a shard file, in append order."""
    counts = []
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        magic, _, _, _, n_chunks = _HEADER.unpack_from(data, offset)
        assert magic == _MAGIC
        offset += _HEADER.size
        directory = [_CHUNK_DIR.unpack_from(data, offset + i * _CHUNK_DIR.size)
                     for i in range(n_chunks)]
        counts.append(n_chunks)
        offset += n_chunks * _CHUNK_DIR.size + sum(l for _, l in directory)
    return counts


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the chunk size so boundary cases cost a handful of entries."""
    monkeypatch.setattr(store_module, "CHUNK_ENTRIES", 4)
    return 4


class TestChunkBoundaries:
    SIZES = [1, 3, 4, 5, 8, 9, 13]

    def test_every_size_round_trips_with_expected_chunking(
            self, tmp_path, small_chunks):
        days = [_snapshot(day, size) for day, size in enumerate(self.SIZES)]
        with ArchiveStore(tmp_path / "store") as store:
            for snapshot in days:
                store.append(snapshot)
            for snapshot, size in zip(days, self.SIZES):
                loaded = store.load_snapshot("alexa", snapshot.date)
                assert loaded.entries == snapshot.entries
        counts = _record_chunk_counts(_shard_path(tmp_path / "store"))
        assert counts == [math.ceil(size / small_chunks) for size in self.SIZES]


class TestManifestRefusal:
    @pytest.mark.parametrize("via", ["open", "refresh"])
    @pytest.mark.parametrize("field, value, message", [
        ("format_version", 1, "unsupported store format 1"),
        ("format_version", 2, "unsupported store format 2"),
        ("log", None, "no mutation log"),
    ], ids=["format-1", "format-2", "no-log"])
    def test_unsupported_format_version_is_refused(self, tmp_path, field,
                                                   value, message, via):
        root = tmp_path / "store"
        with ArchiveStore(root) as store:
            store.append(_snapshot(0, 3))
            manifest_path = root / "manifest.json"
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if value is None:
                del manifest[field]
            else:
                manifest[field] = value
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            with pytest.raises(StoreError, match=message):
                if via == "open":
                    ArchiveStore(root)
                else:
                    store.refresh()


class TestCorruptChunkDirectories:
    """The record walker must reject malformed v3 framing loudly."""

    def _v3_record(self, ordinal: int, ids: array, chunk: int = 4) -> bytes:
        directory = bytearray()
        payload = bytearray()
        for start in range(0, len(ids), chunk):
            piece = ids[start:start + chunk]
            # Level 6, the level older stores were written at: readers
            # inflate any level.
            compressed = zlib.compress(
                struct.pack(f"<{len(piece)}I", *piece), 6)
            directory += _CHUNK_DIR.pack(len(piece), len(compressed))
            payload += compressed
        return _HEADER.pack(_MAGIC, ordinal, 1, len(ids),
                            len(directory) // _CHUNK_DIR.size) + \
            bytes(directory) + bytes(payload)

    def test_walker_round_trips_its_own_records(self):
        ids = array("I", range(10))
        record = self._v3_record(700000, ids)
        [(ordinal, _, chunks, end)] = list(
            _iter_shard_records(record, Path("mem"), limit=1))
        assert ordinal == 700000 and end == len(record)
        decoded = array("I")
        for _count, raw in chunks:
            decoded.frombytes(zlib.decompress(raw))
        assert decoded == ids

    def test_truncated_chunk_directory_is_loud(self):
        record = self._v3_record(700000, array("I", range(10)))
        cut = record[:_HEADER.size + _CHUNK_DIR.size]  # 3 chunks declared, 1 present
        with pytest.raises(StoreError, match="truncated chunk directory"):
            list(_iter_shard_records(cut, Path("mem"), limit=1))

    def test_directory_count_mismatch_is_loud(self):
        record = bytearray(self._v3_record(700000, array("I", range(10))))
        # Inflate the first chunk's declared entry count.
        count, length = _CHUNK_DIR.unpack_from(record, _HEADER.size)
        record[_HEADER.size:_HEADER.size + _CHUNK_DIR.size] = \
            _CHUNK_DIR.pack(count + 1, length)
        with pytest.raises(StoreError, match="disagree"):
            list(_iter_shard_records(bytes(record), Path("mem"), limit=1))

    def test_truncated_final_chunk_payload_is_loud(self):
        record = self._v3_record(700000, array("I", range(10)))
        with pytest.raises(StoreError, match="truncated record payload"):
            list(_iter_shard_records(record[:-1], Path("mem"), limit=1))


class TestCrashTruncatedFinalChunk:
    """PR-5 tail-truncation oracle, aimed at the chunked payload.

    An append that dies after writing part of its record leaves an
    orphaned tail the manifest never names.  Recovery on reopen must
    truncate it — wherever inside the chunk structure the cut landed —
    and leave the published days byte-exact and appendable.
    """

    def test_cut_inside_final_chunk_recovers(self, tmp_path, small_chunks):
        published = [_snapshot(day, size) for day, size in enumerate([5, 9])]
        crashed = _snapshot(2, 13)
        root = tmp_path / "store"
        with ArchiveStore(root) as store:
            for snapshot in published:
                store.append(snapshot)
        shard = _shard_path(root)
        durable = shard.stat().st_size

        # Build the crashed day's record out-of-band and cut it at every
        # structurally interesting depth: header-only, inside the chunk
        # directory, at each chunk boundary, and mid-final-chunk.
        sids = array("I", range(13))
        record = TestCorruptChunkDirectories()._v3_record(
            crashed.date.toordinal(), sids)
        boundaries = [4, _HEADER.size, _HEADER.size + _CHUNK_DIR.size + 1,
                      len(record) // 2, len(record) - 3]
        for cut in boundaries:
            with shard.open("r+b") as handle:
                handle.truncate(durable)
                handle.seek(durable)
                handle.write(record[:cut])
            # Reads are bounded by the manifest's record counts, so the
            # orphan bytes past them are invisible whatever they hold.
            with ArchiveStore(root) as store:
                assert store.dates("alexa") == [s.date for s in published]
                for snapshot in published:
                    assert store.load_snapshot(
                        "alexa", snapshot.date).entries == snapshot.entries

            # The next append supersedes the torn tail: the new record
            # lands at the durable offset, never after the garbage.
            with ArchiveStore(root) as store:
                store.append(crashed)
                assert store.load_snapshot(
                    "alexa", crashed.date).entries == crashed.entries
            assert _record_chunk_counts(shard) == [2, 3, 4]

            # Reset for the next cut position.
            with shard.open("r+b") as handle:
                handle.truncate(durable)
            manifest_path = root / "manifest.json"
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            entry = manifest["providers"]["alexa"]
            entry["dates"] = entry["dates"][:-1]
            entry["shards"] = {month: count - 1
                               for month, count in entry["shards"].items()}
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


class TestAdoptionInflatesOnlyNewDays:
    """A reader adopting one new day pays for that day, not the history."""

    @pytest.mark.parametrize("stored_days", [5, 20])
    def test_adopting_one_day_inflates_exactly_its_chunks(
            self, tmp_path, small_chunks, stored_days):
        root = tmp_path / "store"
        # Day 20 onwards: the 20-day history spans a month boundary, so
        # whole earlier months are skipped as well as earlier records.
        days = [_snapshot(20 + day, 10) for day in range(stored_days + 1)]
        writer = ArchiveStore(root)
        for snapshot in days[:-1]:
            writer.append(snapshot)
        reader_store = ArchiveStore(root, create=False, read_only=True)
        reader = QueryService(reader_store)
        assert reader.archive("alexa").dates() == [s.date for s in days[:-1]]

        writer.append(days[-1])
        before = reader_store.chunks_inflated
        assert reader.refresh_from_disk()
        assert reader_store.chunks_inflated - before == math.ceil(10 / small_chunks)
        adopted = reader.archive("alexa")
        assert adopted.dates() == [s.date for s in days]
        assert adopted[-1].entries == days[-1].entries
