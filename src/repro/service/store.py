"""Append-only on-disk archive store sharing the process interner.

The analyses so far rebuilt every :class:`~repro.providers.base.ListArchive`
from CSV (or a fresh simulation) per process, then PSL-parsed every
entry again before the first query could be answered.  The store makes
the lists and their base domains persistent — and its on-disk id
space *is* the shared :class:`~repro.interning.DomainInterner`'s, not a
private per-shard string table:

* **One persisted domain table.**  ``interner.tbl`` holds every distinct
  domain (and its base domain, normalised through the default PSL at
  append time) exactly once, store-wide.  A day's list is a shard record
  holding a rank-ordered array of table ids — daily lists overlap by
  ~99% (the paper's central stability finding), so after the first day a
  snapshot costs four bytes per entry, not its strings.
* **Chunked records (format v3).**  A day's id column is split into
  fixed-size rank-range chunks (:data:`CHUNK_ENTRIES`), each compressed
  independently behind a per-record chunk directory.  Whole-day loads
  inflate chunk by chunk straight into the id column;
  :meth:`ArchiveStore.load_head` and :meth:`ArchiveStore.rank_of_id`
  inflate *only* the chunks a head or point query touches — on a
  1M-entry day a ``top(1000)`` costs one chunk, not four megabytes.
  Manifests of any other format version, or without a mutation log,
  are refused.
* **Columnar loads.**  Opening a store interns the table once into the
  process :func:`~repro.interning.default_interner` (building a table-id
  → process-id translation) and, when the PSL version still matches the
  append-time stamp, seeds the interner's base-id column from the stored
  bases.  Every snapshot then loads as a pure id column
  (:meth:`~repro.providers.base.ListSnapshot.from_ids`): **no domain
  string is materialised per day**.  Per-day base-domain sets come from
  the one :mod:`repro.core.cache` delta engine, which on a seeded column
  resolves every id by array index and PSL-parses nothing.  Seeding is
  skipped (never wrong, just slower) when the default PSL has changed
  since append time.
* **Reports.**  Byte-reproducible :class:`~repro.scenarios.runner.ScenarioReport`
  JSON documents are stored alongside the shards, so the query API serves
  them as static bytes instead of re-running scenarios per request.

Appends are strictly chronological per provider (an append-only log);
``store.version`` increments on every mutation and is the cache/ETag
token of the query layer.  The manifest is the durable truth: table or
shard bytes past the manifest's counts are an orphaned tail from an
append that crashed before its manifest flush, and are truncated away on
the next open.

**Live appends.**  The store is safe to append to while readers are
active in the same process.  Writers serialise on one lock; the table
and shard tails are written (and, for synced appends, fsynced) *before*
the manifest flips, and the in-memory manifest is copy-on-write: an
append builds a fresh manifest dict and publishes it with a single
reference swap, so a reader never observes ``store.version`` bumped
ahead of the date log it describes.  Readers that walk several manifest
fields (``load_archive``, ``iter_snapshots``) capture one manifest
reference up front and answer entirely from that consistent snapshot,
even if appends land mid-iteration.
"""

from __future__ import annotations

import datetime as dt
import json
import mmap
import os
import struct
import sys
import threading
import time
import zlib
from array import array
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from repro import faults
from repro.obs import logging as obslog
from repro.obs import metrics
from repro.domain.psl import default_list
from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot

#: Per-record magic; bump the digit on incompatible format changes.
#: v3 records are *chunked*: the header is followed by a chunk directory
#: (``n_chunks`` × ``(entry_count, compressed_len)``) and then the
#: independently-compressed chunk payloads, so readers decompress only
#: the rank ranges a query touches.
_MAGIC = b"RLS3"
_HEADER = struct.Struct("<4sIIII")  # magic, date ordinal, psl version,
#                                     n_entries, n_chunks
_CHUNK_DIR = struct.Struct("<II")   # entry count, compressed bytes
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Entries per rank-range chunk.  Read at append time (not baked into
#: the file format — readers trust each record's chunk directory), so
#: tests may patch it small to exercise many-chunk records with tiny
#: lists.  16k entries ≈ 64 KiB raw per chunk: large enough that zlib
#: compresses well, small enough that a ``top(1000)`` or point query on
#: a 1M-entry day decompresses ~1/64th of it.
CHUNK_ENTRIES = 16_384

FORMAT_VERSION = 3

#: zlib level chunks are written at.  Level 1 compresses a 1M-entry day
#: ~4x faster than level 6 for ~5% more bytes; readers inflate any
#: level, so this is not part of the format.
ZLIB_LEVEL = 1


class StoreError(RuntimeError):
    """Raised on malformed store contents or invalid append sequences."""


class StoreConflictError(StoreError):
    """An append that conflicts with already-published days.

    Distinguished from plain :class:`StoreError` so API layers can map
    out-of-order/duplicate days to 409 Conflict without matching on the
    error message.
    """


# Store spans are ms-scale (an append fsyncs, a load walks shards), so
# registry instruments are affordable on them; per-chunk decompression
# is hotter and keeps plain-int tallies on the store instead (exposed
# at scrape time by QueryService._metrics_families).
_M_APPENDS = metrics.counter(
    "repro_store_appends_total", "Snapshot days appended to the store.")
_M_APPEND_SECONDS = metrics.histogram(
    "repro_store_append_seconds",
    "Wall-clock seconds per store append (lock wait included).")
_M_ARCHIVE_LOADS = metrics.counter(
    "repro_store_archive_loads_total", "Full archive rebuilds from shards.")
_M_ARCHIVE_LOAD_SECONDS = metrics.histogram(
    "repro_store_load_archive_seconds",
    "Wall-clock seconds per full archive rebuild.")


def _month_key(date: dt.date) -> str:
    return f"{date.year:04d}-{date.month:02d}"


#: ``_TableState`` lookup value of a process id that has no store id.
_NO_SID = 0xFFFFFFFF


class _TableState:
    """The store's domain table, translated into the process id space.

    ``gids`` / ``base_gids`` are the table itself (store id -> process
    id).  Two numpy lookup tables derive from ``gids``, so a day
    translates with one gather instead of a per-entry Python loop:

    * process id -> store id (:data:`_NO_SID` when absent), for appends
      and point queries; built once the table is loaded and kept
      current by :meth:`append` and :meth:`truncate`, all under the
      store's write lock.
    * store id -> process id (:meth:`gid_table`), for loads: a copy of
      ``gids`` grown only up to a *published* entry count.  Published
      entries never change, so a reader may keep using an older,
      shorter copy, and no numpy view is ever held over the live
      ``array`` (``array.append`` raises ``BufferError`` while one is).
    """

    __slots__ = ("gids", "base_gids", "consumed_bytes", "_sid_lut",
                 "_gid_lut")

    def __init__(self) -> None:
        self.gids = array("I")        # store id -> process (interner) id
        self.base_gids = array("I")   # store id -> process id of its base
        self.consumed_bytes = 0
        self._sid_lut: Optional[np.ndarray] = None
        self._gid_lut = np.empty(0, np.uint32)

    def __len__(self) -> int:
        return len(self.gids)

    def sid_lut(self, size: int = 0) -> np.ndarray:
        """Process id -> store id table covering at least ids ``< size``."""
        lut = self._sid_lut
        if lut is None:
            gids = np.frombuffer(self.gids.tobytes(), np.uint32)
            if gids.size:
                size = max(size, int(gids.max()) + 1)
            lut = np.full(size, _NO_SID, np.uint32)
            lut[gids] = np.arange(gids.size, dtype=np.uint32)
        elif len(lut) < size:
            grown = np.full(max(size, 2 * len(lut)), _NO_SID, np.uint32)
            grown[:len(lut)] = lut
            lut = grown
        else:
            return lut
        self._sid_lut = lut
        return lut

    def sid_of(self, gid: int) -> Optional[int]:
        """The store id of process id ``gid`` (``None`` when not stored)."""
        lut = self.sid_lut()
        sid = int(lut[gid]) if gid < len(lut) else _NO_SID
        return None if sid == _NO_SID else sid

    def append(self, gid: int, base_gid: int) -> int:
        sid = len(self.gids)
        self.gids.append(gid)
        self.base_gids.append(base_gid)
        if self._sid_lut is not None:
            self.sid_lut(gid + 1)[gid] = sid
        return sid

    def truncate(self, length: int) -> None:
        """Drop the entries from store id ``length`` on (append rollback)."""
        if self._sid_lut is not None:
            dropped = np.frombuffer(self.gids[length:].tobytes(), np.uint32)
            self._sid_lut[dropped] = _NO_SID
        del self.gids[length:]
        del self.base_gids[length:]

    def gid_table(self, entries: int) -> np.ndarray:
        """Store id -> process id for the first ``entries`` store ids.

        ``entries`` must be a published count (a manifest's
        ``interner.entries``): entries past it may still be rolled back.
        """
        table = self._gid_lut
        if len(table) < entries:
            tail = self.gids[len(table):entries].tobytes()
            table = np.concatenate((table, np.frombuffer(tail, np.uint32)))
            self._gid_lut = table
        return table


def _decode_table(data: bytes, limit: int, path: Path,
                  state: _TableState) -> None:
    """Replay table records into ``state`` until it holds ``limit``.

    The one place a store load touches domain strings: each distinct
    name is decoded and interned exactly once per open, after which
    every snapshot and base lookup is id arithmetic.  ``data`` starts at
    ``state.consumed_bytes``, so the same call makes a store's first
    decode (from byte 0) and continues it when another process has
    published new entries (only the tail bytes are read and interned).
    """
    interner = default_interner()
    base_offset = state.consumed_bytes
    offset = 0
    total = len(data)
    while len(state.gids) < limit:
        if offset + _U16.size > total:
            raise StoreError(
                f"{path}: truncated table record at byte {base_offset + offset}")
        (name_len,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        if offset + name_len + _U32.size > total:
            raise StoreError(
                f"{path}: truncated table record at byte {base_offset + offset}")
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (base_sid,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        sid = len(state.gids)
        if base_sid > sid:
            raise StoreError(f"{path}: dangling base reference {base_sid} at entry {sid}")
        gid = interner.intern(name)
        base_gid = gid if base_sid == sid else state.gids[base_sid]
        state.append(gid, base_gid)
        state.consumed_bytes = base_offset + offset


def _encode_table_entry(name: str, base_sid: int) -> bytes:
    raw = name.encode("utf-8")
    return _U16.pack(len(raw)) + raw + _U32.pack(base_sid)


def _unpack_ids(raw: bytes) -> array:
    """Decode little-endian uint32 bytes into an id array (no boxing)."""
    ids = array("I")
    ids.frombytes(raw)
    if sys.byteorder != "little":
        ids.byteswap()
    return ids


#: One record's payload as ``[(entry_count, compressed_bytes), ...]`` —
#: still compressed, so consumers inflate only the chunks they touch.
_Chunks = list[tuple[int, memoryview]]


def _decode_chunks(chunks: _Chunks) -> array:
    """Inflate every chunk of a record into one store-id column."""
    ids = array("I")
    for _count, raw in chunks:
        ids += _unpack_ids(zlib.decompress(raw))
    return ids


def _shard_view(path: Path) -> "bytes | memoryview":
    """A month shard's bytes as a lazily-paged read-only view.

    Queries against a 1M-entry month must not start by copying the whole
    ~80 MB shard onto the heap just to walk its record headers, so the
    file is memory-mapped: the header/directory walk touches only its
    own pages, and a chunk's bytes are faulted in when the chunk is
    actually inflated.  Chunk views returned to callers keep the mapping
    alive; it unmaps when the last view is dropped.  Empty (or
    otherwise unmappable) files fall back to a plain read.
    """
    with path.open("rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return handle.read()
    return memoryview(mapped)


def _iter_shard_records(data: "bytes | memoryview", path: Path, limit: int,
                        decode_payload: bool = True
                        ) -> Iterator[tuple[int, int, Optional[_Chunks], int]]:
    """Yield ``(ordinal, psl_version, chunks, end_offset)`` per record.

    ``chunks`` is the record's still-compressed chunk list —
    decompression is the caller's choice, per chunk, so point and head
    queries inflate only the rank ranges they touch.  ``limit`` bounds
    the walk to the manifest's record count (bytes past it are an
    orphaned tail); with ``decode_payload=False`` the payload is skipped
    entirely (the truncation scan of the append path).
    """
    offset = 0
    total = len(data)
    view = memoryview(data)
    records = 0
    while offset < total and records < limit:
        if offset + _HEADER.size > total:
            raise StoreError(f"{path}: truncated record header at byte {offset}")
        magic, ordinal, psl_version, n_entries, n_chunks = \
            _HEADER.unpack_from(data, offset)
        if magic != _MAGIC:
            raise StoreError(f"{path}: bad record magic at byte {offset}")
        offset += _HEADER.size
        dir_size = n_chunks * _CHUNK_DIR.size
        if offset + dir_size > total:
            raise StoreError(
                f"{path}: truncated chunk directory at byte {offset}")
        directory = [_CHUNK_DIR.unpack_from(data, offset + i * _CHUNK_DIR.size)
                     for i in range(n_chunks)]
        offset += dir_size
        if sum(count for count, _ in directory) != n_entries:
            raise StoreError(
                f"{path}: chunk directory counts disagree with record "
                f"header at byte {offset}")
        payload_len = sum(length for _, length in directory)
        if offset + payload_len > total:
            raise StoreError(
                f"{path}: truncated record payload at byte {offset}")
        chunks: Optional[_Chunks] = None
        if decode_payload:
            chunks = []
            at = offset
            for count, length in directory:
                chunks.append((count, view[at:at + length]))
                at += length
        offset += payload_len
        records += 1
        yield ordinal, psl_version, chunks, offset


class ArchiveStore:
    """Durable, append-only archive storage under one root directory.

    Layout::

        root/
          manifest.json                  # version, per-provider date log
          interner.tbl                   # the persisted shared domain table
          shards/<provider>/<YYYY-MM>.rls
          reports/<profile>.json         # stored ScenarioReport documents
    """

    def __init__(self, root: str | Path, create: bool = True,
                 read_only: bool = False) -> None:
        #: A read-only store never mutates the directory — not even the
        #: recovery truncations a writable open performs.  This is what
        #: makes multi-process serving safe: a pre-fork read worker that
        #: opens the store while the writer has an append in flight must
        #: treat bytes past the manifest's counts as *someone else's
        #: in-progress tail*, not as an orphan to truncate away.
        self.read_only = bool(read_only)
        self.root = Path(root)
        self._manifest_path = self.root / "manifest.json"
        self._table_path = self.root / "interner.tbl"
        self._table_state: Optional[_TableState] = None
        self._shard_offsets: dict[tuple[str, str], int] = {}
        # Serialises mutations (and the lazy table load, which may
        # truncate an orphaned tail) against concurrent appenders.
        self._write_lock = threading.RLock()
        # Files appended (and directories created) with sync=False since
        # the last durable manifest; the next durable write fsyncs them
        # before the manifest may name their records.
        self._dirty_files: set[Path] = set()
        self._dirty_dirs: set[Path] = set()
        #: Whether the in-memory manifest is ahead of the durable one
        #: (batched ``sync=False`` appends); ``close()`` flushes iff set.
        self._manifest_dirty = False
        #: Chunk-decompression tallies.  Plain GIL-atomic ints (the
        #: per-chunk path is too hot for the metrics-registry lock);
        #: scraped via /v1/metrics and reported by /v1/health.
        self.chunks_inflated = 0
        self.chunk_bytes_inflated = 0
        stale_tmp = self._manifest_path.with_suffix(".json.tmp")
        if stale_tmp.exists() and not self.read_only:
            # A crash mid-publish leaves a (possibly truncated) tmp
            # manifest; the real manifest is intact, the tmp is garbage.
            # A read-only opener must leave it alone — a live writer may
            # be between its tmp write and the atomic rename right now.
            stale_tmp.unlink()
        if self._manifest_path.exists():
            self._manifest = self._read_manifest()
        elif create and not self.read_only:
            self.root.mkdir(parents=True, exist_ok=True)
            self._manifest = {"format_version": FORMAT_VERSION,
                              "store_version": 0, "data_version": 0,
                              "providers": {}, "reports": [], "log": [],
                              "interner": {"entries": 0, "psl_version": None}}
            self._write_manifest()
        else:
            raise StoreError(f"no archive store at {self.root}")

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Flush any batched state, making the store durable.

        Idempotent and cheap when nothing is pending: only a store whose
        in-memory manifest is ahead of the durable one (``sync=False``
        appends since the last :meth:`flush`) pays for the fsync chain.
        """
        with self._write_lock:
            if self._dirty_files or self._dirty_dirs or self._manifest_dirty:
                self._sync_dirty()
                self._write_manifest()

    def __enter__(self) -> "ArchiveStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Even on an in-flight exception the already-appended snapshots
        # are good data; making them durable is strictly better than
        # silently dropping a batched tail on the floor.
        self.close()

    # -- manifest ---------------------------------------------------------
    def _read_manifest(self) -> dict:
        """The durable manifest, refused unless it is a v3 one with a log."""
        manifest = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreError(
                f"{self._manifest_path}: unsupported store format "
                f"{version!r} (expected {FORMAT_VERSION})")
        if "log" not in manifest:
            raise StoreError(
                f"{self._manifest_path}: store format {version} manifest "
                f"has no mutation log")
        return manifest

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Flush a directory entry (new file / rename) to stable storage."""
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("store.dir.fsync")
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _publish_manifest(self, manifest: dict) -> None:
        """Write ``manifest`` durably up to the atomic rename.

        After this returns the on-disk manifest *is* ``manifest`` —
        callers that need to distinguish pre- from post-publish failures
        (the append rollback) call this and then
        :meth:`_fsync_dir` separately.
        """
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        tmp = self._manifest_path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            if faults.ACTIVE is None:
                handle.write(text)
            else:
                # A torn tmp write is the safe tear: the real manifest
                # is untouched and the next open discards the tmp.
                faults.ACTIVE.torn_write("store.manifest.write", handle, text)
            handle.flush()
            if faults.ACTIVE is not None:
                faults.ACTIVE.hit("store.manifest.fsync")
            os.fsync(handle.fileno())
        if faults.ACTIVE is not None:
            faults.ACTIVE.hit("store.manifest.rename.before")
        os.replace(tmp, self._manifest_path)

    def _write_manifest(self, manifest: Optional[dict] = None) -> None:
        if manifest is None:
            manifest = self._manifest
        self._publish_manifest(manifest)
        self._manifest_dirty = False
        # The rename itself must survive power loss, not just the bytes.
        self._fsync_dir(self.root)

    @property
    def version(self) -> int:
        """Monotonic store version; bumps on every mutation.  ETag token."""
        return self._manifest["store_version"]

    @property
    def data_version(self) -> int:
        """Version of the snapshot data only (report saves don't bump it).

        The query layer keys its materialised archives/index on this, so
        storing a report does not force an archive reload.
        """
        return self._manifest.get("data_version", self._manifest["store_version"])

    def providers(self) -> tuple[str, ...]:
        """Stored provider names, sorted."""
        return tuple(sorted(self._manifest["providers"]))

    def dates(self, provider: str) -> list[dt.date]:
        """Stored snapshot dates of ``provider``, in append (= date) order."""
        # One manifest read: published manifests are never mutated in
        # place, so the entry is a consistent snapshot under appends.
        entry = self._manifest["providers"].get(provider)
        if entry is None:
            return []
        return [dt.date.fromordinal(o) for o in entry["dates"]]

    def __len__(self) -> int:
        return sum(len(p["dates"]) for p in self._manifest["providers"].values())

    # -- the shared domain table ------------------------------------------
    def _table(self) -> _TableState:
        """The persisted table, interned into the process id space (cached).

        Replay (:meth:`_extend_table`) stops at the manifest's entry
        count; a longer file holds an orphaned tail from a crashed
        append, which is truncated away so the next append starts from
        the durable state.
        """
        state = self._table_state
        if state is None:
            # Built under the write lock: the first load may truncate an
            # orphaned tail, which must not race an in-flight append that
            # is growing the very same file.
            with self._write_lock:
                state = self._table_state
                if state is not None:
                    return state
                state = _TableState()
                if self._table_path.exists():
                    self._extend_table(state, self._manifest)
                    if (not self.read_only and state.consumed_bytes
                            < self._table_path.stat().st_size):
                        # Bytes past the manifest's count: an orphaned
                        # tail from a crashed append — unless this opener
                        # is read-only, in which case they may equally be
                        # another process's append in flight and must
                        # stay untouched.
                        with self._table_path.open("r+b") as handle:
                            handle.truncate(state.consumed_bytes)
                elif self._manifest["interner"]["entries"]:
                    raise StoreError(
                        f"manifest names missing table {self._table_path}")
                # Built here, under the write lock, so no lazy build can
                # race an append or refresh that grows the table.
                state.sid_lut()
                self._table_state = state
        return state

    def _extend_table(self, state: _TableState, manifest: dict) -> None:
        """Decode the table from ``state.consumed_bytes`` up to
        ``manifest``'s entry count, seeding the new entries' bases.

        When ``manifest``'s PSL stamp is the current default list's, the
        stored bases seed the interner's base-id column — after which
        *nothing* in this process ever PSL-parses a stored name again.
        Called under the write lock, by the first :meth:`_table` load
        and by :meth:`refresh`.
        """
        before = len(state)
        expected = manifest["interner"]["entries"]
        if expected > before:
            with self._table_path.open("rb") as handle:
                handle.seek(state.consumed_bytes)
                data = handle.read()
            _decode_table(data, expected, self._table_path, state)
        psl = default_list()
        if manifest["interner"]["psl_version"] == psl.version:
            seed = default_interner().base_column(psl).seed
            for gid, base_gid in zip(state.gids[before:],
                                     state.base_gids[before:]):
                seed(gid, base_gid)

    def _table_append(self, state: _TableState, gid: int, column) -> tuple[int, bytes]:
        """Ensure ``gid`` (and its base) are table entries; return new bytes."""
        interner = default_interner()
        encoded = b""
        base_gid = column.base_id(gid)
        base_sid = None if base_gid == gid else state.sid_of(base_gid)
        if base_gid != gid and base_sid is None:
            base_sid = state.append(base_gid, base_gid)
            encoded += _encode_table_entry(interner.domain(base_gid), base_sid)
        sid = len(state.gids)
        if base_sid is None:
            base_sid = sid
        state.append(gid, base_gid)
        encoded += _encode_table_entry(interner.domain(gid), base_sid)
        return sid, encoded

    # -- shard plumbing ---------------------------------------------------
    def _shard_path(self, provider: str, month: str) -> Path:
        return self.root / "shards" / provider / f"{month}.rls"

    def _shard_records(self, provider: str, month: str,
                       manifest: Optional[dict] = None) -> int:
        """The manifest's record count for a shard (the durable truth).

        ``manifest`` lets a multi-step reader pin one published manifest
        so a concurrent append cannot shift the counts mid-walk.
        """
        if manifest is None:
            manifest = self._manifest
        entry = manifest["providers"].get(provider)
        return entry["shards"].get(month, 0) if entry else 0

    def _shard_append_offset(self, provider: str, month: str) -> int:
        """Byte offset after the shard's last durable record.

        Scanned once per open store (headers only, payloads skipped);
        a longer file holds an orphaned tail from an append that crashed
        before its manifest flush, which is truncated away so
        re-appending that day is valid again instead of a silent
        duplicate.
        """
        key = (provider, month)
        offset = self._shard_offsets.get(key)
        if offset is None:
            offset = 0
            path = self._shard_path(provider, month)
            if path.exists():
                data = path.read_bytes()
                for *_, end in _iter_shard_records(
                        data, path, self._shard_records(provider, month),
                        decode_payload=False):
                    offset = end
                if offset < len(data):
                    with path.open("r+b") as handle:
                        handle.truncate(offset)
            self._shard_offsets[key] = offset
        return offset

    def _months(self, provider: str,
                manifest: Optional[dict] = None) -> list[str]:
        if manifest is None:
            manifest = self._manifest
        entry = manifest["providers"].get(provider)
        return sorted(entry["shards"]) if entry else []

    @staticmethod
    def _append_file(path: Path, data: bytes, sync: bool,
                     point: str = "store.file") -> None:
        """Append ``data`` to ``path``'s tail (the write-ahead half).

        ``point`` names the fault-injection site (``store.table`` /
        ``store.shard``): ``<point>.write`` may tear or fail the write,
        ``<point>.fsync`` may fail the durability step — exactly the
        two distinct failure modes a real disk offers.
        """
        with path.open("ab") as handle:
            if faults.ACTIVE is None:
                handle.write(data)
            else:
                faults.ACTIVE.torn_write(point + ".write", handle, data)
            if sync:
                handle.flush()
                if faults.ACTIVE is not None:
                    faults.ACTIVE.hit(point + ".fsync")
                os.fsync(handle.fileno())

    # -- appends ----------------------------------------------------------
    def append(self, snapshot: ListSnapshot, sync: bool = True) -> None:
        """Append one snapshot (strictly after the provider's last date).

        Concurrent-safe against in-process readers: writers serialise on
        the store's write lock, new table/shard bytes are written (and,
        with ``sync``, fsynced) *before* the manifest flips, and the
        in-memory manifest is published as one new dict — a reader never
        observes a version whose record counts outrun the data on disk.
        With ``sync`` (the default) the manifest is rewritten durably per
        append; batch callers may pass ``sync=False`` and :meth:`flush`
        once, which fsyncs the accumulated tails first.
        """
        start = time.perf_counter()
        self._forbid_mutation("append")
        provider = snapshot.provider
        if (not provider or "/" in provider or "\\" in provider
                or provider.startswith(".")):
            # Provider names become shard path components; reject anything
            # that could escape the store root.
            raise StoreError(f"invalid provider name {provider!r}")
        with self._write_lock:
            manifest = self._manifest
            entry = manifest["providers"].get(provider, {"dates": [], "shards": {}})
            ordinal = snapshot.date.toordinal()
            if entry["dates"] and ordinal <= entry["dates"][-1]:
                last = dt.date.fromordinal(entry["dates"][-1])
                raise StoreConflictError(
                    f"append-only: {provider} snapshot {snapshot.date} is not after "
                    f"the stored {last}")
            table = self._table()
            table_len_before = len(table)
            table_bytes_before = table.consumed_bytes
            psl = default_list()
            column = default_interner().base_column(psl)
            month = _month_key(snapshot.date)
            path = self._shard_path(provider, month)
            offset = self._shard_append_offset(provider, month)
            published = False
            try:
                # Inside the try: _table_append mutates the in-memory
                # table per new domain, and a mid-loop failure (e.g. a
                # name the base-id column cannot normalise) must unwind
                # those entries like any other failed append.
                new_table_bytes = bytearray()
                gids = np.frombuffer(snapshot.entry_ids(), np.uint32)
                size = int(gids.max()) + 1 if gids.size else 0
                sids = table.sid_lut(size)[gids]
                missing = np.flatnonzero(sids == _NO_SID)
                if missing.size:
                    # New names take the next store ids in rank order; an
                    # earlier miss may already have added one as its base.
                    new_sids = []
                    for gid in gids[missing].tolist():
                        sid = table.sid_of(gid)
                        if sid is None:
                            sid, encoded = self._table_append(table, gid, column)
                            new_table_bytes += encoded
                        new_sids.append(sid)
                    sids[missing] = new_sids
                # Chunked payload: each CHUNK_ENTRIES-sized rank range is
                # compressed independently so readers can inflate only the
                # ranges a query touches.  The chunk size is read here, at
                # append time; readers follow the record's own directory.
                step = CHUNK_ENTRIES * _U32.size
                packed = memoryview(sids.astype("<u4", copy=False).tobytes())
                directory = bytearray()
                payload = bytearray()
                for first in range(0, len(packed), step):
                    piece = packed[first:first + step]
                    compressed = zlib.compress(piece, ZLIB_LEVEL)
                    directory += _CHUNK_DIR.pack(len(piece) // _U32.size,
                                                 len(compressed))
                    payload += compressed
                record = _HEADER.pack(_MAGIC, ordinal, psl.version,
                                      len(sids),
                                      len(directory) // _CHUNK_DIR.size
                                      ) + bytes(directory) + bytes(payload)
                if new_table_bytes:
                    self._append_file(self._table_path, bytes(new_table_bytes),
                                      sync, point="store.table")
                    table.consumed_bytes += len(new_table_bytes)
                    if not sync:
                        self._dirty_files.add(self._table_path)
                provider_dir = path.parent
                new_provider_dir = not provider_dir.exists()
                provider_dir.mkdir(parents=True, exist_ok=True)
                new_shard = not path.exists()
                self._append_file(path, record, sync, point="store.shard")
                # New directory entries (the shard file, and on a
                # provider's first shard its directory) must be durable
                # before a manifest may name them; with sync=False they
                # join the dirty set the next durable write drains.
                if new_shard:
                    self._dirty_dirs.add(provider_dir)
                if new_provider_dir:
                    self._dirty_dirs.add(provider_dir.parent)
                if not sync:
                    self._dirty_files.add(path)
                self._shard_offsets[(provider, month)] = offset + len(record)
                # Copy-on-write manifest: the published dicts are never
                # mutated, so readers holding the old reference stay
                # consistent and the swap below is the atomic publish point.
                providers = dict(manifest["providers"])
                providers[provider] = {
                    "dates": entry["dates"] + [ordinal],
                    "shards": {**entry["shards"],
                               month: entry["shards"].get(month, 0) + 1},
                }
                interner_entry = dict(manifest["interner"])
                if interner_entry["entries"] == 0:
                    interner_entry["psl_version"] = psl.version
                elif interner_entry["psl_version"] != psl.version:
                    # Mixed-version table: stored bases are only trusted
                    # when the whole table was normalised under one (the
                    # current) version.
                    interner_entry["psl_version"] = None
                interner_entry["entries"] = len(table)
                new_manifest = dict(manifest)
                new_manifest["providers"] = providers
                new_manifest["interner"] = interner_entry
                new_manifest["store_version"] = manifest["store_version"] + 1
                new_manifest["data_version"] = manifest.get("data_version", 0) + 1
                new_manifest["log"] = manifest["log"] + [
                    ["append", provider, ordinal]]
                if sync:
                    # Everything the manifest is about to name must be
                    # durable first: this append's tails were fsynced
                    # above, but earlier sync=False appends may still owe
                    # theirs (the manifest counts their records too).
                    self._sync_dirty()
                    self._publish_manifest(new_manifest)
                    published = True
                    if faults.ACTIVE is not None:
                        # Post-rename faults land here, after ``published``
                        # is set: the durable manifest already names the
                        # record, so rollback below must not run.
                        faults.ACTIVE.hit("store.manifest.rename.after")
                    # The rename itself must survive power loss too.
                    self._fsync_dir(self.root)
            except BaseException as error:
                if faults.is_crash(error):
                    # A simulated process death never gets to clean up:
                    # leave the torn tails exactly as a real crash would
                    # and let the next open's recovery truncate them.
                    raise
                if published:
                    # The durable manifest already names this record (only
                    # a post-rename step failed): the data must stay, and
                    # the in-memory state must agree with the disk.
                    self._manifest = new_manifest
                    raise
                # Nothing was published, so whatever this append managed
                # to write is an orphan — and appends always write at
                # EOF, so a partial tail buried under a later successful
                # append would be replayed in the newer record's place,
                # while the extended in-memory table would stop future
                # appends from re-encoding the lost entries.  Roll the
                # file tails and the in-memory table back to the
                # still-published state before re-raising.
                if path.exists():
                    with path.open("r+b") as handle:
                        handle.truncate(offset)
                self._shard_offsets[(provider, month)] = offset
                if len(table) > table_len_before:
                    table.consumed_bytes = table_bytes_before
                    if self._table_path.exists():
                        with self._table_path.open("r+b") as handle:
                            handle.truncate(table_bytes_before)
                    table.truncate(table_len_before)
                raise
            self._manifest = new_manifest
            if not sync:
                self._manifest_dirty = True
        # Only a fully published append is counted; the rollback paths
        # above re-raise before reaching here.
        _M_APPENDS.inc()
        _M_APPEND_SECONDS.observe(time.perf_counter() - start)
        obslog.log_event(
            "store.append", level="debug", provider=provider,
            date=snapshot.date.isoformat(), entries=len(snapshot),
            store_version=new_manifest["store_version"])

    def append_archive(self, archive: ListArchive) -> None:
        """Append every snapshot of ``archive`` (one manifest write)."""
        for snapshot in archive:
            self.append(snapshot, sync=False)
        self.flush()

    def _sync_dirty(self) -> None:
        """Fsync every file tail and directory entry owed since the last
        durable manifest (the write-ahead half of a batched append)."""
        for path in sorted(self._dirty_files):
            with path.open("rb") as handle:
                if faults.ACTIVE is not None:
                    faults.ACTIVE.hit("store.dirty.fsync")
                os.fsync(handle.fileno())
        self._dirty_files.clear()
        for directory in sorted(self._dirty_dirs):
            self._fsync_dir(directory)
        self._dirty_dirs.clear()

    def flush(self) -> None:
        """Make batched ``sync=False`` appends durable.

        Fsyncs every table/shard tail (and new directory entry) written
        since the last flush, then rewrites the manifest — the same
        write-ahead order a synced append uses, amortised over the batch.
        """
        self._forbid_mutation("flush")
        with self._write_lock:
            self._sync_dirty()
            self._write_manifest()

    def _forbid_mutation(self, operation: str) -> None:
        if self.read_only:
            raise StoreError(
                f"{self.root}: store opened read_only; {operation} is not "
                f"allowed (another process owns writes)")

    def refresh(self) -> bool:
        """Adopt mutations another process published to this store's disk.

        The multi-process discovery path: a writer process appends and
        publishes its manifest with an atomic rename, and each read-only
        worker calls ``refresh()`` to observe it — re-reading the
        manifest (readers see the old or the new file, never a tear) and
        *extending* the in-memory table state from ``consumed_bytes``
        with only the new tail bytes, interning just the new names.  The
        table is extended **before** the manifest reference is swapped,
        so an in-process reader can never hold a manifest whose record
        counts outrun the decoded table.  Returns whether anything new
        was adopted.

        Safe against a writer appending concurrently: table bytes are on
        disk (page-cache coherent) before the manifest names them, and
        bytes beyond the refreshed manifest's counts are simply left
        undecoded until a later refresh.
        """
        with self._write_lock:
            manifest = self._read_manifest()
            current = self._manifest["store_version"]
            if manifest["store_version"] == current:
                return False
            if manifest["store_version"] < current:
                raise StoreError(
                    f"{self._manifest_path}: store version went backwards "
                    f"({current} -> {manifest['store_version']}); "
                    f"the store was replaced underneath this process")
            state = self._table_state
            if state is not None:
                expected = manifest["interner"]["entries"]
                if expected < len(state.gids):
                    raise StoreError(
                        f"{self._table_path}: table shrank from "
                        f"{len(state.gids)} to {expected} entries; "
                        f"the store was replaced underneath this process")
                self._extend_table(state, manifest)
            # Another process may have appended more records to months
            # this process had already scanned; drop the cached offsets
            # so a (writable) store re-scans before its next append.
            self._shard_offsets.clear()
            self._manifest = manifest
        return True

    # -- replication ------------------------------------------------------
    def mutation_log(self, since: int = 0,
                     limit: Optional[int] = None) -> list[dict]:
        """Materialised mutation-log entries for versions ``> since``.

        The manifest's ``log`` records every mutation in global order —
        entry ``i`` produced store version ``i + 1`` — which is exactly
        what a follower needs: replaying the log through the ordinary
        append machinery reproduces the leader's table first-seen order,
        hence byte-identical ``interner.tbl`` and shard files.  Each
        returned dict is JSON-ready::

            {"version": 7, "kind": "append", "provider": "alexa",
             "date": "2018-05-01", "entries": ["a.com", ...]}
            {"version": 9, "kind": "report", "profile": "default",
             "document": {...}}

        ``since`` is the follower's current store version; ``limit``
        bounds the batch (appends carry whole days, so batches are kept
        small on the wire).
        """
        manifest = self._manifest  # one pinned, never-mutated reference
        log = manifest["log"]
        if since < 0:
            since = 0
        stop = len(log) if limit is None else min(len(log), since + limit)
        entries: list[dict] = []
        for index in range(since, stop):
            record = log[index]
            kind = record[0]
            if kind == "append":
                _, provider, ordinal = record
                date = dt.date.fromordinal(ordinal)
                snapshot = self.load_snapshot(provider, date)
                entries.append({"version": index + 1, "kind": "append",
                                "provider": provider,
                                "date": date.isoformat(),
                                "entries": list(snapshot.entries)})
            else:
                _, profile = record
                entries.append({"version": index + 1, "kind": "report",
                                "profile": profile,
                                "document": json.loads(
                                    self.load_report_bytes(profile))})
        return entries

    # -- loads ------------------------------------------------------------
    def _inflate(self, raw: bytes) -> bytes:
        """Decompress one chunk, tallying the store's inflation counters."""
        self.chunks_inflated += 1
        self.chunk_bytes_inflated += len(raw)
        return zlib.decompress(raw)

    def _gid_table(self, manifest: Optional[dict] = None) -> np.ndarray:
        """The store id -> process id table covering ``manifest``'s ids.

        The table is fetched first: it is extended before any manifest
        naming new entries is published, so it covers every manifest
        read after it.
        """
        table = self._table()
        if manifest is None:
            manifest = self._manifest
        return table.gid_table(manifest["interner"]["entries"])

    def _translate(self, chunks: _Chunks, gid_table: np.ndarray,
                   limit: Optional[int] = None) -> array:
        """Inflate ``chunks`` into a rank-ordered process-id column.

        One gather through ``gid_table`` per chunk, no per-entry Python
        step; with ``limit``, chunks stop inflating once that many
        leading entries are decoded.
        """
        ids = array("I")
        for _count, raw in chunks:
            if limit is not None and len(ids) >= limit:
                break
            sids = np.frombuffer(self._inflate(raw), "<u4")
            ids.frombytes(gid_table[sids].view(np.uint8))
        return ids

    def _replay(self, provider: str, manifest: Optional[dict] = None,
                after: Optional[int] = None
                ) -> Iterator[tuple[int, array]]:
        """Yield ``(ordinal, entry_gids)`` per stored day.

        ``entry_gids`` is a rank-ordered process-id column, inflated and
        translated chunk by chunk (one transient chunk-sized array at a
        time, never a boxed whole-day tuple).  With ``after`` (a date
        ordinal) only later days are yielded: earlier months are never
        opened and earlier records of the same month are skipped with
        their chunks still compressed.  The walk pins one published
        manifest up front, so a concurrent append can neither shift the
        record counts mid-iteration nor surface a half-written tail
        (bytes past the pinned counts are simply never decoded).
        """
        if manifest is None:
            manifest = self._manifest
        gid_table = self._gid_table(manifest)
        first_month = (None if after is None
                       else _month_key(dt.date.fromordinal(after)))
        for month in self._months(provider, manifest):
            if first_month is not None and month < first_month:
                continue
            path = self._shard_path(provider, month)
            if not path.exists():
                raise StoreError(f"manifest names missing shard {path}")
            expected = self._shard_records(provider, month, manifest)
            records = 0
            for ordinal, _, chunks, _ in _iter_shard_records(
                    _shard_view(path), path, expected):
                records += 1
                if after is None or ordinal > after:
                    yield ordinal, self._translate(chunks, gid_table)
            if records < expected:
                raise StoreError(
                    f"{path}: holds {records} records, manifest expects {expected}")

    def iter_snapshots(self, provider: str,
                       after: Optional[dt.date] = None) -> Iterator[ListSnapshot]:
        """Stream the provider's snapshots in date order (lazy, columnar).

        With ``after``, only the snapshots dated after it are decoded.
        """
        for ordinal, entry_gids in self._replay(
                provider, after=None if after is None else after.toordinal()):
            yield ListSnapshot.from_ids(provider=provider,
                                        date=dt.date.fromordinal(ordinal),
                                        ids=entry_gids)

    def _record_chunks(self, provider: str, date: dt.date) -> _Chunks:
        """One day's still-compressed chunk list (the lazy-read entry).

        Walks the month shard's headers only — no other day's payload is
        inflated, and the matched day's chunks stay compressed until the
        caller touches them.
        """
        manifest = self._manifest
        month = _month_key(date)
        path = self._shard_path(provider, month)
        if month not in self._months(provider, manifest) or not path.exists():
            raise KeyError(f"{provider} has no stored snapshot for {date}")
        target = date.toordinal()
        for ordinal, _, chunks, _ in _iter_shard_records(
                _shard_view(path), path,
                self._shard_records(provider, month, manifest)):
            if ordinal == target:
                return chunks
        raise KeyError(f"{provider} has no stored snapshot for {date}")

    def load_snapshot(self, provider: str, date: dt.date) -> ListSnapshot:
        """Load one snapshot, decoding only its month shard."""
        chunks = self._record_chunks(provider, date)
        entry_gids = self._translate(chunks, self._gid_table())
        return ListSnapshot.from_ids(provider=provider, date=date,
                                     ids=entry_gids)

    def load_head(self, provider: str, date: dt.date, n: int) -> ListSnapshot:
        """Load only the top-``n`` head of one stored day.

        Decompresses just the leading ``ceil(n / chunk)`` chunks of the
        day's record — on a chunked (v3) 1M-entry day a ``top(1000)``
        inflates one chunk, not the megabytes behind it.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        chunks = self._record_chunks(provider, date)
        entry_gids = self._translate(chunks, self._gid_table(), limit=n)
        del entry_gids[n:]
        return ListSnapshot.from_ids(provider=provider, date=date,
                                     ids=entry_gids)

    def rank_of_id(self, provider: str, date: dt.date,
                   domain_id: int) -> Optional[int]:
        """1-based rank of an interned id on one stored day, or ``None``.

        A point query: the store-id is resolved through the table's
        process-id lookup table, then the day's chunks are inflated one
        at a time until the id is found — unmatched chunks ahead of it
        are the only decompression paid, and chunks behind it are never
        touched.
        """
        sid = self._table().sid_of(domain_id)
        if sid is None:
            return None
        rank_base = 0
        for count, raw in self._record_chunks(provider, date):
            chunk = _unpack_ids(self._inflate(raw))
            try:
                return rank_base + chunk.index(sid) + 1
            except ValueError:
                rank_base += len(chunk)
        return None

    def load_archive(self, provider: str) -> ListArchive:
        """Rebuild the provider's full archive, without materialising strings.

        Each stored day becomes a pure id column
        (:meth:`~repro.providers.base.ListSnapshot.from_ids`); no derived
        cache is installed.  The per-day base-domain sets come from the
        one :mod:`repro.core.cache` delta engine on first demand, and on
        a store whose PSL stamp matches they resolve through the base-id
        column that opening the store seeded from the stored bases, so
        no entry is PSL-parsed.
        """
        start = time.perf_counter()
        manifest = self._manifest
        if provider not in manifest["providers"]:
            raise KeyError(f"no archive stored for provider {provider!r}")
        snapshots = [
            ListSnapshot.from_ids(provider=provider,
                                  date=dt.date.fromordinal(ordinal),
                                  ids=entry_gids)
            for ordinal, entry_gids in self._replay(provider, manifest)]
        archive = ListArchive.from_snapshots(snapshots, provider=provider)
        duration = time.perf_counter() - start
        _M_ARCHIVE_LOADS.inc()
        _M_ARCHIVE_LOAD_SECONDS.observe(duration)
        obslog.log_event(
            "store.load_archive", level="debug", provider=provider,
            days=len(snapshots), duration_ms=round(duration * 1000.0, 3))
        return archive

    def load_archives(self, providers: Optional[Iterable[str]] = None
                      ) -> dict[str, ListArchive]:
        """Load several providers' archives (default: all stored)."""
        names = tuple(providers) if providers is not None else self.providers()
        return {name: self.load_archive(name) for name in names}

    # -- scenario reports -------------------------------------------------
    def _report_path(self, profile: str) -> Path:
        if not profile or "/" in profile or "\\" in profile or profile.startswith("."):
            raise StoreError(f"invalid profile name {profile!r}")
        return self.root / "reports" / f"{profile}.json"

    def report_names(self) -> tuple[str, ...]:
        """Names of stored scenario reports, sorted."""
        return tuple(sorted(self._manifest["reports"]))

    def save_report(self, report) -> Path:
        """Store a :class:`~repro.scenarios.runner.ScenarioReport` document.

        The exact ``to_json()`` bytes are persisted, so serving the file
        is byte-identical to re-running the scenario.
        """
        return self.save_report_bytes(report.profile,
                                      report.to_json().encode("utf-8"))

    def save_report_bytes(self, profile: str, document: bytes) -> Path:
        """Store an already-serialised report document under ``profile``.

        The replication path lands here: a follower receives the leader's
        report bytes and persists them verbatim, so the two stores serve
        identical documents.
        """
        self._forbid_mutation("save_report")
        path = self._report_path(profile)
        with self._write_lock:
            new_dir = not path.parent.exists()
            path.parent.mkdir(parents=True, exist_ok=True)
            # Same write-ahead shape as appends: the bytes (and, for a
            # fresh reports/ directory, its entry) are durable before the
            # manifest may name the profile.
            tmp = path.with_suffix(".json.tmp")
            with tmp.open("wb") as handle:
                if faults.ACTIVE is None:
                    handle.write(document)
                else:
                    faults.ACTIVE.torn_write("store.report.write", handle,
                                             document)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self._fsync_dir(path.parent)
            if new_dir:
                self._fsync_dir(self.root)
            manifest = self._manifest
            new_manifest = dict(manifest)
            if profile not in manifest["reports"]:
                new_manifest["reports"] = sorted(
                    manifest["reports"] + [profile])
            new_manifest["store_version"] = manifest["store_version"] + 1
            new_manifest["log"] = manifest["log"] + [["report", profile]]
            self._write_manifest(new_manifest)
            self._manifest = new_manifest
        return path

    def load_report_bytes(self, profile: str) -> bytes:
        """The stored report document, as served bytes."""
        path = self._report_path(profile)
        if profile not in self._manifest["reports"] or not path.exists():
            raise KeyError(f"no stored report for profile {profile!r}")
        return path.read_bytes()

    # -- convenience ------------------------------------------------------
    @classmethod
    def from_archives(cls, root: str | Path,
                      archives: Mapping[str, ListArchive]) -> "ArchiveStore":
        """Create a store at ``root`` holding ``archives`` (keyed by name)."""
        store = cls(root)
        for name in sorted(archives):
            store.append_archive(archives[name])
        return store
