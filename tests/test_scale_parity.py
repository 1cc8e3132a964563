"""Streaming-vs-materialised ingest parity, property-tested.

The streaming ingest lane (file → row filter → interner → chunked
store, one row in flight) exists so a 1M-entry day never materialises
as Python objects — but it must be *observably identical* to the
materialised lane it replaced: same snapshots, same interner growth,
same error behaviour, and byte-for-byte the same store files.
Hypothesis drives day contents across the awkward sizes (empty, single
row, one off a chunk boundary, duplicates, junk rows, headers) with the
store's chunk size shrunk so boundary cases cost a handful of entries.
"""

import datetime as dt
import gzip
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.store as store_module
from repro.domain.name import InvalidDomainError
from repro.listio import (iter_csv_domains, parse_top_list_csv,
                          parse_top_list_rows, read_top_list,
                          stream_wire_top_list)
from repro.providers.base import ListSnapshot, clean_wire_entry
from repro.service.store import ArchiveStore

DATE = dt.date(2018, 6, 1)

#: Valid wire domains plus cells the wire lane must reject (the plain
#: parser lane accepts any non-empty cell — that asymmetry is part of
#: the contract under test).
VALID = tuple(f"par-{i:02d}.example" for i in range(12))
JUNK = ("bad..name", "-lead.example", "tld-only", "caps.EXAMPLE.",
        "under_score.example")

_cells = st.lists(st.sampled_from(VALID + JUNK), min_size=0, max_size=9)


@pytest.fixture(scope="module", autouse=True)
def small_chunks():
    # Module-scoped (not the function-scoped monkeypatch fixture):
    # hypothesis reuses one test invocation across examples.
    mp = pytest.MonkeyPatch()
    mp.setattr(store_module, "CHUNK_ENTRIES", 4)
    yield
    mp.undo()


def _csv_text(cells, header: bool) -> str:
    lines = ["rank,domain"] if header else []
    lines += [f"{rank},{cell}" for rank, cell in enumerate(cells, start=1)]
    return "\n".join(lines) + ("\n" if lines else "")


@settings(max_examples=60, deadline=None)
@given(cells=_cells, header=st.booleans())
def test_streaming_parser_matches_materialised_parser(cells, header):
    text = _csv_text(cells, header)
    try:
        materialised = parse_top_list_csv(text, provider="alexa", date=DATE)
    except ValueError as error:
        with pytest.raises(ValueError) as streamed:
            parse_top_list_rows(iter(text.splitlines(keepends=True)),
                                provider="alexa", date=DATE)
        # Identical diagnostics, including the row count.
        assert str(streamed.value) == str(error)
        return
    streamed = parse_top_list_rows(iter(text.splitlines(keepends=True)),
                                   provider="alexa", date=DATE)
    assert streamed == materialised
    assert bytes(streamed.entry_ids()) == bytes(materialised.entry_ids())


@settings(max_examples=60, deadline=None)
@given(cells=_cells, header=st.booleans())
def test_streaming_wire_lane_matches_materialised_wire_oracle(cells, header):
    text = _csv_text(cells, header)
    # Materialised oracle: the row filter, then per-row wire validation
    # with rejects skipped, duplicates keeping their first rank.
    kept, skipped = [], 0
    for raw in iter_csv_domains(text):
        try:
            kept.append(clean_wire_entry(raw))
        except InvalidDomainError:
            skipped += 1
    rows = iter_csv_domains(iter(text.splitlines(keepends=True)))
    if not kept:
        with pytest.raises(InvalidDomainError):
            ListSnapshot.from_wire_rows("alexa", DATE, rows)
        return
    snapshot, streamed_skipped = ListSnapshot.from_wire_rows(
        "alexa", DATE, rows)
    expected = ListSnapshot.from_cleaned_entries("alexa", DATE, kept)
    assert snapshot == expected
    assert streamed_skipped == skipped


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_file_forms_and_store_bytes_are_identical(data, tmp_path_factory):
    n_days = data.draw(st.integers(min_value=1, max_value=3), label="days")
    day_cells = []
    for day in range(n_days):
        cells = data.draw(
            st.lists(st.sampled_from(VALID), unique=True,
                     min_size=1, max_size=9),
            label=f"day{day}")
        day_cells.append(cells)

    tmp = tmp_path_factory.mktemp("parity")
    root_a, root_b = tmp / "store-a", tmp / "store-b"
    with ArchiveStore(root_a) as store_a, ArchiveStore(root_b) as store_b:
        for day, cells in enumerate(day_cells):
            date = DATE + dt.timedelta(days=day)
            text = _csv_text(cells, header=day % 2 == 0)
            # Lane A: materialised text parse.
            store_a.append(parse_top_list_csv(text, provider="alexa", date=date))
            # Lane B: streaming decompression straight off a file, the
            # container format rotating per day.
            form = ("csv", "gz", "zip")[day % 3]
            if form == "csv":
                path = tmp / f"alexa-{date}-{day}.csv"
                path.write_text(text, encoding="utf-8")
            elif form == "gz":
                path = tmp / f"alexa-{date}-{day}.csv.gz"
                path.write_bytes(gzip.compress(text.encode("utf-8")))
            else:
                path = tmp / f"alexa-{date}-{day}.zip"
                with zipfile.ZipFile(path, "w") as archive:
                    archive.writestr("top-1m.csv", text)
            store_b.append(read_top_list(path, provider="alexa", date=date))

        # Query payloads answer identically out of both stores.
        for day, cells in enumerate(day_cells):
            date = DATE + dt.timedelta(days=day)
            got_a = store_a.load_snapshot("alexa", date)
            got_b = store_b.load_snapshot("alexa", date)
            assert got_a.entries == got_b.entries
            assert bytes(got_a.entry_ids()) == bytes(got_b.entry_ids())

    # The lanes left byte-for-byte identical trees behind: manifest,
    # store interner table, and every chunked shard.
    files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for relative in files_a:
        assert (root_a / relative).read_bytes() == (root_b / relative).read_bytes(), \
            f"store files diverged: {relative}"


@settings(max_examples=25, deadline=None)
@given(cells=st.lists(st.sampled_from(VALID + JUNK), min_size=0, max_size=6))
def test_stream_wire_top_list_matches_wire_rows(cells, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wirefile")
    text = _csv_text(cells, header=False)
    path = tmp / "alexa-2018-06-01.csv"
    path.write_text(text, encoding="utf-8")
    rows = iter_csv_domains(text)
    try:
        expected = ListSnapshot.from_wire_rows("alexa", DATE, rows)
    except InvalidDomainError:
        with pytest.raises(ValueError):
            stream_wire_top_list(path, provider="alexa")
        return
    snapshot, skipped = stream_wire_top_list(path, provider="alexa")
    assert (snapshot, skipped) == expected
