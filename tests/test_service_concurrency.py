"""Live-append concurrency tests for the serving layer.

The paper's point is that top lists change *daily*; a serving process
must therefore accept new days while answering queries.  These tests
exercise exactly that seam:

* reader threads hammer the wire (history/stability/compare/batch)
  while one writer POSTs a month of snapshots to ``/v1/ingest`` —
  no 5xx, every response's ETag matches its body hash, and the final
  reads reflect the final appended day;
* the ingested state is *byte-identical* to computing on an archive
  built directly from the same snapshots (the live path may not drift
  from the cold path);
* the lock-audit regression: the LRU is keyed on ``store.version``, so
  a version read outside the lock could cache a pre-append body under
  the post-append version — the meta payload embeds the version, which
  must always equal the version header the response was keyed under.
"""

import datetime as dt
import hashlib
import json
import random
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.intersection import intersection_over_time
from repro.core.stability import (
    cumulative_unique_domains,
    daily_changes,
    days_in_list,
    intersection_with_reference,
    mean_daily_change,
    new_domains_per_day,
)
from repro.providers.base import ListArchive, ListSnapshot
from repro.scenarios.runner import canonical_float
from repro.service.api import QueryService, json_bytes
from repro.service.eventloop import EventLoopServer
from repro.service.store import ArchiveStore

BASE_DATE = dt.date(2018, 1, 10)
STABLE = tuple(f"stable-{i:03d}.example.com" for i in range(40))


def _day_entries(day: int) -> tuple[str, ...]:
    """Deterministic daily list: a stable core plus per-day churners."""
    churn = tuple(f"day{day}-{j}.example.org" for j in range(5))
    # Rotate the stable block a little so ranks move day over day.
    pivot = day % len(STABLE)
    return STABLE[pivot:] + STABLE[:pivot] + churn


def _snapshot(provider: str, day: int) -> ListSnapshot:
    return ListSnapshot(provider=provider,
                        date=BASE_DATE + dt.timedelta(days=day),
                        entries=_day_entries(day))


def _seeded_store(root, provider="alexa", days=5) -> ArchiveStore:
    store = ArchiveStore(root)
    store.append_archive(ListArchive.from_snapshots(
        [_snapshot(provider, day) for day in range(days)]))
    return store


def _ingest_body(provider: str, day: int) -> bytes:
    return json.dumps({
        "provider": provider,
        "date": (BASE_DATE + dt.timedelta(days=day)).isoformat(),
        "entries": list(_day_entries(day)),
    }).encode("utf-8")


def _expected_stability(archive, provider, top_n=None):
    """The stability payload built from direct repro.core calls."""
    changes = daily_changes(archive, top_n)
    mean_change = mean_daily_change(archive, top_n)
    counts = days_in_list(archive, top_n)
    always = (sum(1 for v in counts.values() if v == len(archive))
              / len(counts)) if counts else 0.0
    list_size = len(archive[0])
    head = list_size if top_n is None else min(top_n, list_size)
    return {
        "provider": provider,
        "top_n": top_n,
        "days": len(archive),
        "list_size": list_size,
        "mean_daily_change": canonical_float(mean_change),
        "churn_fraction": canonical_float(mean_change / max(1, head)),
        "daily_changes": {d.isoformat(): c for d, c in sorted(changes.items())},
        "new_per_day": {d.isoformat(): c for d, c in
                        sorted(new_domains_per_day(archive, top_n).items())},
        "cumulative_unique": {d.isoformat(): c for d, c in
                              sorted(cumulative_unique_domains(archive, top_n).items())},
        "distinct_domains": len(counts),
        "always_listed_share": canonical_float(always),
        "reference_decay": {
            str(offset): canonical_float(value)
            for offset, value in sorted(intersection_with_reference(
                archive, reference_days=range(7), top_n=top_n).items())},
    }


def test_store_loads_stay_exact_while_appends_grow_the_table(tmp_path):
    """Reader threads decode published days while a writer appends.

    Every append grows the store's domain table and its numpy lookup
    tables; a reader translating a published day through them must
    never see a wrong or missing id.
    """
    days = [_snapshot("alexa", day) for day in range(40)]
    store = ArchiveStore(tmp_path / "s")
    store.append(days[0])
    done = threading.Event()
    failures: list[str] = []

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        while not done.is_set() and not failures:
            snapshot = days[rng.randrange(len(store.dates("alexa")))]
            got = store.load_snapshot("alexa", snapshot.date).entry_ids()
            if got != snapshot.entry_ids():
                failures.append(f"load_snapshot {snapshot.date}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(4)]
        for thread in readers:
            thread.start()
        try:
            for snapshot in days[1:]:
                store.append(snapshot, sync=False)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures[:5]
    streamed = [s.entry_ids() for s in store.iter_snapshots("alexa")]
    assert streamed == [s.entry_ids() for s in days]
    store.close()


class TestLiveAppendParity:
    """A POSTed snapshot is served without restart, byte-equal to cold."""

    def test_ingest_visible_and_byte_identical_to_cold_path(self, tmp_path):
        store = _seeded_store(tmp_path / "s", days=4)
        service = QueryService(store)
        # Materialise (and cache) pre-append state first: the append must
        # invalidate it, not serve around it.
        before = service.handle_request("/v1/domains/stable-000.example.com/history")
        assert before.json()["providers"]["alexa"]["days_listed"] == 4

        for day in (4, 5):
            response = service.handle_request(
                "/v1/ingest", {"Content-Type": "application/json"},
                method="POST", body=_ingest_body("alexa", day))
            assert response.status == 200
            assert response.json()["ingested"]["entries"] == len(_day_entries(day))

        # The cold path: an archive built directly from the same snapshots.
        cold = ListArchive.from_snapshots(
            [ListSnapshot("alexa", _snapshot("alexa", day).date,
                          _day_entries(day)) for day in range(6)])
        live = service.handle_request("/v1/providers/alexa/stability")
        assert live.status == 200
        assert live.body == json_bytes(_expected_stability(cold, "alexa"))
        live_top = service.handle_request("/v1/providers/alexa/stability?top_n=20")
        assert live_top.body == json_bytes(_expected_stability(cold, "alexa", 20))

        history = service.handle_request(
            "/v1/domains/stable-000.example.com/history").json()
        section = history["providers"]["alexa"]
        assert section["days_listed"] == 6
        assert section["last_seen"] == (BASE_DATE + dt.timedelta(days=5)).isoformat()
        expected_obs = [
            {"date": s.date.isoformat(),
             "rank": s.entries.index("stable-000.example.com") + 1}
            for s in cold]
        assert section["observations"] == expected_obs

    def test_ingest_extends_compare_across_providers(self, tmp_path):
        store = _seeded_store(tmp_path / "s", provider="alexa", days=3)
        store.append_archive(ListArchive.from_snapshots(
            [_snapshot("umbrella", day) for day in range(3)]))
        service = QueryService(store)
        service.handle_request("/v1/compare?providers=alexa,umbrella")
        for provider in ("alexa", "umbrella"):
            assert service.handle_request(
                "/v1/ingest", method="POST",
                body=_ingest_body(provider, 3)).status == 200
        cold = {
            name: ListArchive.from_snapshots(
                [ListSnapshot(name, _snapshot(name, d).date, _day_entries(d))
                 for d in range(4)])
            for name in ("alexa", "umbrella")}
        series = intersection_over_time(cold)
        live = service.handle_request("/v1/compare?providers=alexa,umbrella").json()
        assert live["days"] == 4
        assert live["series"] == {
            date.isoformat(): {"&".join(pair): count
                               for pair, count in matrix.items()}
            for date, matrix in series.items()}

    def test_reload_from_disk_matches_live_state(self, tmp_path):
        # The live path is durable: a cold process opening the same store
        # sees exactly what the serving process answered.
        store = _seeded_store(tmp_path / "s", days=3)
        service = QueryService(store)
        assert service.handle_request(
            "/v1/ingest", method="POST",
            body=_ingest_body("alexa", 3)).status == 200
        live = service.handle_request("/v1/providers/alexa/stability")
        reopened = QueryService(ArchiveStore(tmp_path / "s", create=False))
        assert reopened.handle_request(
            "/v1/providers/alexa/stability").body == live.body


@pytest.mark.parametrize("reader_threads", [8])
def test_concurrent_readers_during_live_appends(tmp_path, reader_threads):
    """The satellite stress test: 8 wire readers + 1 wire writer.

    A month of snapshots is POSTed while readers issue history,
    stability, compare and batch requests.  Nothing may 5xx, every
    response must be internally consistent (ETag == SHA-256 of body),
    and reads after the writer finishes must reflect the final day.
    """
    seed_days, append_days = 5, 30
    store = _seeded_store(tmp_path / "s", days=seed_days)
    store.append_archive(ListArchive.from_snapshots(
        [_snapshot("umbrella", day) for day in range(seed_days)]))
    service = QueryService(store)
    server = EventLoopServer(service)
    port = server.server_address[1]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{port}"
    writer_done = threading.Event()
    failures: list[str] = []

    def fetch(target, method="GET", body=None, headers=None):
        request = urllib.request.Request(
            base + target, data=body, method=method, headers=headers or {})
        try:
            with urllib.request.urlopen(request, timeout=30) as wire:
                return wire.status, dict(wire.headers), wire.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def check(target, status, headers, payload):
        if status >= 500:
            failures.append(f"{target}: 5xx ({status}): {payload[:200]!r}")
            return
        etag = headers.get("ETag")
        if status == 200 and etag != \
                '"' + hashlib.sha256(payload).hexdigest() + '"':
            failures.append(f"{target}: ETag does not match body hash")

    batch_body = json.dumps({"requests": [
        "/v1/meta",
        "/v1/domains/stable-000.example.com/history?top_k=10",
        "/v1/providers/alexa/stability?top_n=20",
    ]}).encode("utf-8")

    def reader(seed):
        targets = [
            "/v1/domains/stable-000.example.com/history",
            f"/v1/domains/stable-0{seed:02d}.example.com/history?top_k=10",
            "/v1/providers/alexa/stability?top_n=20",
            "/v1/compare?providers=alexa,umbrella&top_n=25",
            "/v1/meta",
        ]
        iteration = 0
        try:
            while not writer_done.is_set() or iteration % len(targets) != 0:
                target = targets[iteration % len(targets)]
                iteration += 1
                status, headers, payload = fetch(target)
                check(target, status, headers, payload)
                status, headers, payload = fetch(
                    "/v1/query", method="POST", body=batch_body,
                    headers={"Content-Type": "application/json"})
                check("/v1/query", status, headers, payload)
                if status == 200:
                    batch = json.loads(payload)
                    for item in batch["responses"]:
                        if item["status"] >= 500:
                            failures.append(f"batch {item['target']}: 5xx")
                        # The batch runs under one lock hold: every
                        # version-bearing payload matches the top level.
                        if (item["status"] == 200
                                and item["target"] == "/v1/meta"
                                and item["payload"]["store_version"]
                                != batch["store_version"]):
                            failures.append(
                                f"batch saw meta version "
                                f"{item['payload']['store_version']} under "
                                f"batch version {batch['store_version']}")
        except Exception as error:  # noqa: BLE001 — surfaced via assert
            failures.append(f"reader {seed}: {type(error).__name__}: {error}")

    def writer():
        try:
            for day in range(seed_days, seed_days + append_days):
                status, headers, payload = fetch(
                    "/v1/ingest", method="POST",
                    body=_ingest_body("alexa", day),
                    headers={"Content-Type": "application/json"})
                if status != 200:
                    failures.append(
                        f"ingest day {day}: {status}: {payload[:200]!r}")
                    return
                # The 200 is a barrier: this read must already see the day.
                status, _, payload = fetch(
                    "/v1/domains/stable-000.example.com/history")
                seen = json.loads(payload)["providers"]["alexa"]["days_listed"]
                if status != 200 or seen != day + 1:
                    failures.append(
                        f"post-append read after day {day} saw {seen} days")
                    return
        except Exception as error:  # noqa: BLE001
            failures.append(f"writer: {type(error).__name__}: {error}")
        finally:
            writer_done.set()

    threads = [threading.Thread(target=reader, args=(n,))
               for n in range(reader_threads)]
    writer_thread = threading.Thread(target=writer)
    try:
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        writer_done.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not writer_thread.is_alive(), "writer never finished"
        assert not any(t.is_alive() for t in threads), "a reader never finished"
        assert not failures, failures[:10]

        # The final state is the full month, served and exact.
        status, _, payload = fetch("/v1/domains/stable-000.example.com/history")
        assert status == 200
        section = json.loads(payload)["providers"]["alexa"]
        assert section["days_listed"] == seed_days + append_days
        last = BASE_DATE + dt.timedelta(days=seed_days + append_days - 1)
        assert section["last_seen"] == last.isoformat()
        assert server.unhandled_errors == []
    finally:
        writer_done.set()
        server.shutdown()
        server.server_close()


class TestLockAuditRegression:
    """The LRU's version key and its body must be read under one lock.

    ``/v1/meta`` embeds ``store_version`` in the payload and the service
    stamps ``X-Repro-Store-Version`` from the version the cache key was
    derived under — if any path read the version outside the lock, a
    concurrent ingest would let a pre-append body be cached (and served)
    under the post-append version, and the two values would diverge.
    """

    def test_meta_version_header_matches_body_under_threads(self, tmp_path):
        store = _seeded_store(tmp_path / "s", days=3)
        # A tiny LRU forces constant eviction churn alongside the races.
        service = QueryService(store, cache_size=2)
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            targets = ["/v1/meta",
                       "/v1/domains/stable-000.example.com/history",
                       "/v1/providers/alexa/stability?top_n=10"]
            i = 0
            try:
                while not stop.is_set():
                    target = targets[i % len(targets)]
                    i += 1
                    response = service.handle_request(target)
                    if response.status >= 500:
                        failures.append(f"{target}: {response.status}")
                        continue
                    if target == "/v1/meta" and response.status == 200:
                        header = int(response.headers["X-Repro-Store-Version"])
                        body_version = response.json()["store_version"]
                        if header != body_version:
                            failures.append(
                                f"meta cached under version {header} but "
                                f"body says {body_version}")
            except Exception as error:  # noqa: BLE001
                failures.append(f"reader: {type(error).__name__}: {error}")

        def writer():
            try:
                for day in range(3, 23):
                    response = service.handle_request(
                        "/v1/ingest", method="POST",
                        body=_ingest_body("alexa", day))
                    if response.status != 200:
                        failures.append(f"ingest {day}: {response.status}")
                        return
            except Exception as error:  # noqa: BLE001
                failures.append(f"writer: {type(error).__name__}: {error}")
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(8)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[:10]
        final = service.handle_request("/v1/meta")
        assert final.json()["providers"]["alexa"]["days"] == 23
