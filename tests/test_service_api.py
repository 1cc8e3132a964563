"""Parity and protocol tests for the /v1 query API (repro.service.api).

The central assertion: every endpoint's payload is *byte-identical* to
computing the same answer directly with :mod:`repro.core` /
:mod:`repro.scenarios` on the same archives.  The expected documents here
are built independently in the tests from direct library calls — the API
must reproduce them to the byte (same floats, same key order, same JSON
layout).  The golden-marked test closes the loop against the committed
scenario fingerprints.
"""

import datetime as dt
import json
import pathlib
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
from repro.scenarios.golden import load_golden
from repro.scenarios.profiles import profile_names
from repro.scenarios.runner import ScenarioReport, canonical_float, run_scenario
from repro.service import api
from repro.service.api import QueryService, json_bytes
from repro.service.eventloop import EventLoopServer
from repro.service.index import DomainIndex
from repro.service.store import ArchiveStore

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture(scope="module")
def api_store(tmp_path_factory, small_run):
    return ArchiveStore.from_archives(tmp_path_factory.mktemp("apistore"),
                                      small_run.archives)


@pytest.fixture(scope="module")
def service(api_store):
    return QueryService(api_store)


def _probe_domains(small_run):
    alexa = small_run.archives["alexa"]
    head = alexa[0].entries[:3]
    tail = alexa[len(alexa) - 1].entries[-2:]
    return list(dict.fromkeys(head + tail)) + ["never-listed.example"]


class TestHistoryParity:
    def _expected(self, small_run, domain, top_k=None):
        sections = {}
        for provider in sorted(small_run.archives):
            archive = small_run.archives[provider]
            observations = [
                (snapshot.date, snapshot.entries.index(domain) + 1)
                for snapshot in archive if domain in snapshot.domain_set()]
            section = {
                "observations": [{"date": date.isoformat(), "rank": rank}
                                 for date, rank in observations],
                "days_listed": len(observations),
                "first_seen": observations[0][0].isoformat() if observations else None,
                "last_seen": observations[-1][0].isoformat() if observations else None,
                "best_rank": min((r for _, r in observations), default=None),
                "worst_rank": max((r for _, r in observations), default=None),
            }
            if top_k is not None:
                section["days_in_top_k"] = sum(
                    1 for _, rank in observations if rank <= top_k)
            sections[provider] = section
        payload = {"domain": domain, "providers": sections}
        if top_k is not None:
            payload["top_k"] = top_k
        return payload

    def test_byte_identical_to_archive_scan(self, service, small_run):
        for domain in _probe_domains(small_run):
            response = service.handle_request(f"/v1/domains/{domain}/history")
            assert response.status == 200
            assert response.body == json_bytes(self._expected(small_run, domain))

    def test_top_k_parameter(self, service, small_run):
        domain = small_run.archives["alexa"][0].entries[0]
        response = service.handle_request(f"/v1/domains/{domain}/history?top_k=10")
        assert response.body == json_bytes(
            self._expected(small_run, domain, top_k=10))

    def test_date_window(self, service, small_run):
        archive = small_run.archives["alexa"]
        dates = archive.dates()
        start, end = dates[2], dates[-3]
        domain = archive[0].entries[0]
        response = service.handle_request(
            f"/v1/domains/{domain}/history?providers=alexa"
            f"&start={start.isoformat()}&end={end.isoformat()}")
        observations = [
            {"date": s.date.isoformat(), "rank": s.entries.index(domain) + 1}
            for s in archive
            if start <= s.date <= end and domain in s.domain_set()]
        payload = response.json()
        assert payload["providers"]["alexa"]["observations"] == observations
        assert payload["start"] == start.isoformat()
        # Longevity stays whole-archive (the window trims observations only).
        full = [s for s in archive if domain in s.domain_set()]
        assert payload["providers"]["alexa"]["days_listed"] == len(full)


class TestStabilityParity:
    @pytest.mark.parametrize("provider", ["alexa", "umbrella", "majestic"])
    @pytest.mark.parametrize("top_n", [None, 100])
    def test_byte_identical_to_core_calls(self, service, small_run, provider, top_n):
        archive = small_run.archives[provider]
        changes = daily_changes(archive, top_n)
        mean_change = mean_daily_change(archive, top_n)
        counts = days_in_list(archive, top_n)
        always = (sum(1 for v in counts.values() if v == len(archive))
                  / len(counts)) if counts else 0.0
        list_size = len(archive[0])
        head = list_size if top_n is None else min(top_n, list_size)
        expected = {
            "provider": provider,
            "top_n": top_n,
            "days": len(archive),
            "list_size": list_size,
            "mean_daily_change": canonical_float(mean_change),
            "churn_fraction": canonical_float(mean_change / max(1, head)),
            "daily_changes": {d.isoformat(): c
                              for d, c in sorted(changes.items())},
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
        query = "" if top_n is None else f"?top_n={top_n}"
        response = service.handle_request(f"/v1/providers/{provider}/stability{query}")
        assert response.status == 200
        assert response.body == json_bytes(expected)


def _compare_bytes(archives, top_n=None):
    """The ``/v1/compare`` document built straight from the core call."""
    names = sorted(archives)
    series = intersection_over_time(archives, top_n=top_n)
    per_pair, daily = {}, {}
    for date, matrix in series.items():
        row = {"&".join(pair): count for pair, count in matrix.items()}
        daily[date.isoformat()] = row
        for pair, count in row.items():
            per_pair.setdefault(pair, []).append(count)
    return json_bytes({
        "providers": names,
        "top_n": top_n,
        "days": len(series),
        "pairs": {pair: {"mean": canonical_float(sum(c) / len(c)),
                         "min": min(c), "max": max(c)}
                  for pair, c in sorted(per_pair.items())},
        "series": daily,
    })


class TestCompareParity:
    def test_byte_identical_to_intersection_over_time(self, service, small_run):
        names = ["alexa", "majestic", "umbrella"]
        response = service.handle_request(
            "/v1/compare?providers=alexa,majestic,umbrella&top_n=100")
        assert response.body == _compare_bytes(
            {name: small_run.archives[name] for name in names}, top_n=100)

    def test_needs_two_providers(self, service):
        assert service.handle_request("/v1/compare?providers=alexa").status == 400


class TestScenarioReports:
    def test_served_bytes_equal_direct_report(self, tmp_path, small_run):
        # The stored document is the exact to_json() of the direct call,
        # so the endpoint serves byte-identical scenario numbers.
        report = ScenarioReport(
            profile="api_unit", description="unit fixture",
            config={"n_days": 3}, top_k=10,
            providers={"alexa": {"stability": {"churn_fraction": 0.01}}},
            intersection={"pairs": {}}, recommendations={})
        store = ArchiveStore(tmp_path / "s")
        store.save_report(report)
        response = QueryService(store).handle_request("/v1/scenarios/api_unit/report")
        assert response.status == 200
        assert response.body == report.to_bytes()
        assert ScenarioReport.from_json(
            response.body.decode("utf-8")).to_dict() == report.to_dict()

    def test_unknown_report_404(self, service):
        response = service.handle_request("/v1/scenarios/nosuch/report")
        assert response.status == 404

    def test_path_escaping_profile_is_400_not_crash(self, service):
        for target in ("/v1/scenarios/.hidden/report",
                       "/v1/scenarios/%2e%2e/report"):
            response = service.handle_request(target)
            assert response.status == 400, target
            assert response.json()["error"]["status"] == 400


@pytest.mark.golden
class TestScenarioReportGoldenParity:
    def test_served_reports_match_committed_goldens(self, tmp_path):
        # Store every built-in scenario's report, serve it, reconstruct
        # the fingerprint from the served bytes and compare against the
        # committed goldens: the API path cannot drift from the library.
        store = ArchiveStore(tmp_path / "s")
        service = QueryService(store)
        for name in profile_names():
            report = run_scenario(name)
            store.save_report(report)
            response = service.handle_request(f"/v1/scenarios/{name}/report")
            assert response.status == 200
            assert response.body == report.to_bytes()
            served = ScenarioReport.from_json(response.body.decode("utf-8"))
            assert served.fingerprint() == load_golden(GOLDEN_DIR, name), name


class TestIngestProtocol:
    def _store(self, tmp_path):
        snapshots = [
            ListSnapshot(provider="alexa",
                         date=dt.date(2018, 1, 1) + dt.timedelta(days=day),
                         entries=("a.com", "b.com", f"day{day}.com"))
            for day in range(2)]
        store = ArchiveStore(tmp_path / "ingest-store")
        store.append_archive(ListArchive.from_snapshots(snapshots))
        return store

    def test_json_ingest_round_trip(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        body = json.dumps({"provider": "alexa", "date": "2018-01-03",
                           "entries": ["a.com", " C.COM. ", "sub.b.com"]})
        response = service.handle_request(
            "/v1/ingest", {"Content-Type": "application/json"},
            method="POST", body=body.encode("utf-8"))
        assert response.status == 200
        payload = response.json()
        assert payload["ingested"] == {"provider": "alexa",
                                       "date": "2018-01-03", "entries": 3,
                                       "skipped_rows": 0}
        assert payload["store_version"] == service.store.version
        # The version header was captured under the same lock hold that
        # produced the body (the write-path half of the lock audit).
        assert response.headers["X-Repro-Store-Version"] == \
            str(payload["store_version"])
        # Normalised entries are served back (lowercase, dot-stripped).
        history = service.handle_request("/v1/domains/c.com/history").json()
        assert history["providers"]["alexa"]["observations"] == [
            {"date": "2018-01-03", "rank": 2}]

    def test_csv_ingest_with_query_params(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        # The empty-domain row ("17,") is skipped exactly as the offline
        # parser skips it — the row filter is shared with listio.
        response = service.handle_request(
            "/v1/ingest?provider=alexa&date=2018-01-03",
            {"Content-Type": "text/csv"},
            method="POST", body=b"rank,domain\r\n1,a.com\r\n17,\r\n2,z.com\r\n")
        assert response.status == 200
        assert response.json()["ingested"]["entries"] == 2
        meta = service.handle_request("/v1/meta").json()
        assert meta["providers"]["alexa"]["days"] == 3

    def test_csv_ingest_majestic_domain_column(self, tmp_path):
        # Majestic's rank,tld,domain,... format: the domain is column 2,
        # not the trailing column (which is numeric and would otherwise
        # pass DNS validation and be interned forever).
        service = QueryService(self._store(tmp_path))
        response = service.handle_request(
            "/v1/ingest?provider=majestic&date=2018-01-01&domain_column=2",
            {"Content-Type": "text/csv"},
            method="POST",
            body=b"rank,tld,domain,refsubnets\r\n"
                 b"1,com,a.com,5000\r\n2,org,m.org,4000\r\n")
        assert response.status == 200
        history = service.handle_request("/v1/domains/m.org/history").json()
        assert history["providers"]["majestic"]["observations"] == [
            {"date": "2018-01-01", "rank": 2}]

    def test_csv_ingest_skips_junk_rows_like_the_offline_parser(self, tmp_path):
        # Downloaded lists carry junk rows; the offline parser keeps
        # going past them, so the wire must not reject the whole day —
        # but the junk is dropped *before* interning, never stored.
        service = QueryService(self._store(tmp_path))
        response = service.handle_request(
            "/v1/ingest?provider=alexa&date=2018-01-03",
            {"Content-Type": "text/csv"},
            method="POST",
            body=b"1,a.com\r\n2,bad..label\r\n3," + b"x" * 300 + b".com\r\n4,z.com\r\n")
        assert response.status == 200
        assert response.json()["ingested"] == {
            "provider": "alexa", "date": "2018-01-03",
            "entries": 2, "skipped_rows": 2}
        history = service.handle_request("/v1/domains/z.com/history").json()
        assert history["providers"]["alexa"]["observations"] == [
            {"date": "2018-01-03", "rank": 2}]

    def test_csv_ingest_rejects_headers_and_bare_lines(self, tmp_path):
        # A bare "domain" header line must not be ingested as the rank-1
        # entry (it would pass DNS validation and occupy interner id
        # space forever); ranked rows are required, as in listio.
        service = QueryService(self._store(tmp_path))
        response = service.handle_request(
            "/v1/ingest?provider=alexa&date=2018-01-03",
            {"Content-Type": "text/csv"},
            method="POST", body=b"domain\r\na.com\r\nb.com\r\n")
        assert response.status == 400
        assert "no rank,domain rows" in response.json()["error"]["message"]

    def test_json_ingest_rejects_csv_only_params(self, tmp_path):
        # provider=/date= belong to the CSV branch; on a JSON body they
        # would be silently shadowed by the body's own fields.
        service = QueryService(self._store(tmp_path))
        body = json.dumps({"provider": "alexa", "date": "2018-01-03",
                           "entries": ["a.com"]}).encode()
        response = service.handle_request(
            "/v1/ingest?date=2018-01-04", method="POST", body=body)
        assert response.status == 400
        assert "CSV ingest only" in response.json()["error"]["message"]

    def test_new_provider_via_ingest(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        body = json.dumps({"provider": "fresh", "date": "2018-01-01",
                           "entries": ["a.com", "q.com"]})
        assert service.handle_request(
            "/v1/ingest", method="POST", body=body.encode()).status == 200
        meta = service.handle_request("/v1/meta").json()
        assert sorted(meta["providers"]) == ["alexa", "fresh"]
        assert meta["providers"]["fresh"]["days"] == 1

    def test_out_of_order_day_is_409(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        body = json.dumps({"provider": "alexa", "date": "2018-01-02",
                           "entries": ["a.com"]})
        response = service.handle_request(
            "/v1/ingest", method="POST", body=body.encode())
        assert response.status == 409
        assert "append-only" in response.json()["error"]["message"]
        # Nothing was applied: the served state is unchanged.
        assert service.handle_request("/v1/meta").json()[
            "providers"]["alexa"]["days"] == 2

    def test_validation_errors_are_400(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        bad_bodies = [
            b"",  # empty
            b"not json at all",
            json.dumps({"provider": "alexa", "date": "2018-01-03"}).encode(),
            json.dumps({"provider": "alexa", "date": "nope",
                        "entries": ["a.com"]}).encode(),
            json.dumps({"provider": "alexa", "date": "2018-01-03",
                        "entries": ["bad..label"]}).encode(),
            json.dumps({"provider": "alexa", "date": "2018-01-03",
                        "entries": ["a.com"], "surprise": True}).encode(),
        ]
        for body in bad_bodies:
            response = service.handle_request("/v1/ingest", method="POST",
                                              body=body)
            assert response.status == 400, body[:60]
            assert response.json()["error"]["status"] == 400
        # CSV without provider/date params is also a 400.
        assert service.handle_request(
            "/v1/ingest", {"Content-Type": "text/csv"},
            method="POST", body=b"1,a.com\r\n").status == 400

    def test_get_on_ingest_is_405_with_allow_post(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        response = service.handle_request("/v1/ingest")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"

    def test_ingest_invalidates_etags(self, tmp_path):
        service = QueryService(self._store(tmp_path))
        first = service.handle_request("/v1/meta")
        body = json.dumps({"provider": "alexa", "date": "2018-01-03",
                           "entries": ["a.com"]})
        service.handle_request("/v1/ingest", method="POST", body=body.encode())
        after = service.handle_request(
            "/v1/meta", {"If-None-Match": first.etag})
        assert after.status == 200  # stale ETag no longer matches
        assert after.etag != first.etag


def _adoption_store(root):
    """Three days of two providers, written through the ordinary append."""
    store = ArchiveStore(root)
    for provider, names in (("alexa", ("a.com", "b.com", "c.org")),
                            ("umbrella", ("a.com", "www.b.com", "d.net"))):
        store.append_archive(ListArchive.from_snapshots([
            ListSnapshot(provider=provider,
                         date=dt.date(2018, 1, 1) + dt.timedelta(days=day),
                         entries=names + (f"{provider}-day{day}.com",))
            for day in range(3)]))
    return store


#: Reads that must match a service over the reopened store, byte for byte.
ADOPTION_TARGETS = (
    "/v1/meta",
    "/v1/domains/a.com/history?top_k=2",
    "/v1/domains/late.example/history",
    "/v1/providers/alexa/stability?top_n=2",
    "/v1/compare",
)


class TestIngestOnlyAppends:
    """An ingest appends and answers; the next read adopts the day.

    The archives and the index change only in ``QueryService._refresh``,
    so an ingest must not load an archive, extend the delta engine or
    grow the index — and the reads after it must be byte-identical to a
    fresh service over the reopened store.
    """

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(api, "extend_base_id_sets")
        count(DomainIndex, "add")
        return calls

    def _ingest(self, service, provider, date):
        body = json.dumps({"provider": provider, "date": date,
                           "entries": ["late.example", "a.com"]})
        return service.handle_request("/v1/ingest", method="POST",
                                      body=body.encode())

    def _read_and_compare(self, service, root, counted):
        """Read every target, then compare against the reopened store.

        Returns the adoption calls the reads made (before the reference
        service makes its own).
        """
        got = {target: service.handle_request(target)
               for target in ADOPTION_TARGETS}
        adoption = dict(counted)
        reopened = QueryService(ArchiveStore(root, create=False,
                                             read_only=True))
        for target, response in got.items():
            want = reopened.handle_request(target)
            assert response.status == want.status == 200, target
            assert response.body == want.body, target
        return adoption

    @pytest.mark.parametrize("provider", ["alexa", "fresh"])
    def test_cold_leader_ingest_touches_no_read_state(self, tmp_path,
                                                      counted, provider):
        root = tmp_path / "s"
        service = QueryService(_adoption_store(root))
        response = self._ingest(service, provider, "2018-01-04")
        assert response.status == 200
        assert counted == {}
        adoption = self._read_and_compare(service, root, counted)
        # The first read replayed every stored day, the new one
        # included, and indexed each provider with one add.
        assert adoption == {"extend_base_id_sets": len(service.store),
                            "add": len(service.providers())}

    def test_second_ingest_after_warm_read(self, tmp_path, counted):
        root = tmp_path / "s"
        service = QueryService(_adoption_store(root))
        assert self._ingest(service, "alexa", "2018-01-04").status == 200
        assert service.handle_request("/v1/meta").status == 200
        counted.clear()
        assert self._ingest(service, "alexa", "2018-01-05").status == 200
        assert counted == {}
        adoption = self._read_and_compare(service, root, counted)
        # Adopted through the tail replay: one day, one extension.
        assert adoption == {"extend_base_id_sets": 1, "add": 1}


class TestAdoptionStep:
    """``_refresh`` catches up with appends that land during its walk."""

    def test_append_landing_mid_walk_is_adopted_by_the_next_read(
            self, tmp_path, monkeypatch):
        root = tmp_path / "s"
        store = _adoption_store(root)
        service = QueryService(store)
        assert service.handle_request("/v1/meta").status == 200

        def day(provider, offset):
            return ListSnapshot(
                provider=provider,
                date=dt.date(2018, 1, 1) + dt.timedelta(days=offset),
                entries=("a.com", f"{provider}-late{offset}.com"))

        store.append(day("alexa", 3))
        store.append(day("umbrella", 3))
        walk = ArchiveStore.iter_snapshots

        def iter_snapshots(self, provider, after=None):
            # Land an alexa append once alexa has been replayed, the way
            # a follower's replica thread appends without the service
            # lock.
            if provider == "umbrella" and len(store.dates("alexa")) == 4:
                store.append(day("alexa", 4))
            return walk(self, provider, after=after)

        monkeypatch.setattr(ArchiveStore, "iter_snapshots", iter_snapshots)
        assert service.handle_request("/v1/meta").status == 200
        assert len(store.dates("alexa")) == 5
        monkeypatch.undo()

        got = service.handle_request("/v1/meta")
        fresh = QueryService(ArchiveStore(root, create=False, read_only=True))
        want = fresh.handle_request("/v1/meta")
        assert got.headers["X-Repro-Store-Version"] == \
            want.headers["X-Repro-Store-Version"]
        assert got.json()["providers"]["alexa"]["days"] == 5
        assert got.body == want.body


class TestBaseSetsOnDemand:
    """Adoption builds no base-domain sets; only ``/v1/compare`` does."""

    TARGET = "/v1/compare?providers=alexa,umbrella"

    @staticmethod
    def _base_set_keys(service):
        return [key for archive in service._archives.values()
                for key in archive.__dict__.get("_analysis_cache", {})
                if key[0] == "base-domain-sets"]

    def _assert_compare_is_fresh(self, service, root):
        """The answer equals a new service's and the core computation's."""
        got = service.handle_request(self.TARGET)
        reopened = ArchiveStore(root, create=False, read_only=True)
        want = QueryService(reopened).handle_request(self.TARGET)
        assert got.status == want.status == 200
        assert got.body == want.body
        assert got.body == _compare_bytes(
            {name: reopened.load_archive(name)
             for name in ("alexa", "umbrella")})

    def test_untruncated_compare_builds_and_carries_base_sets(self, tmp_path):
        root = tmp_path / "s"
        writer = _adoption_store(root)
        reader = QueryService(ArchiveStore(root, create=False, read_only=True))
        assert reader.handle_request("/v1/meta").status == 200
        assert reader.handle_request("/v1/domains/a.com/history").status == 200
        assert self._base_set_keys(reader) == []

        self._assert_compare_is_fresh(reader, root)
        assert len(self._base_set_keys(reader)) == 2

        for provider in ("alexa", "umbrella"):
            writer.append(ListSnapshot(
                provider=provider, date=dt.date(2018, 1, 4),
                entries=("www.a.com", "late.example", "b.com")))
        assert reader.refresh_from_disk()
        # Adoption carried both providers' sets forward by the new day.
        assert len(self._base_set_keys(reader)) == 2
        self._assert_compare_is_fresh(reader, root)


class TestBatchQuery:
    def test_batch_matches_individual_gets(self, service):
        targets = ["/v1/meta", "/v1/providers/alexa/stability?top_n=50",
                   "/v1/compare?providers=alexa,majestic&top_n=50"]
        response = service.handle_request(
            "/v1/query", method="POST",
            body=json.dumps({"requests": targets}).encode())
        assert response.status == 200
        payload = response.json()
        assert payload["requests"] == len(targets)
        for item, target in zip(payload["responses"], targets):
            assert item["target"] == target
            assert item["status"] == 200
            assert item["payload"] == service.handle_request(target).json()

    def test_batch_embeds_per_target_errors(self, service):
        response = service.handle_request(
            "/v1/query", method="POST",
            body=json.dumps({"requests": ["/v1/meta", "/nope",
                                          "/v1/providers/ghost/stability"]}).encode())
        assert response.status == 200
        statuses = [item["status"] for item in response.json()["responses"]]
        assert statuses == [200, 404, 404]
        assert response.json()["responses"][1]["payload"]["error"]["status"] == 404

    def test_batch_validation(self, service):
        cases = [
            (b"[]", 400), (b"{}", 400),
            (json.dumps({"requests": []}).encode(), 400),
            (json.dumps({"requests": ["relative"]}).encode(), 400),
            (json.dumps({"requests": ["/v1/meta"], "x": 1}).encode(), 400),
            (json.dumps({"requests": ["/v1/meta"] * 101}).encode(), 400),
        ]
        for body, expected in cases:
            assert service.handle_request(
                "/v1/query", method="POST", body=body).status == expected, body[:40]

    def test_canonical_key_distinguishes_commas_from_repeats(self, service):
        # '?top_n=5&top_n=10' (valid, last wins) and '?top_n=5,10'
        # (invalid) must not share an LRU slot: warm the former, then the
        # latter must still cold-path to its 400.
        warm = service.handle_request(
            "/v1/providers/alexa/stability?top_n=5&top_n=10")
        assert warm.status == 200
        collided = service.handle_request(
            "/v1/providers/alexa/stability?top_n=5,10")
        assert collided.status == 400

    def test_get_on_query_is_405(self, service):
        response = service.handle_request("/v1/query")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"


class TestProtocol:
    def test_meta(self, service, api_store, small_run):
        payload = service.handle_request("/v1/meta").json()
        assert payload["store_version"] == api_store.version
        assert sorted(payload["providers"]) == sorted(small_run.archives)
        section = payload["providers"]["alexa"]
        archive = small_run.archives["alexa"]
        assert section["days"] == len(archive)
        assert section["first_date"] == archive.dates()[0].isoformat()
        assert section["top_domain"] == archive[len(archive) - 1].entries[0]

    def test_etag_revalidation(self, service):
        first = service.handle_request("/v1/meta")
        revalidated = service.handle_request(
            "/v1/meta", {"If-None-Match": first.etag})
        assert revalidated.status == 304
        assert revalidated.body == b""
        fresh = service.handle_request("/v1/meta", {"If-None-Match": '"stale"'})
        assert fresh.status == 200

    def test_lru_hit_and_append_invalidation(self, tmp_path):
        snapshots = [
            ListSnapshot(provider="alexa",
                         date=dt.date(2018, 1, 1) + dt.timedelta(days=day),
                         entries=("a.com", "b.com", f"day{day}.com"))
            for day in range(3)]
        store = ArchiveStore(tmp_path / "s")
        store.append_archive(ListArchive.from_snapshots(snapshots[:2]))
        service = QueryService(store)
        target = "/v1/domains/a.com/history"
        assert service.handle_request(target).headers["X-Repro-Cache"] == "miss"
        assert service.handle_request(target).headers["X-Repro-Cache"] == "hit"
        store.append(snapshots[2])
        response = service.handle_request(target)
        assert response.headers["X-Repro-Cache"] == "miss"
        assert response.json()["providers"]["alexa"]["days_listed"] == 3

    def test_report_save_does_not_reload_archives(self, tmp_path):
        store = ArchiveStore(tmp_path / "s")
        store.append(ListSnapshot(provider="alexa", date=dt.date(2018, 1, 1),
                                  entries=("a.com",)))
        service = QueryService(store)
        assert service.handle_request("/v1/meta").status == 200
        loaded = service._loaded_version
        report = ScenarioReport(
            profile="late_report", description="", config={}, top_k=1,
            providers={}, intersection={"pairs": {}}, recommendations={})
        store.save_report(report)
        response = service.handle_request("/v1/scenarios/late_report/report")
        assert response.status == 200
        assert service._loaded_version == loaded  # archives stayed warm

    def test_concurrent_requests_with_tiny_lru(self, api_store, small_run):
        # Hammer a 2-slot LRU from several threads: eviction churn must
        # never corrupt the cache or leak an exception to a request.
        service = QueryService(api_store, cache_size=2)
        domains = small_run.archives["alexa"][0].entries[:6]
        targets = [f"/v1/domains/{domain}/history" for domain in domains]
        failures = []

        def hammer(seed):
            try:
                for i in range(40):
                    response = service.handle_request(
                        targets[(seed + i) % len(targets)])
                    assert response.status == 200
            except Exception as error:  # noqa: BLE001 — collected for assert
                failures.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_errors(self, service):
        assert service.handle_request("/v1/providers/nosuch/stability").status == 404
        assert service.handle_request("/nope").status == 404
        assert service.handle_request(
            "/v1/providers/alexa/stability?top_n=zero").status == 400
        assert service.handle_request(
            "/v1/providers/alexa/stability?top_n=-3").status == 400
        assert service.handle_request(
            "/v1/domains/x/history?start=notadate").status == 400
        body = service.handle_request("/v1/providers/nosuch/stability").json()
        assert body["error"]["status"] == 404

    def test_http_server_serves_identical_bytes(self, service):
        server = EventLoopServer(service)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for target in ("/v1/meta", "/v1/providers/alexa/stability?top_n=50"):
                local = service.handle_request(target)
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}{target}", timeout=10) as wire:
                    assert wire.status == 200
                    assert wire.read() == local.body
                    assert wire.headers["ETag"] == local.etag
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/meta",
                headers={"If-None-Match":
                         service.handle_request("/v1/meta").etag})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 304
        finally:
            server.shutdown()
            server.server_close()

    def test_write_methods_rejected_with_405_and_allow(self, service):
        # The API is read-only: POST/PUT/DELETE must answer 405 with an
        # Allow header (not http.server's default 501), and the body must
        # be the usual JSON error envelope.
        server = EventLoopServer(service)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for method, data in (("POST", b'{"attempt": "write"}'),
                                 ("PUT", b"x"), ("DELETE", None)):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/meta", data=data, method=method)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                error = excinfo.value
                assert error.code == 405, method
                assert error.headers["Allow"] == "GET, HEAD", method
                payload = json.loads(error.read().decode("utf-8"))
                assert payload["error"]["status"] == 405
                assert method in payload["error"]["message"]
            # The connection stays usable for reads after the rejection.
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/v1/meta", timeout=10) as wire:
                assert wire.status == 200
        finally:
            server.shutdown()
            server.server_close()
