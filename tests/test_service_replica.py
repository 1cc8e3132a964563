"""Follower replication: convergence, byte identity, staleness, roles.

The consistency guarantee under test: a follower that replays the
leader's mutation log through the ordinary append machinery converges
to *byte-identical* store files — and therefore byte-identical ``/v1``
payloads at every shared version.  No fault injection here (that is
``test_service_chaos.py``); this suite pins the happy-path protocol.
"""

import datetime as dt
import json
import tempfile
from pathlib import Path

import pytest

from repro.service.api import QueryService, json_bytes
from repro.service.replica import Replica, ReplicaError
from repro.service.store import ArchiveStore
from repro.providers.base import ListSnapshot

BASE_DATE = dt.date(2018, 5, 1)


def _snapshot(provider: str, day: int, extra: tuple = ()) -> ListSnapshot:
    entries = (f"{provider}-day{day}.com", "shared.org",
               f"rotating-{day % 3}.net") + extra
    return ListSnapshot(provider, BASE_DATE + dt.timedelta(days=day), entries)


@pytest.fixture()
def leader(tmp_path: Path):
    store = ArchiveStore(tmp_path / "leader")
    for day in range(3):
        store.append(_snapshot("alexa", day))
        store.append(_snapshot("umbrella", day))
    return QueryService(store)


def _in_process_fetch(leader_service):
    def fetch(since, limit):
        response = leader_service.handle_request(
            f"/v1/replication/log?since={since}&max={limit}")
        assert response.status == 200, response.body
        return response.json()
    return fetch


def _follower(tmp_path: Path, leader_service, **kwargs):
    store = ArchiveStore(tmp_path / "follower")
    service = QueryService(store, role="follower")
    replica = Replica(store, _in_process_fetch(leader_service),
                      sleep=lambda s: None, **kwargs)
    service.attach_replica(replica)
    return store, service, replica


def _assert_stores_byte_identical(left: Path, right: Path) -> None:
    assert (left / "interner.tbl").read_bytes() == \
        (right / "interner.tbl").read_bytes()
    left_shards = sorted(p.relative_to(left) for p in left.rglob("*.rls"))
    right_shards = sorted(p.relative_to(right) for p in right.rglob("*.rls"))
    assert left_shards == right_shards
    for shard in left_shards:
        assert (left / shard).read_bytes() == (right / shard).read_bytes()


class TestBootstrap:
    def test_fresh_follower_converges(self, leader, tmp_path):
        store, _, replica = _follower(tmp_path, leader, batch=2)
        applied = replica.sync_to_leader()
        assert applied == 6
        assert store.version == leader.store.version
        assert replica.staleness() == 0
        _assert_stores_byte_identical(leader.store.root, store.root)

    def test_payloads_byte_identical(self, leader, tmp_path):
        _, service, replica = _follower(tmp_path, leader)
        replica.sync_to_leader()
        for target in ("/v1/meta", "/v1/providers/alexa/stability",
                       "/v1/domains/shared.org/history",
                       "/v1/compare?providers=alexa,umbrella",
                       "/v1/replication/log?since=0&max=256"):
            assert leader.handle_request(target).body == \
                service.handle_request(target).body, target

    def test_incremental_tail(self, leader, tmp_path):
        store, _, replica = _follower(tmp_path, leader)
        replica.sync_to_leader()
        leader.ingest(_snapshot("alexa", 3))
        assert replica.staleness() == 0  # not yet observed
        applied = replica.sync_once()
        assert applied == 1
        assert store.version == leader.store.version
        _assert_stores_byte_identical(leader.store.root, store.root)

    def test_report_replication(self, leader, tmp_path):
        document = json_bytes({"profile": "demo", "metrics": {"x": 1.25}})
        leader.store.save_report_bytes("demo", document)
        store, service, replica = _follower(tmp_path, leader)
        replica.sync_to_leader()
        assert store.load_report_bytes("demo") == document
        target = "/v1/scenarios/demo/report"
        assert leader.handle_request(target).body == \
            service.handle_request(target).body

    def test_idempotent_redelivery(self, leader, tmp_path):
        store, _, replica = _follower(tmp_path, leader)
        replica.sync_to_leader()
        version = store.version
        # Re-deliver the whole log: every entry must be skipped.
        payload = _in_process_fetch(leader)(0, 256)
        for entry in payload["entries"]:
            assert replica._apply(entry) is False
        assert store.version == version

    def test_gap_detection(self, leader, tmp_path):
        store, _, replica = _follower(tmp_path, leader)
        entry = _in_process_fetch(leader)(0, 256)["entries"][2]
        assert entry["version"] == 3 > store.version + 1
        with pytest.raises(ReplicaError, match="gap"):
            replica._apply(entry)

    def test_restart_resumes_from_durable_version(self, leader, tmp_path):
        store, _, replica = _follower(tmp_path, leader, batch=2)
        replica.sync_to_leader()
        leader.ingest(_snapshot("umbrella", 3))
        # Simulated restart: reopen the store, rebuild the tailer.
        store.close()
        reopened = ArchiveStore(tmp_path / "follower", create=False)
        replica2 = Replica(reopened, _in_process_fetch(leader),
                           sleep=lambda s: None)
        replica2.sync_to_leader()
        assert reopened.version == leader.store.version
        _assert_stores_byte_identical(leader.store.root, reopened.root)


class TestStatusAndHealth:
    def test_status_shape(self, leader, tmp_path):
        _, _, replica = _follower(tmp_path, leader, max_staleness=1)
        status = replica.status()
        assert status["staleness"] is None  # never synced
        assert not replica.ready()
        replica.sync_to_leader()
        status = replica.status()
        assert status["staleness"] == 0
        assert status["leader_version"] == leader.store.version
        assert status["breaker"] == "closed"
        assert status["last_error"] is None
        assert status["entries_applied"] == 6
        assert replica.ready()
        assert set(status) == {
            "leader_version", "local_version", "staleness", "max_staleness",
            "breaker", "last_error", "sync_cycles", "entries_applied"}

    def test_ready_endpoint_tracks_replica(self, leader, tmp_path):
        _, service, replica = _follower(tmp_path, leader)
        assert service.handle_request("/v1/ready").status == 503
        replica.sync_to_leader()
        response = service.handle_request("/v1/ready")
        assert response.status == 200
        assert response.json()["ready"] is True
        assert response.headers["Cache-Control"] == "no-store"

    def test_health_reports_degraded_on_sync_failure(self, leader, tmp_path):
        store = ArchiveStore(tmp_path / "follower")
        service = QueryService(store, role="follower")

        def broken_fetch(since, limit):
            raise ConnectionRefusedError("leader down")

        from repro.util.retry import RetryPolicy
        replica = Replica(store, broken_fetch, sleep=lambda s: None,
                          policy=RetryPolicy(max_attempts=2, base_delay=0.0,
                                             max_delay=0.0))
        service.attach_replica(replica)
        from repro.util.retry import RetryExhaustedError
        with pytest.raises(RetryExhaustedError):
            replica.sync_once()
        health = service.handle_request("/v1/health").json()
        assert health["status"] == "degraded"
        assert "ConnectionRefusedError" in health["replication"]["last_error"]

    def test_health_is_never_cached(self, leader, tmp_path):
        _, service, replica = _follower(tmp_path, leader)
        before = service.handle_request("/v1/health").json()
        replica.sync_to_leader()
        after = service.handle_request("/v1/health").json()
        # Staleness moved with no store-version change on the leader:
        # a memoised body would still show the pre-sync state.
        assert before["replication"]["staleness"] is None
        assert after["replication"]["staleness"] == 0

    def test_leader_health(self, leader):
        health = leader.handle_request("/v1/health").json()
        assert health["role"] == "leader"
        assert health["status"] == "ok"
        assert "replication" not in health
        assert leader.handle_request("/v1/ready").status == 200


class TestRoles:
    def test_follower_rejects_ingest(self, leader, tmp_path):
        _, service, _ = _follower(tmp_path, leader)
        body = json.dumps({"provider": "x", "date": "2018-06-01",
                           "entries": ["a.com"]}).encode()
        response = service.handle_request("/v1/ingest", method="POST",
                                          body=body)
        assert response.status == 403
        assert "follower" in response.json()["error"]["message"]

    def test_leader_is_default_role(self, leader):
        assert leader.role == "leader"

    def test_unknown_role_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            QueryService(ArchiveStore(tmp_path / "s"), role="observer")

    def test_leader_behind_replica_refused(self, leader, tmp_path):
        store, _, replica = _follower(tmp_path, leader)
        replica.sync_to_leader()
        store.append(_snapshot("alexa", 9))  # local divergence
        with pytest.raises(ReplicaError, match="behind"):
            replica.sync_once()


class TestReplicationEndpoint:
    def test_batching_and_remaining(self, leader):
        first = leader.handle_request(
            "/v1/replication/log?since=0&max=4").json()
        assert len(first["entries"]) == 4
        assert first["remaining"] == 2
        second = leader.handle_request(
            "/v1/replication/log?since=4&max=4").json()
        assert len(second["entries"]) == 2
        assert second["remaining"] == 0
        versions = [e["version"] for e in first["entries"] + second["entries"]]
        assert versions == list(range(1, 7))

    def test_since_at_head_is_empty(self, leader):
        payload = leader.handle_request(
            f"/v1/replication/log?since={leader.store.version}").json()
        assert payload["entries"] == []
        assert payload["remaining"] == 0

    def test_log_is_cacheable(self, leader):
        target = "/v1/replication/log?since=0"
        assert leader.handle_request(target).headers["X-Repro-Cache"] == "miss"
        assert leader.handle_request(target).headers["X-Repro-Cache"] == "hit"

    def test_validation(self, leader):
        assert leader.handle_request(
            "/v1/replication/log?since=-1").status == 400
        assert leader.handle_request(
            "/v1/replication/log?max=0").status == 400
        assert leader.handle_request(
            "/v1/replication/log?max=100000").status == 400
        assert leader.handle_request(
            "/v1/replication/log?bogus=1").status == 400
