"""Worker-pool tests: pre-fork serving, consistency, chaos, metrics.

The pool's correctness claims, each as a test:

* **Byte-identity** — every payload a pool worker serves equals, byte
  for byte, what a single-process :class:`QueryService` over the same
  store serves (same ETags), at every shared store version.
* **Write path** — ``POST /v1/ingest`` through any read worker is
  forwarded to the writer; every reader observes the published version
  within the configured staleness bound (measured, not assumed).
* **Supervision** — SIGKILL a random read worker mid-load: survivors
  answer no 5xx, the parent respawns the slot, and the respawned
  worker serves identical bytes.
* **Observability** — the parent's aggregated exposition parses with
  the ordinary :func:`parse_exposition` and sums per-worker counters.

POSIX-only (``os.fork``), like the pool itself.
"""

import http.client
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import aggregate_expositions, parse_exposition
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.store import ArchiveStore
from repro.service.workers import CRASH_EXIT_CODE, WorkerPool

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker pool requires os.fork")

#: Endpoints whose pool-served bytes must match single-process serving.
DIFFERENTIAL_TARGETS = (
    "/v1/meta",
    "/v1/providers/alexa/stability",
    "/v1/providers/umbrella/stability?top_n=5",
    "/v1/compare?providers=alexa,umbrella",
    "/v1/domains/google.com/history",
)


def _get(url: str, timeout: float = 10.0,
         retries: int = 10) -> tuple[int, dict, bytes]:
    """GET with retry on connection-level failures only.

    A killed worker resets the connections it had already accepted;
    that is a transport event the balancer (or any client) retries.
    HTTP statuses — including 5xx — are returned as-is so the no-5xx
    assertions stay meaningful.
    """
    for attempt in range(retries):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()
        except (ConnectionError, http.client.RemoteDisconnected):
            time.sleep(0.05)
    raise AssertionError(f"no worker answered {url} after {retries} tries")


def _post(url: str, body: bytes, timeout: float = 30.0) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture(scope="module")
def pool_store(tmp_path_factory, small_run):
    root = tmp_path_factory.mktemp("poolstore") / "store"
    ArchiveStore.from_archives(root, small_run.archives).close()
    return root


@pytest.fixture(scope="module")
def pool(pool_store):
    with WorkerPool(pool_store, workers=2, poll_interval=0.05) as pool:
        yield pool


@pytest.fixture(scope="module")
def reference(pool_store):
    """Single-process answers over a read-only view of the same store."""
    store = ArchiveStore(pool_store, create=False, read_only=True)
    service = QueryService(store, role="reader")
    yield service
    store.close()


class TestPoolServing:
    def test_pool_payloads_byte_identical_to_single_process(
            self, pool, reference):
        reference.refresh_from_disk()
        for target in DIFFERENTIAL_TARGETS:
            expected = reference.handle_request(target)
            status, headers, body = _get(
                f"http://127.0.0.1:{pool.port}{target}")
            assert status == expected.status, target
            assert body == expected.body, f"payload mismatch for {target}"
            assert headers.get("ETag") == expected.headers.get("ETag"), target

    def test_every_worker_serves_identical_bytes(self, pool):
        """Hit the shared socket enough that every worker answers."""
        bodies = set()
        etags = set()
        for _ in range(24):
            status, headers, body = _get(
                f"http://127.0.0.1:{pool.port}/v1/meta")
            assert status == 200
            bodies.add(body)
            etags.add(headers.get("ETag"))
        assert len(bodies) == 1
        assert len(etags) == 1

    def test_keepalive_burst_over_pool_port(self, pool):
        """Many requests down ONE connection land on one reader."""
        import socket
        with socket.create_connection(
                ("127.0.0.1", pool.port), timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")
            bodies = set()
            for _ in range(16):
                sock.sendall(b"GET /v1/meta HTTP/1.1\r\nHost: t\r\n\r\n")
                status_line = reader.readline()
                assert status_line.startswith(b"HTTP/1.1 200"), status_line
                headers = {}
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                bodies.add(reader.read(int(headers["content-length"])))
            assert len(bodies) == 1

    def test_reader_reports_disk_tail_replication(self, pool):
        status, _, body = _get(f"http://127.0.0.1:{pool.port}/v1/health")
        payload = json.loads(body)
        assert status == 200
        assert payload["role"] == "reader"
        assert payload["replication"]["mode"] == "disk-tail"
        assert set(payload["replication"]) == {
            "mode", "leader_version", "local_version", "staleness",
            "max_staleness", "last_error", "sync_cycles", "entries_applied",
            "last_adopt_seconds"}
        assert payload["shared_cache"]["max_bytes"] > 0

    def test_writer_port_serves_leader(self, pool):
        status, _, body = _get(
            f"http://127.0.0.1:{pool.writer_port}/v1/health")
        assert status == 200
        assert json.loads(body)["role"] == "leader"


def _pipelined_rps(port: int, target: str, connections: int,
                   per_connection: int) -> float:
    """Responses/s over keep-alive connections, each request burst sent first.

    One thread frames every response (status line, headers,
    ``Content-Length`` body), so the client never waits on a round trip
    and the measured ceiling is the server's.
    """
    request = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
    socks = [socket.create_connection(("127.0.0.1", port), timeout=30)
             for _ in range(connections)]
    try:
        start = time.perf_counter()
        for sock in socks:
            sock.sendall(request * per_connection)
        for sock in socks:
            with sock.makefile("rb") as reader:
                for _ in range(per_connection):
                    status_line = reader.readline()
                    assert status_line.startswith(b"HTTP/1.1 200"), status_line
                    length = 0
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":", 1)[1])
                    assert len(reader.read(length)) == length
        return connections * per_connection / (time.perf_counter() - start)
    finally:
        for sock in socks:
            sock.close()


class TestPoolThroughput:
    @pytest.mark.scale
    def test_cached_throughput_five_times_per_request_single_process(
            self, pool, pool_store):
        """The pool's cached reads outrun per-request single-process serving.

        The baseline is one ``EventLoopServer`` over the same store files,
        with a fresh TCP connection per request; the pool is driven with
        pipelined keep-alive connections, best of three trials.
        """
        target = "/v1/meta"
        store = ArchiveStore(pool_store, create=False, read_only=True)
        server = EventLoopServer(QueryService(store, role="reader"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}{target}"
            assert _get(url)[0] == 200  # warm the cache
            requests = 300
            start = time.perf_counter()
            for _ in range(requests):
                _get(url)
            baseline_rps = requests / (time.perf_counter() - start)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            store.close()
        assert not thread.is_alive()
        pool_rps = max(_pipelined_rps(pool.port, target, connections=8,
                                      per_connection=250)
                       for _ in range(3))
        speedup = pool_rps / baseline_rps
        assert speedup >= 5, (
            f"pool {pool_rps:.0f} req/s is only {speedup:.1f}x the "
            f"per-request single process ({baseline_rps:.0f} req/s)")


class TestPoolWritePath:
    def test_ingest_through_reader_reaches_every_worker(self, pool,
                                                        reference):
        base = f"http://127.0.0.1:{pool.port}"
        before = json.loads(_get(base + "/v1/meta")[2])["store_version"]
        body = json.dumps({"provider": "alexa", "date": "2030-01-01",
                           "entries": ["pool-a.com", "pool-b.org"]}).encode()
        status, headers, _ = _post(base + "/v1/ingest", body)
        assert status == 200
        assert headers.get("X-Repro-Forwarded") == "writer"
        # The writer only appended: it serves no reads, so it never
        # loaded an archive or extended the delta engine.
        status, _, text = _get(
            f"http://127.0.0.1:{pool.writer_port}/v1/metrics")
        writer = parse_exposition(text.decode("utf-8"))
        assert status == 200
        assert writer["repro_store_appends_total"] >= 1
        assert writer["repro_store_archive_loads_total"] == 0
        assert writer["repro_delta_extends_total"] == 0
        # The forwarding reader refreshed synchronously: read-your-writes.
        # Every *other* reader converges within the staleness bound; the
        # bound is poll_interval plus one refresh, measured generously.
        deadline = time.monotonic() + max(2.0, pool.poll_interval * 40)
        versions = set()
        while time.monotonic() < deadline:
            versions = {
                json.loads(_get(base + "/v1/meta")[2])["store_version"]
                for _ in range(8)}
            if versions == {before + 1}:
                break
            time.sleep(pool.poll_interval)
        assert versions == {before + 1}, \
            f"readers did not converge: saw versions {versions}"
        # At the new version every reader's payloads are still byte- and
        # ETag-identical to single-process serving of the same files.
        # Each reader is asked on its own port, so none goes unchecked.
        reference.refresh_from_disk()
        for slot in pool.describe()["workers"]:
            if slot["role"] != "reader":
                continue
            worker = f"http://127.0.0.1:{slot['port']}"
            deadline = time.monotonic() + 10
            while json.loads(_get(worker + "/v1/meta")[2])[
                    "store_version"] != before + 1:
                assert time.monotonic() < deadline, f"{slot} never adopted"
                time.sleep(pool.poll_interval)
            for target in DIFFERENTIAL_TARGETS:
                expected = reference.handle_request(target)
                status, headers, body = _get(worker + target)
                assert (status, body) == (expected.status, expected.body), \
                    target
                assert headers.get("ETag") == expected.headers.get("ETag")

    def test_measured_staleness_within_bound(self, pool):
        status, _, body = _get(f"http://127.0.0.1:{pool.port}/v1/health")
        replication = json.loads(body)["replication"]
        adopt = replication["last_adopt_seconds"]
        if adopt is not None:  # this worker adopted at least one version
            # One poll interval plus scheduling slack: the measured
            # staleness bound the module docstring promises.
            assert adopt <= pool.poll_interval + 1.0

    def test_duplicate_ingest_conflicts(self, pool):
        base = f"http://127.0.0.1:{pool.port}"
        body = json.dumps({"provider": "alexa", "date": "2030-01-02",
                           "entries": ["dup.com"]}).encode()
        first, _, _ = _post(base + "/v1/ingest", body)
        second, _, payload = _post(base + "/v1/ingest", body)
        assert first == 200
        assert second == 409
        assert json.loads(payload)["error"]["status"] == 409


class TestPoolSupervision:
    def test_sigkill_reader_respawns_without_survivor_5xx(self, pool,
                                                          pool_store):
        base = f"http://127.0.0.1:{pool.port}"
        # Let every reader adopt any version a previous test published,
        # so one reference body is THE body for the whole pool.
        deadline = time.monotonic() + 5
        bodies = set()
        while time.monotonic() < deadline:
            bodies = {_get(base + "/v1/meta")[2] for _ in range(8)}
            if len(bodies) == 1:
                break
            time.sleep(pool.poll_interval)
        assert len(bodies) == 1, "pool did not settle before the kill"
        reference_body = bodies.pop()
        restarts_before = pool.describe()["restarts"]
        victim = pool.worker_pids("reader")[0]
        os.kill(victim, signal.SIGKILL)
        statuses = set()
        for _ in range(60):
            status, _, body = _get(base + "/v1/meta")
            statuses.add(status)
            assert body == reference_body
        assert statuses == {200}, f"survivors answered {statuses - {200}}"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            pids = pool.worker_pids("reader")
            if victim not in pids and len(pids) == pool.workers \
                    and pool.describe()["restarts"] > restarts_before:
                break
            time.sleep(0.05)
        description = pool.describe()
        assert description["restarts"] > restarts_before
        assert victim not in pool.worker_pids("reader")
        # The respawned worker answers identical bytes once ready.
        pool.wait_ready(timeout=10)
        _, _, body = _get(base + "/v1/meta")
        assert body == reference_body
        # Publish a fresh version and require identity there too: the
        # respawned reader adopts it like every survivor.
        ingest = json.dumps({"provider": "alexa", "date": "2030-02-01",
                             "entries": ["post-respawn.com"]}).encode()
        status, _, _ = _post(base + "/v1/ingest", ingest)
        assert status == 200
        store = ArchiveStore(pool_store, create=False, read_only=True)
        service = QueryService(store, role="reader")
        try:
            service.refresh_from_disk()
            expected = bytes(service.handle_request("/v1/meta").body)
            deadline = time.monotonic() + 10
            seen = set()
            while time.monotonic() < deadline:
                seen = {_get(base + "/v1/meta")[2] for _ in range(8)}
                if seen == {expected}:
                    break
                time.sleep(pool.poll_interval)
            assert seen == {expected}
        finally:
            store.close()

    def test_killed_worker_slot_records_signal_exit(self, pool):
        slots = pool.describe()["workers"]
        exits = [slot["last_exit"] for slot in slots
                 if slot["last_exit"] is not None]
        assert -signal.SIGKILL in exits


class TestPoolDrain:
    def test_sigterm_leaves_each_worker_through_one_exit(self, tmp_path,
                                                         small_run):
        """A drained worker calls ``os._exit`` once, so an exit hook that
        wraps it (the benchmark's span flush does) is never cut short by
        a second exit from another thread."""
        root = tmp_path / "store"
        ArchiveStore.from_archives(root, small_run.archives).close()
        exits = tmp_path / "exits"

        def worker_init(role: str, index: int) -> None:
            real_exit = os._exit

            def slow_exit(code: int) -> None:
                with open(exits, "a", encoding="utf-8") as log:
                    log.write(f"{os.getpid()} {code}\n")
                time.sleep(0.3)  # the hook is still at work
                real_exit(code)

            os._exit = slow_exit

        with WorkerPool(root, workers=2, poll_interval=0.05,
                        worker_init=worker_init) as pool:
            pids = pool.worker_pids()
        lines = exits.read_text(encoding="utf-8").splitlines()
        assert sorted(lines) == sorted(f"{pid} 0" for pid in pids)


class TestPoolMetrics:
    def test_aggregated_exposition_sums_worker_counters(self, pool):
        base = f"http://127.0.0.1:{pool.port}"
        for _ in range(10):
            _get(base + "/v1/meta")
        per_worker = []
        for slot in pool.describe()["workers"]:
            status, _, body = _get(
                f"http://127.0.0.1:{slot['port']}/v1/metrics")
            assert status == 200
            per_worker.append(body.decode("utf-8"))
        aggregated = parse_exposition(aggregate_expositions(per_worker))
        key = 'repro_http_requests_total{method="GET"}'
        total = sum(parse_exposition(text).get(key, 0.0)
                    for text in per_worker)
        assert aggregated[key] == total
        assert total >= 10

    def test_control_endpoint_serves_merged_metrics(self, pool):
        status, _, body = _get(
            f"http://127.0.0.1:{pool.control_port}/v1/metrics")
        assert status == 200
        samples = parse_exposition(body.decode("utf-8"))
        assert samples["repro_pool_workers_scraped"] == pool.workers + 1
        assert 'repro_http_requests_total{method="GET"}' in samples

    def test_control_endpoint_describes_pool(self, pool):
        status, _, body = _get(
            f"http://127.0.0.1:{pool.control_port}/v1/pool")
        payload = json.loads(body)
        assert status == 200
        assert payload["port"] == pool.port
        roles = sorted(worker["role"] for worker in payload["workers"])
        assert roles == ["reader"] * pool.workers + ["writer"]


class TestPoolChaos:
    def test_writer_crash_mid_append_respawns_and_recovers(
            self, tmp_path, small_run):
        """Seeded writer-death during a store append, under the pool.

        The fault plan (installed only in the writer child via
        ``worker_init``) crashes the writer's first shard append; a
        marker file keeps the *respawned* writer clean, so the schedule
        reads "the process died once, mid-append".  The crash becomes a
        real process exit (:data:`CRASH_EXIT_CODE`), the parent
        respawns the writer through the store's recovery path, and a
        retried ingest lands — with every reader converging to
        byte-identical payloads afterwards.
        """
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        root = tmp_path / "store"
        ArchiveStore.from_archives(root, small_run.archives).close()
        armed = tmp_path / "crash-armed"

        def worker_init(role: str, index: int) -> None:
            if role == "writer" and not armed.exists():
                armed.touch()
                faults.install(FaultPlan(seed=1337, rules=[
                    FaultRule("store.shard.write", "crash", on_calls=(1,)),
                ]))

        with WorkerPool(root, workers=2, poll_interval=0.05,
                        worker_init=worker_init) as pool:
            base = f"http://127.0.0.1:{pool.port}"
            before = json.loads(_get(base + "/v1/meta")[2])["store_version"]
            body = json.dumps({
                "provider": "alexa", "date": "2031-06-01",
                "entries": ["crash-a.com", "crash-b.org",
                            "crash-c.net"]}).encode()
            statuses = []
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    status, _, _ = _post(base + "/v1/ingest", body,
                                         timeout=10)
                except (ConnectionError, http.client.RemoteDisconnected,
                        TimeoutError, OSError):
                    # The writer died mid-request; the reader's forward
                    # surfaced it as 503 or the connection dropped.
                    time.sleep(0.1)
                    continue
                statuses.append(status)
                if status in (200, 409):
                    break
                time.sleep(0.1)
            assert statuses and statuses[-1] in (200, 409), statuses
            # The writer slot died with the crash exit code and respawned.
            deadline = time.monotonic() + 10
            writer_slot = None
            while time.monotonic() < deadline:
                writer_slot = next(
                    w for w in pool.describe()["workers"]
                    if w["role"] == "writer")
                if writer_slot["restarts"] >= 1 and writer_slot["pid"]:
                    break
                time.sleep(0.05)
            assert writer_slot["restarts"] >= 1
            assert writer_slot["last_exit"] == CRASH_EXIT_CODE
            # All readers converge on the post-recovery version and the
            # recovered store serves the ingested day.
            deadline = time.monotonic() + 10
            versions = set()
            while time.monotonic() < deadline:
                versions = {
                    json.loads(_get(base + "/v1/meta")[2])["store_version"]
                    for _ in range(6)}
                if versions == {before + 1}:
                    break
                time.sleep(0.1)
            assert versions == {before + 1}
            bodies = {_get(base + "/v1/domains/crash-a.com/history")[2]
                      for _ in range(8)}
            assert len(bodies) == 1
