"""Balancer tests: round-robin, readiness ejection, re-admission.

The proxy's contract: any admitted backend may answer any request
(byte-identical payloads make round-robin safe), a backend failing
``/v1/ready`` leaves the rotation until the probe passes again, and
backend HTTP statuses — including clean 4xx — pass through verbatim
while connection-level failures are absorbed by retrying the next
backend.
"""

import datetime as dt
import http.client
import json
import os
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import inputs as perfbench_inputs
from repro.obs.metrics import parse_exposition
from repro.providers.base import ListArchive, ListSnapshot
from repro.service import cli
from repro.service.api import QueryService
from repro.service.balance import MAX_IDLE_PER_BACKEND, Backend, Balancer
from repro.service.eventloop import EventLoopServer
from repro.service.store import ArchiveStore

# Underscore aliases keep pytest from collecting the originals twice.
from test_service_fuzz import (  # noqa: F401
    TestHeaderAndParamFuzz as _HeaderFuzzContract,
    TestMalformedRequestLines as _MalformedLinesContract,
)


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture()
def backends(tmp_path):
    """Two single-process servers over one store, plus their service."""
    snapshots = [
        ListSnapshot("alexa", dt.date(2018, 5, 1) + dt.timedelta(days=day),
                     ("a.com", "b.org"))
        for day in range(3)
    ]
    store = ArchiveStore.from_archives(
        tmp_path / "store",
        {"alexa": ListArchive.from_snapshots(snapshots)})
    service = QueryService(store)
    servers = [EventLoopServer(service) for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    yield servers, service
    for server in servers:
        server.shutdown()
        server.server_close()
    store.close()


def _urls(servers) -> list[str]:
    return [f"http://127.0.0.1:{server.server_address[1]}"
            for server in servers]


class TestRotation:
    def test_round_robin_spreads_requests(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            for _ in range(8):
                status, _ = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
                assert status == 200
            counts = [b["requests"] for b in balancer.status()["backends"]]
            assert counts == [4, 4]

    def test_payloads_and_clean_errors_pass_through(self, backends):
        servers, service = backends
        expected = service.handle_request("/v1/meta")
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            status, body = _get(base + "/v1/meta")
            assert (status, body) == (200, expected.body)
            status, body = _get(base + "/v1/nope")
            assert status == 404
            assert json.loads(body)["error"]["status"] == 404

    def test_balancer_status_endpoint(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            status, body = _get(
                f"http://127.0.0.1:{balancer.port}/v1/balancer")
            payload = json.loads(body)
            assert status == 200
            assert payload["admitted"] == 2
            assert all(b["admitted"] for b in payload["backends"])


class TestEjection:
    def test_dead_backend_is_ejected_and_traffic_continues(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.05,
                      eject_after=1) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            servers[0].shutdown()
            servers[0].server_close()
            deadline = _deadline(5)
            while _now() < deadline:
                payload = json.loads(_get(base + "/v1/balancer")[1])
                if payload["admitted"] == 1:
                    break
            assert payload["admitted"] == 1
            dead, live = payload["backends"]
            assert not dead["admitted"] and dead["ejections"] == 1
            for _ in range(6):
                status, _ = _get(base + "/v1/meta")
                assert status == 200

    def test_unready_backend_is_ejected_then_readmitted(self, backends):
        """A follower answering 503 on /v1/ready leaves and re-enters."""
        servers, service = backends

        class _Gate:
            ready = True

            def staleness(self):
                return 0 if self.ready else 99

            def status(self):
                return {"mode": "test-gate", "last_error": None,
                        "breaker": "closed"}

            def ready(self=None):  # bound below
                raise NotImplementedError

        gate = _Gate()
        gate.ready_flag = True
        gate.ready = lambda: gate.ready_flag
        service.role = "follower"
        service._replica = gate
        try:
            with Balancer(_urls(servers), check_interval=0.05,
                          eject_after=1) as balancer:
                base = f"http://127.0.0.1:{balancer.port}"
                gate.ready_flag = False
                deadline = _deadline(5)
                while _now() < deadline:
                    payload = json.loads(_get(base + "/v1/balancer")[1])
                    if payload["admitted"] == 0:
                        break
                assert payload["admitted"] == 0
                status, _ = _get(base + "/v1/meta")
                assert status == 503  # no admitted backend
                gate.ready_flag = True
                deadline = _deadline(5)
                while _now() < deadline:
                    payload = json.loads(_get(base + "/v1/balancer")[1])
                    if payload["admitted"] == 2:
                        break
                assert payload["admitted"] == 2
                assert all(b["readmissions"] >= 1
                           for b in payload["backends"])
                status, _ = _get(base + "/v1/meta")
                assert status == 200
        finally:
            service.role = "leader"
            service._replica = None

    def test_probe_in_flight_at_ejection_does_not_readmit(self):
        """A request that ejects a backend while a probe of it is in
        flight saw the later state; that probe must not re-admit it."""
        entered, release = threading.Event(), threading.Event()

        class SlowReady(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_GET(self):  # noqa: N802
                entered.set()
                release.wait(10)
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

        server = ThreadingHTTPServer(("127.0.0.1", 0), SlowReady)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            balancer = Balancer([url])
            backend = balancer.backends[0]
            probe = threading.Thread(target=balancer.check_once)
            probe.start()
            assert entered.wait(10)
            balancer._eject(backend, "connection failure mid-request")
            release.set()
            probe.join(10)
            assert not probe.is_alive()
            assert not backend.admitted
            balancer.check_once()  # a probe sent after the ejection
            assert backend.admitted
        finally:
            release.set()
            server.shutdown()
            server.server_close()

    def test_one_failed_probe_never_ejects_at_default(self, recording):
        """A probe that lands on a reader between the writer's publish
        and the reader's adoption fails once; the default rides it out."""
        url, handler = recording()
        with Balancer([url], check_interval=30) as balancer:
            backend = balancer.backends[0]
            deadline = _deadline(5)
            while backend.probes < 2 and _now() < deadline:
                time.sleep(0.01)  # start() and the probe loop's first run
            for _ in range(5):
                handler.ready = False
                balancer.check_once()
                handler.ready = True
                balancer.check_once()
            state = balancer.status()["backends"][0]
        assert balancer.eject_after == 3
        assert state["admitted"]
        assert (state["ejections"], state["consecutive_failures"]) == (0, 0)
        assert state["probes"] == 12
        args = cli.build_parser().parse_args(["balance", "--backend", url])
        assert args.eject_after == 3

    def test_all_backends_out_answers_503(self, backends):
        servers, _ = backends
        urls = _urls(servers)
        for server in servers:
            server.shutdown()
            server.server_close()
        with Balancer(urls, check_interval=0.05, eject_after=1) as balancer:
            status, body = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
            assert status == 503
            assert json.loads(body)["error"]["status"] == 503


class _FlakyBackendHandler(BaseHTTPRequestHandler):
    """A backend that answers probes but dies on real traffic.

    ``/v1/ready`` passes so the balancer keeps it admitted; any other
    GET closes the connection before a status line (mid-request death);
    a POST *applies* the ingest to the shared service first and then
    dies — the nightmare case for a retrying proxy, because a replay on
    another backend would double-apply the day.
    """

    protocol_version = "HTTP/1.1"
    service: QueryService = None  # type: ignore[assignment]
    posts: list[bytes] = []
    drops = 0

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _die(self) -> None:
        type(self).drops += 1
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/v1/ready":
            body = b'{"ready": true}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._die()

    def do_POST(self) -> None:  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        type(self).posts.append(body)
        type(self).service.handle_request(
            "/v1/ingest", headers=dict(self.headers.items()),
            method="POST", body=body)
        self._die()


@pytest.fixture()
def flaky_first(backends):
    """[flaky, real] rotation: the dropper is always picked first."""
    servers, service = backends

    class Handler(_FlakyBackendHandler):
        posts = []
        drops = 0

    Handler.service = service
    flaky = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    flaky.daemon_threads = True
    threading.Thread(target=flaky.serve_forever, daemon=True).start()
    urls = [f"http://127.0.0.1:{flaky.server_address[1]}",
            _urls(servers)[1]]
    yield urls, Handler, service
    flaky.shutdown()
    flaky.server_close()


def _post(url: str, payload: bytes) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=payload, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestRetryIdempotency:
    """The retry-semantics bugfix: replay GETs, never replay POSTs."""

    def test_get_is_retried_after_midrequest_death(self, flaky_first):
        urls, handler, service = flaky_first
        expected = service.handle_request("/v1/meta")
        # Long check interval: only the seeding probe runs, so the flaky
        # backend is admitted when the request arrives and the failover
        # is driven by the proxied request itself, not a health probe.
        with Balancer(urls, check_interval=30) as balancer:
            status, body = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
            assert status == 200
            assert body == bytes(expected.body)
            assert handler.drops == 1  # the flaky backend did die first
            flaky_state = balancer.status()["backends"][0]
            assert not flaky_state["admitted"]
            assert flaky_state["errors"] == 1

    def test_post_applied_then_dropped_is_never_replayed(self, flaky_first):
        """Acceptance: the balancer must not double-apply an ingest.

        The flaky backend applies the POST and dies before answering.
        The old code replayed it on the next backend (409 at best,
        double-applied data at worst); the fix answers 502 and leaves
        the ambiguity to the client.
        """
        urls, handler, service = flaky_first
        before = service.store.version
        payload = json.dumps({
            "provider": "alexa", "date": "2018-06-01",
            "entries": ["retry-a.com", "retry-b.org"]}).encode()
        with Balancer(urls, check_interval=30) as balancer:
            status, body = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 502
            envelope = json.loads(body)["error"]
            assert envelope["status"] == 502
            assert "not retried" in envelope["message"]
            # The ingest landed exactly once (via the dying backend) …
            assert service.store.version == before + 1
            assert handler.posts == [payload]
            # … and the healthy backend never saw the POST.
            real_state = balancer.status()["backends"][1]
            assert real_state["requests"] == 0
            # Proof the day exists exactly once: a replay now conflicts.
            status, _ = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 409

    def test_post_fails_over_when_nothing_was_transmitted(self, backends):
        """Connect-refused is pre-transmit: POSTs may fail over safely."""
        servers, service = backends
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        urls = [f"http://127.0.0.1:{dead_port}", _urls(servers)[1]]
        before = service.store.version
        payload = json.dumps({
            "provider": "alexa", "date": "2018-06-02",
            "entries": ["failover.com"]}).encode()
        # eject_after=3 keeps the dead backend admitted past the two
        # seeding probes (one in start(), one at probe-loop entry), so
        # the POST itself hits the refused connection.
        with Balancer(urls, check_interval=30, eject_after=3) as balancer:
            status, _ = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 200
            assert service.store.version == before + 1
            dead_state = balancer.status()["backends"][0]
            assert dead_state["errors"] == 1
            assert not dead_state["admitted"]


class TestContentLengthValidation:
    """The parse bugfix: a garbage Content-Length used to kill the
    handler thread with an unhandled ValueError (connection reset, no
    response).  It must answer the API layer's 400 envelope."""

    def _raw(self, port: int, payload: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(payload)
            s.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    @pytest.mark.parametrize("declared", ["banana", "-1", "", "1e3",
                                          "0x10", "9" * 60])
    def test_fuzzed_content_length_answers_envelope(self, backends,
                                                    declared):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            raw = self._raw(balancer.port, (
                f"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {declared}\r\n\r\n").encode())
            head, _, body = raw.partition(b"\r\n\r\n")
            status = int(head.split()[1])
            expected = 413 if declared == "9" * 60 else 400
            assert status == expected, raw[:200]
            envelope = json.loads(body)["error"]
            assert envelope["status"] == expected
            assert b"Connection: close" in head

    def test_valid_length_still_proxies(self, backends):
        servers, _ = backends
        payload = json.dumps({"provider": "alexa", "date": "2018-06-03",
                              "entries": ["len-ok.com"]}).encode()
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            status, _ = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 200


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settle_fds(limit: int) -> int:
    """Wait for closing sockets to leave the fd table; the final count."""
    deadline = _deadline(5)
    while _fd_count() > limit and _now() < deadline:
        time.sleep(0.02)
    return _fd_count()


class _RecordingBackendHandler(BaseHTTPRequestHandler):
    """Keep-alive backend logging each non-probe request's client port.

    Subclasses set ``close_after`` to drop the connection after every
    response *without* announcing ``Connection: close`` (what an idle
    sweep looks like to a pooled client), or ``barrier`` to hold every
    GET until that many are in flight at once.
    """

    protocol_version = "HTTP/1.1"
    seen: list[tuple[str, int]] = []
    close_after = False
    barrier: "threading.Barrier | None" = None
    ready = True
    announce_close = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _answer(self, status: int = 200) -> None:
        body = b'{"ok": true}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if type(self).announce_close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = (type(self).close_after
                                 or type(self).announce_close)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/v1/ready":
            self._answer(200 if type(self).ready else 503)
            return
        type(self).seen.append(("GET", self.client_address[1]))
        if type(self).barrier is not None:
            type(self).barrier.wait()
        self._answer()

    def do_POST(self) -> None:  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        type(self).seen.append(("POST", self.client_address[1]))
        self._answer()


@pytest.fixture()
def recording():
    """Start a :class:`_RecordingBackendHandler` subclass; yield its URL."""
    servers = []

    def start(**attrs):
        handler = type("Handler", (_RecordingBackendHandler,),
                       {"seen": [], **attrs})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _balancer_state(balancer: Balancer) -> dict:
    """The first backend's entry, read over the wire from /v1/balancer."""
    status, body = _get(f"http://127.0.0.1:{balancer.port}/v1/balancer")
    assert status == 200
    return json.loads(body)["backends"][0]


class TestProxiedHeaders:
    def test_one_date_and_one_server_header(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers)[:1], check_interval=30) as balancer:
            conn = http.client.HTTPConnection("127.0.0.1", balancer.port,
                                              timeout=10)
            try:
                conn.request("GET", "/v1/meta")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
        assert response.status == 200
        names = [name.lower() for name, _ in response.getheaders()]
        assert names.count("date") == 1
        assert names.count("server") == 1
        assert "etag" in names  # backend headers still pass through


class TestUpstreamPool:
    """GET/HEAD reuse idle keep-alive upstream connections; POST never."""

    def test_sequential_gets_share_one_upstream_connection(self, backends):
        servers, service = backends
        expected = service.handle_request("/v1/meta")
        with Balancer(_urls(servers)[:1], check_interval=0.05) as balancer:
            conn = http.client.HTTPConnection("127.0.0.1", balancer.port,
                                              timeout=10)
            try:
                for _ in range(20):
                    conn.request("GET", "/v1/meta")
                    response = conn.getresponse()
                    assert response.status == 200
                    assert response.read() == bytes(expected.body)
            finally:
                conn.close()
            state = _balancer_state(balancer)
        # The rotation's own /v1/ready probes are not counted.
        assert (state["connects"], state["reuses"]) == (1, 19)
        assert state["idle"] == 1
        assert state["requests"] == 20

    def test_silently_closed_keepalive_socket_is_retried(self, recording):
        url, handler = recording(close_after=True)
        with Balancer([url], check_interval=30) as balancer:
            for _ in range(4):
                status, _ = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
                assert status == 200
            state = _balancer_state(balancer)
        assert state["admitted"]
        assert (state["errors"], state["ejections"]) == (0, 0)
        # Every pooled reuse found the socket closed and reconnected.
        assert (state["connects"], state["reuses"]) == (4, 3)
        assert len(handler.seen) == 4

    def test_posts_never_reuse_a_connection(self, recording):
        url, handler = recording()
        with Balancer([url], check_interval=30) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            for method in ("GET", "POST", "POST", "GET", "POST", "GET"):
                if method == "GET":
                    status, _ = _get(base + "/v1/meta")
                else:
                    status, _ = _post(base + "/v1/ingest", b"{}")
                assert status == 200
            state = _balancer_state(balancer)
        post_ports = [port for method, port in handler.seen
                      if method == "POST"]
        get_ports = {port for method, port in handler.seen
                     if method == "GET"}
        assert len(set(post_ports)) == 3
        assert len(get_ports) == 1  # the GETs kept one pooled connection
        assert not get_ports & set(post_ports)
        assert (state["connects"], state["reuses"]) == (4, 2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_idle_stack_is_capped_and_closed_on_stop(self, recording):
        clients = 64
        url, _ = recording(barrier=threading.Barrier(clients, timeout=20))
        baseline = _fd_count()
        balancer = Balancer([url], check_interval=30).start()
        conns = [http.client.HTTPConnection("127.0.0.1", balancer.port,
                                            timeout=30)
                 for _ in range(clients)]
        statuses = []

        def fetch(conn):
            conn.request("GET", "/v1/meta")
            response = conn.getresponse()
            response.read()
            statuses.append(response.status)

        try:
            threads = [threading.Thread(target=fetch, args=(conn,))
                       for conn in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert statuses == [200] * clients
            # The clients stay connected but quiet.
            state = _balancer_state(balancer)
            assert state["connects"] == clients  # all were in flight at once
            assert state["idle"] == MAX_IDLE_PER_BACKEND
        finally:
            for conn in conns:
                conn.close()
            balancer.stop()
        assert balancer.status()["backends"][0]["idle"] == 0
        assert _settle_fds(baseline) <= baseline

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_ejection_closes_idle_connections(self, recording):
        url, handler = recording(barrier=threading.Barrier(4, timeout=20))
        with Balancer([url], check_interval=0.05, eject_after=1) as balancer:
            baseline = _fd_count()
            results = []
            threads = [threading.Thread(
                target=lambda: results.append(
                    _get(f"http://127.0.0.1:{balancer.port}/v1/meta")[0]))
                for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert results == [200] * 4
            assert balancer.status()["backends"][0]["idle"] == 4
            handler.ready = False
            deadline = _deadline(5)
            while balancer.status()["admitted"] and _now() < deadline:
                time.sleep(0.02)
            state = balancer.status()["backends"][0]
            assert not state["admitted"]
            assert state["idle"] == 0
            assert _settle_fds(baseline) <= baseline


def _scrape(balancer: Balancer) -> dict[str, float]:
    status, body = _get(
        f"http://127.0.0.1:{balancer.port}/v1/balancer/metrics")
    assert status == 200
    return parse_exposition(body.decode("utf-8"))


def _sample(samples: dict[str, float], family: str, url: str) -> float:
    return samples[f'repro_balance_{family}{{backend="{url}"}}']


class TestBalancerMetrics:
    """``/v1/balancer/metrics``: exact deltas for a known workload."""

    def test_sequential_gets_count_exactly(self, backends):
        servers, service = backends
        url = _urls(servers)[0]
        expected = service.handle_request("/v1/meta")
        with Balancer([url], check_interval=30) as balancer:
            before = _scrape(balancer)
            conn = http.client.HTTPConnection("127.0.0.1", balancer.port,
                                              timeout=10)
            try:
                for _ in range(20):
                    conn.request("GET", "/v1/meta")
                    response = conn.getresponse()
                    assert response.read() == bytes(expected.body)
            finally:
                conn.close()
            after = _scrape(balancer)
            status, text = _get(
                f"http://127.0.0.1:{balancer.port}/v1/balancer/metrics")

        def delta(family):
            return _sample(after, family, url) - _sample(before, family, url)

        assert delta("requests_total") == 20
        assert delta("upstream_connects_total") == 1
        assert delta("upstream_reuses_total") == 19
        assert delta("errors_total") == delta("ejections_total") == 0
        assert delta("readmissions_total") == 0
        assert _sample(after, "idle_connections", url) == 1
        assert _sample(after, "admitted", url) == 1
        for family in ("requests_total", "errors_total", "ejections_total",
                       "readmissions_total", "upstream_connects_total",
                       "upstream_reuses_total"):
            assert f"# TYPE repro_balance_{family} counter".encode() in text
        for family in ("idle_connections", "admitted"):
            assert f"# TYPE repro_balance_{family} gauge".encode() in text

    def test_killed_backend_counts_one_error_and_one_ejection(self,
                                                              backends):
        servers, _ = backends
        dead, live = _urls(servers)
        with Balancer([dead, live], check_interval=30) as balancer:
            before = _scrape(balancer)
            servers[0].shutdown()
            servers[0].server_close()
            for _ in range(4):
                status, _ = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
                assert status == 200
            after = _scrape(balancer)

        def delta(family, url):
            return _sample(after, family, url) - _sample(before, family, url)

        assert delta("errors_total", dead) == 1
        assert delta("ejections_total", dead) == 1
        assert delta("requests_total", dead) == 1
        assert _sample(after, "admitted", dead) == 0
        assert delta("errors_total", live) == 0
        assert delta("requests_total", live) == 4


def _wire(port: int) -> tuple[socket.socket, "object"]:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    return sock, sock.makefile("rb")


def _read_response(rfile, head_only: bool = False
                   ) -> tuple[int, dict[str, str], bytes]:
    """One response off a raw connection: status, headers, body."""
    status_line = rfile.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers: dict[str, str] = {}
    while True:
        line = rfile.readline()
        assert line, "connection closed inside a response head"
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        assert name.lower() not in headers, f"repeated {name}"
        headers[name.lower()] = value.strip()
    length = 0 if head_only else int(headers["content-length"])
    return int(status_line.split()[1]), headers, rfile.read(length)


def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Send raw bytes, half-close, read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # answered and closed before the whole payload went out
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestRelayWire:
    """The raw relay's wire contract, client side."""

    def test_pipelined_gets_are_answered_in_order(self, backends):
        servers, service = backends
        targets = ["/v1/meta", "/v1/nope", "/v1/domains/a.com/history",
                   "/v1/meta"]
        with Balancer(_urls(servers), check_interval=30) as balancer:
            sock, rfile = _wire(balancer.port)
            with sock, rfile:
                sock.sendall(b"".join(
                    f"GET {target} HTTP/1.1\r\nHost: x\r\n"
                    f"X-Request-Id: req-{i}\r\n\r\n".encode()
                    for i, target in enumerate(targets)))
                replies = [_read_response(rfile) for _ in targets]
        assert [status for status, _, _ in replies] == [200, 404, 200, 200]
        assert [h["x-request-id"] for _, h, _ in replies] == \
            [f"req-{i}" for i in range(len(targets))]
        for target, (status, _, body) in zip(targets, replies):
            if status == 200:
                assert body == bytes(service.handle_request(target).body)

    def test_http10_without_keepalive_closes_after_the_response(
            self, backends):
        servers, service = backends
        with Balancer(_urls(servers), check_interval=30) as balancer:
            sock, rfile = _wire(balancer.port)
            with sock, rfile:
                sock.sendall(b"GET /v1/meta HTTP/1.0\r\n\r\n")
                status, headers, body = _read_response(rfile)
                assert rfile.read() == b""  # the proxy closed
        assert status == 200
        assert headers["connection"] == "close"
        assert body == bytes(service.handle_request("/v1/meta").body)

    def test_head_relays_headers_without_a_body(self, backends):
        servers, service = backends
        expected = service.handle_request("/v1/meta")
        with Balancer(_urls(servers)[:1], check_interval=30) as balancer:
            sock, rfile = _wire(balancer.port)
            with sock, rfile:
                sock.sendall(b"HEAD /v1/meta HTTP/1.1\r\nHost: x\r\n\r\n")
                status, head, body = _read_response(rfile, head_only=True)
                sock.sendall(b"GET /v1/meta HTTP/1.1\r\nHost: x\r\n\r\n")
                get_status, get_headers, get_body = _read_response(rfile)
            state = _balancer_state(balancer)
        assert (status, body) == (200, b"")
        assert int(head["content-length"]) == len(expected.body)
        assert head["etag"] == get_headers["etag"]
        assert (get_status, get_body) == (200, bytes(expected.body))
        assert (state["connects"], state["reuses"]) == (1, 1)

    def test_chunked_post_is_refused_and_never_forwarded(self, recording):
        url, handler = recording()
        with Balancer([url], check_interval=30) as balancer:
            raw = _raw_exchange(balancer.port, (
                b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"))
            state = _balancer_state(balancer)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["status"] == 400
        assert handler.seen == []
        assert state["requests"] == 0

    @pytest.mark.parametrize("payload", [
        b"GARBAGE\r\n\r\n",
        b"GET /v1/meta HTTP/9.9\r\n\r\n",
        b"GET /v1/meta FTP/1.1\r\n\r\n",
        b"PUT /v1/meta\r\n\r\n",
        b"GET /v1/meta\r\n",
        b"GET /" + b"x" * 70000,
        b"GET /v1/meta HTTP/1.1\r\nX-Pad: " + b"x" * (1 << 20) + b"\r\n",
        b"GET /v1/meta HTTP/1.1\r\nHost: x",
        b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n\r\n",
        b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 999999999999\r\n\r\n",
        b"GET /v1/meta HTTP/1.1\r\nX-A: 1\rContent-Length: 30\r\n\r\n",
        b"GET /v1/meta HTTP/1.1\r\nX-A: 1\x00\r\n\r\n",
        b"GET /v1/meta HTTP/1.1\r\nBad Name: x\r\n\r\n",
        b"GET /v1/meta HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
        b"GET /v1/me\x00ta HTTP/1.1\r\n\r\n",
    ], ids=["garbage", "http2", "bad-version", "put-0.9", "get-0.9",
            "long-line", "huge-head", "truncated-head", "post-no-length",
            "post-too-long", "bare-cr", "nul-value", "space-in-name",
            "obs-fold", "ctl-target"])
    def test_protocol_failures_get_the_event_loop_answers(self, backends,
                                                          payload):
        servers, service = backends
        direct = EventLoopServer(service)
        threading.Thread(target=direct.serve_forever, daemon=True).start()
        try:
            expected = _raw_exchange(direct.server_address[1], payload)
            with Balancer(_urls(servers)[:1],
                          check_interval=30) as balancer:
                relayed = _raw_exchange(balancer.port, payload)
        finally:
            direct.shutdown()
            direct.server_close()

        def undated(raw):
            return re.sub(rb"\r\nDate: [^\r]*", b"", raw)

        assert relayed and undated(relayed) == undated(expected)

    @pytest.mark.parametrize("payload", [
        # The backend's header parser also breaks lines at a bare CR: it
        # would wait for 30 body bytes that never come, time out, and
        # cost the backend its place in the rotation.
        b"GET /v1/meta HTTP/1.1\r\nHost: x\r\n"
        b"X-A: 1\rContent-Length: 30\r\n\r\n",
        # ...or read a length of 0 and take the body for a second
        # request the proxy never routed.
        b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
        b"X-A: 1\rContent-Length: 0\r\nContent-Length: 40\r\n\r\n"
        b"GET /v1/smuggled HTTP/1.1\r\nHost: xyz\r\n\r\n",  # 40 bytes
    ], ids=["get-hidden-length", "post-smuggled-request"])
    def test_bare_cr_in_a_header_is_refused_and_never_forwarded(
            self, recording, payload):
        url, handler = recording()
        with Balancer([url], check_interval=30) as balancer:
            raw = _raw_exchange(balancer.port, payload)
            state = _balancer_state(balancer)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["status"] == 400
        assert handler.seen == []
        assert (state["requests"], state["errors"], state["ejections"]) == \
            (0, 0, 0)

    def test_expect_100_continue_is_answered_before_the_body(self, backends):
        servers, service = backends
        payload = json.dumps({"provider": "alexa", "date": "2018-06-04",
                              "entries": ["expect.com"]}).encode()
        before = service.store.version
        with Balancer(_urls(servers)[:1], check_interval=30) as balancer:
            sock, rfile = _wire(balancer.port)
            with sock, rfile:
                sock.sendall(
                    b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Expect: 100-continue\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(payload))
                assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert rfile.readline() == b"\r\n"
                sock.sendall(payload)
                status, _, _ = _read_response(rfile)
        assert status == 200
        assert service.store.version == before + 1

    def test_backend_connection_close_is_not_pooled(self, recording):
        url, handler = recording(announce_close=True)
        with Balancer([url], check_interval=30) as balancer:
            conn = http.client.HTTPConnection("127.0.0.1", balancer.port,
                                              timeout=10)
            try:
                for _ in range(3):
                    conn.request("GET", "/v1/meta")
                    response = conn.getresponse()
                    assert response.status == 200
                    assert response.getheader("Connection") is None
                    response.read()
            finally:
                conn.close()
            state = _balancer_state(balancer)
        assert (state["connects"], state["reuses"], state["idle"]) == \
            (3, 0, 0)
        assert (state["errors"], len(handler.seen)) == (0, 3)

    def test_hot_targets_are_byte_identical_to_direct_reads(self, tmp_path):
        generated = perfbench_inputs.generate("hot_read", 11, "tiny", 1.0)
        store = ArchiveStore.from_archives(tmp_path / "store",
                                           generated.archives)
        direct = EventLoopServer(QueryService(store))
        threading.Thread(target=direct.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{direct.server_address[1]}"
        try:
            with Balancer([url], check_interval=30) as balancer:
                for target in generated.hot:
                    replies = []
                    for port in (direct.server_address[1], balancer.port):
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", port, timeout=10)
                        try:
                            conn.request("GET", target)
                            response = conn.getresponse()
                            replies.append((response.status,
                                            response.getheader("ETag"),
                                            response.read()))
                        finally:
                            conn.close()
                    assert replies[0][0] == 200, target
                    assert replies[1] == replies[0], target
        finally:
            direct.shutdown()
            direct.server_close()
            store.close()


class _Fronted:
    """A backend seen through a balancer, shaped like a server fixture:
    the wire goes to the proxy, the tripwire and service stay the
    backend's."""

    def __init__(self, balancer: Balancer, backend) -> None:
        self.server_address = ("127.0.0.1", balancer.port)
        self.unhandled_errors = backend.unhandled_errors
        self.service = backend.service


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    """The fuzz suites' store and backend, fronted by a balancer."""
    store = ArchiveStore(tmp_path_factory.mktemp("balancefuzz") / "s")
    store.append_archive(ListArchive.from_snapshots([
        ListSnapshot("alexa", dt.date(2018, 1, 1) + dt.timedelta(days=day),
                     (f"a{day}.example.com", "b.example.com", "c.example.org"))
        for day in range(3)]))
    backend = EventLoopServer(QueryService(store))
    threading.Thread(target=backend.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{backend.server_address[1]}"
    with Balancer([url], check_interval=30) as balancer:
        yield _Fronted(balancer, backend)
        assert balancer.status()["backends"][0]["errors"] == 0
    backend.shutdown()
    backend.server_close()
    store.close()


class TestMalformedRequestLinesBalanced(_MalformedLinesContract):
    """The fuzz suite's request-line contract, through the relay."""


class TestHeaderAndParamFuzzBalanced(_HeaderFuzzContract):
    """The fuzz suite's header and parameter contract, through the relay."""


class TestBackendParsing:
    def test_accepts_url_and_hostport(self):
        assert Backend("http://127.0.0.1:8098").port == 8098
        assert Backend("127.0.0.1:8099").port == 8099

    def test_rejects_non_http(self):
        with pytest.raises(ValueError):
            Backend("https://127.0.0.1:1")

    def test_requires_backends(self):
        with pytest.raises(ValueError):
            Balancer([])


def _now():
    return time.monotonic()


def _deadline(seconds: float) -> float:
    return _now() + seconds
