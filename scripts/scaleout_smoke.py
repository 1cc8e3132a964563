#!/usr/bin/env python
"""Scale-out smoke: worker pool + follower behind the balancer, under fire.

The CI ``scale-out`` job's driver.  Boots the full horizontal topology on
one machine — a 4-worker pre-fork pool (1 writer + 4 read workers on a
shared listening socket) plus one HTTP-replication follower process, both
fronted by ``repro-serve balance`` — then exercises it the way the README
says operators should expect it to behave:

1. mixed read + ingest load through the balancer (ingests land on the
   pool, whose read workers forward them to the designated writer);
2. SIGKILL one read worker mid-load — the survivors must answer every
   request with a non-5xx status (connection-level resets on the victim's
   in-flight sockets are retried by the balancer, never surfaced), and
   the supervisor must respawn the victim;
3. kill the follower — the balancer must eject it from rotation while
   traffic continues, then re-admit it once a replacement follower
   passes ``/v1/ready`` again;
4. the pool's aggregated ``/v1/metrics`` must parse with
   ``parse_exposition`` and its request counters must cover the sum of
   the per-worker counters scraped individually just before.

Exits non-zero (AssertionError) on any violation.  Stdlib + repro only.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.metrics import parse_exposition  # noqa: E402
from repro.population.config import SimulationConfig  # noqa: E402
from repro.providers.simulation import run_simulation  # noqa: E402
from repro.service.balance import Balancer  # noqa: E402
from repro.service.store import ArchiveStore  # noqa: E402
from repro.service.workers import WorkerPool  # noqa: E402

READ_TARGETS = ("/v1/meta", "/v1/providers/alexa/stability?top_n=50")
WORKERS = 4


def _get(url: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One GET; HTTP statuses pass through, connection failures raise."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _wait_ready(url: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if _get(url + "/v1/ready", timeout=2)[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.2)
    raise AssertionError(f"{url} never became ready")


def _spawn_follower(store_dir: Path, leader: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli", "serve",
         "--store", str(store_dir), "--follow", leader,
         "--port", str(port), "--poll-interval", "0.2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _wait_ready(f"http://127.0.0.1:{port}")
    return process


def _balancer_state(base: str) -> dict:
    return json.loads(_get(base + "/v1/balancer")[1])


def _wait_admitted(base: str, count: int, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    payload = _balancer_state(base)
    while time.monotonic() < deadline:
        payload = _balancer_state(base)
        if payload["admitted"] == count:
            return payload
        time.sleep(0.1)
    raise AssertionError(
        f"balancer never reached admitted={count}: {payload}")


def _load(base: str, n: int) -> list[int]:
    """n reads through the balancer; retry only connection-level failures."""
    statuses = []
    for i in range(n):
        target = READ_TARGETS[i % len(READ_TARGETS)]
        for _attempt in range(20):
            try:
                statuses.append(_get(base + target)[0])
                break
            except OSError:
                time.sleep(0.05)
        else:
            raise AssertionError(f"GET {target}: connection never succeeded")
    return statuses


def main() -> None:
    print("building the fixture corpus ...")
    run = run_simulation(SimulationConfig.small(alexa_change_day=9))
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        ArchiveStore.from_archives(store_dir, run.archives).close()
        follower_dir = Path(tmp) / "follower"

        print(f"booting the {WORKERS}-worker pool ...")
        with WorkerPool(store_dir, workers=WORKERS, poll_interval=0.05) as pool:
            pool_url = f"http://127.0.0.1:{pool.port}"
            print(f"booting the follower (tailing {pool_url}) ...")
            follower_port = pool.port + 71
            follower = _spawn_follower(follower_dir, pool_url, follower_port)
            follower_url = f"http://127.0.0.1:{follower_port}"
            try:
                with Balancer([pool_url, follower_url],
                              check_interval=0.1) as balancer:
                    base = f"http://127.0.0.1:{balancer.port}"
                    _wait_admitted(base, 2)
                    print("phase 1: mixed read/ingest load, both admitted")
                    statuses = _load(base, 60)
                    last = max(max(archive.dates())
                               for archive in run.archives.values())
                    for offset in (1, 2):
                        day = last + dt.timedelta(days=offset)
                        body = json.dumps({
                            "provider": "alexa", "date": day.isoformat(),
                            "entries": ["scaleout.example", "smoke.example"],
                        }).encode()
                        request = urllib.request.Request(
                            pool_url + "/v1/ingest", data=body, method="POST",
                            headers={"Content-Type": "application/json"})
                        with urllib.request.urlopen(request, timeout=30) as r:
                            assert r.status == 200
                    statuses += _load(base, 40)

                    print("phase 2: SIGKILL one read worker mid-load")
                    victim = pool.worker_pids("reader")[0]
                    os.kill(victim, signal.SIGKILL)
                    statuses += _load(base, 80)
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        topology = pool.describe()
                        if (topology["restarts"] >= 1
                                and victim not in pool.worker_pids()):
                            break
                        time.sleep(0.1)
                    assert topology["restarts"] >= 1, topology
                    pool.wait_ready()
                    statuses += _load(base, 20)
                    bad = [s for s in statuses if s >= 400 and s != 503]
                    assert not bad, f"non-503 errors under fire: {bad}"
                    assert statuses.count(200) >= 190, statuses

                    print("phase 3: follower dies -> ejection; "
                          "replacement -> re-admission")
                    follower.kill()
                    follower.wait(timeout=10)
                    payload = _wait_admitted(base, 1)
                    ejected = payload["backends"][1]
                    assert not ejected["admitted"], payload
                    assert ejected["ejections"] >= 1, payload
                    for status in _load(base, 20):
                        assert status == 200
                    follower = _spawn_follower(
                        Path(tmp) / "follower2", pool_url, follower_port)
                    payload = _wait_admitted(base, 2)
                    assert payload["backends"][1]["readmissions"] >= 1, payload
                    for status in _load(base, 10):
                        assert status == 200

                    print("phase 4: aggregated metrics parse and sum")
                    per_worker = []
                    for worker in pool.describe()["workers"]:
                        text = _get(f"http://127.0.0.1:{worker['port']}"
                                    "/v1/metrics")[1].decode()
                        per_worker.append(parse_exposition(text))
                    key = 'repro_http_requests_total{method="GET"}'
                    individual_sum = sum(s.get(key, 0) for s in per_worker)
                    aggregated = parse_exposition(
                        _get(f"http://127.0.0.1:{pool.control_port}"
                             "/v1/metrics")[1].decode())
                    assert aggregated["repro_pool_workers_scraped"] \
                        == WORKERS + 1, aggregated
                    assert aggregated.get(key, 0) >= individual_sum > 0, (
                        aggregated.get(key), individual_sum)
                    assert aggregated["repro_pool_worker_restarts_total"] >= 1
            finally:
                follower.kill()
                follower.wait(timeout=10)
    print(f"scale-out smoke: all phases passed "
          f"({len(statuses)} balanced requests, zero non-503 errors)")


if __name__ == "__main__":
    main()
