"""One benchmark run: set up, measure, check, report.

A run builds the seeded store, boots the pool and the balancer, warms
every reader, then measures one workload for ``seconds`` from this
process: read slices alternate with slices of the reference chain in
``perfbench/yardstick.py``, whose rate gives the host's speed during
the reads, and read rates and latencies are reported at the speed of
the host the benchmark was calibrated on.  Untraced runs set up
:data:`SETUP_REPEATS` times and report the median set-up time; traced
runs measure once untraced and once under ``perfbench/traced.py`` and
report the per-layer breakdown plus the tracing overhead between the
two.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench import layers
from perfbench.client import (
    Connection, Tally, drive_reads, etag_matches, request_bytes)
from perfbench.inputs import INGEST_PERIOD_S, Inputs, generate
from perfbench.oracle import Oracle
from perfbench.topology import (
    Deployment, cpu_seconds, host_cpu, pss_mb, tree_bytes)
from perfbench.yardstick import Yardstick
from repro.service.store import ArchiveStore

WORKLOADS = ("hot_read", "hot_direct", "zipf_read", "ingest_read")

#: Complete set-ups per untraced run; ``setup_s`` is their median.  A
#: set-up costs 5-8 s at ``paper_bench``; two keep a 30 s run under a
#: minute.
SETUP_REPEATS = 2

#: Seconds of one read slice plus the reference slice after it.  The
#: measured phase alternates the two so that both see the same host.
SLICE_PAIR_S = 2.0

#: Round trips per second of the reference chain (``perfbench/yardstick.py``)
#: on the host the benchmark was calibrated on, a 2-vCPU Xeon VM: where
#: the chain runs at this rate, the host speed factor is 1.
REFERENCE_RPS = 2500.0

REFERENCE_TARGETS = tuple(f"/reference/{i}" for i in range(64))
REFERENCE_REQUESTS = tuple(request_bytes(t) for t in REFERENCE_TARGETS)

#: Back-to-back ingests a traced run of a read-only workload sends after
#: its measured reads, so the write-path layers are traced everywhere.
PROBE_INGESTS = 3

#: Seconds a reader may take to adopt an ingested version.
VISIBILITY_TIMEOUT_S = 30.0

CACHE_FILE = "payload_cache.bin"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Setup:
    deployment: Deployment
    inputs: Inputs
    oracle: Oracle
    seconds: float
    stages: dict


@dataclass
class Phase:
    """What one measured phase observed."""

    tally: Tally
    read_seconds: float    # spent in read slices
    reference: Tally
    reference_seconds: float
    t0: float
    reads_end: float       # reads (and ingest_read's ingests) done
    t1: float              # the ingest probe, if any, done too
    client_cpu_s: float
    host_idle_frac: float
    server_cpu_s: dict
    pss_mb: float
    metrics_before: dict
    metrics_after: dict    # scraped at reads_end
    metrics_end: dict      # scraped at t1
    store_bytes_delta: int
    manifest_bytes: int
    shared_cache_bytes: int
    ingest: Optional["Ingester"] = None
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.tally.attempted + (self.ingest.attempted
                                       if self.ingest else 0)

    @property
    def failed(self) -> int:
        return (self.tally.failed + len(self.problems)
                + (self.ingest.failed if self.ingest else 0))

    def delta(self, family: str, end: bool = False) -> float:
        """Change of ``family`` over the reads (or, with ``end``, the
        whole phase)."""
        after = self.metrics_end if end else self.metrics_after
        return after.get(family, 0.0) - self.metrics_before.get(family, 0.0)

    def read_rps(self) -> float:
        """Successful reads per second of read slice, as measured."""
        return len(self.tally.latencies) / self.read_seconds

    @property
    def host_speed(self) -> float:
        """How fast the host ran during the phase: the reference chain's
        rate over :data:`REFERENCE_RPS`.  Rates are divided by it and
        latencies multiplied, so that a run on a host slowed by its
        neighbours reads like one on the calibration host."""
        return (len(self.reference.latencies) / self.reference_seconds
                / REFERENCE_RPS)


def _warm_reader(port: int, targets: list[str]) -> None:
    conn = Connection(port)
    try:
        for target in targets:
            reply = conn.get(target)
            if reply.status != 200 or not etag_matches(reply):
                raise RuntimeError(f"warm-up {target} on :{port} answered "
                                   f"{reply.status}")
    finally:
        conn.close()


def _warm(deployment: Deployment, inputs: Inputs,
          writer: bool = False) -> None:
    """Every reader answers the hot set on its private port; reader 0
    also renders the marker target that tells the readers apart.  With
    ``writer``, the writer loads its archives alongside."""
    jobs = [(slot["port"], list(inputs.hot) + ([inputs.marker] if i == 0
                                                else []))
            for i, slot in enumerate(deployment.slots("reader"))]
    if writer:
        jobs += [(slot["port"], ["/v1/meta"])
                 for slot in deployment.slots("writer")]
    with ThreadPoolExecutor(len(jobs)) as pool:
        for future in [pool.submit(_warm_reader, *job) for job in jobs]:
            future.result()


def _wait_visible(probes: list[Connection], version: int) -> None:
    deadline = time.monotonic() + VISIBILITY_TIMEOUT_S
    pending = list(probes)
    while pending:
        pending = [conn for conn in pending
                   if conn.get_json("/v1/health")["store_version"] < version]
        if pending:
            if time.monotonic() > deadline:
                raise TimeoutError(f"version {version} not visible on every "
                                   f"reader after {VISIBILITY_TIMEOUT_S}s")
            time.sleep(0.002)


class Ingester(threading.Thread):
    """Ingests through the balancer, each followed by a visibility probe
    of every reader's private port.

    With a ``period``, ingest ``i`` is due at ``t0 + i * period`` (open
    loop) and its latency counts from when it was due; without one, each
    is sent as soon as the previous one is visible.  Every adopted
    version is pinned for the oracle.
    """

    def __init__(self, deployment: Deployment, bodies: tuple[bytes, ...],
                 oracle: Oracle, t0: float = 0.0,
                 period: float = 0.0) -> None:
        super().__init__(name="ingester", daemon=True)
        self.deployment = deployment
        self.bodies = bodies
        self.t0 = t0
        self.period = period
        self.oracle = oracle
        self.version = max(oracle.pinned)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.latencies: list[float] = []
        self.visible: list[float] = []
        self.late: list[float] = []

    def _fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def run(self) -> None:
        conn = Connection(self.deployment.balancer_port)
        probes = [Connection(slot["port"])
                  for slot in self.deployment.slots("reader")]
        try:
            for i, body in enumerate(self.bodies):
                if self.period:
                    due = self.t0 + i * self.period
                    time.sleep(max(0.0, due - time.monotonic()))
                else:
                    due = time.monotonic()
                self.late.append(time.monotonic() - due)
                self.attempted += 1
                try:
                    reply = conn.post("/v1/ingest", body)
                except OSError as error:
                    self._fail(f"ingest {i}: {error}")
                    conn.close()
                    conn = Connection(self.deployment.balancer_port)
                    continue
                done = time.monotonic()
                if reply.status != 200 or not etag_matches(reply):
                    self._fail(f"ingest {i}: status {reply.status}")
                    continue
                version = json.loads(reply.body)["store_version"]
                if version != self.version + 1:
                    self._fail(f"ingest {i}: version {self.version} -> "
                               f"{version}, expected one step")
                self.version = version
                self.latencies.append(done - due)
                try:
                    _wait_visible(probes, version)
                except (OSError, TimeoutError) as error:
                    self._fail(f"ingest {i}: {error}")
                    continue
                self.visible.append(time.monotonic() - done)
                self.oracle.pin()
        finally:
            conn.close()
            for probe in probes:
                probe.close()


def set_up(root: Path, work: Path, workload: str, seed: int, seconds: float,
           scale: str, trace_dir: Optional[Path] = None,
           probe: int = 0) -> Setup:
    """Inputs, store, pool, balancer and warm-up; timed as ``setup_s``.

    ``probe`` ingests are generated to follow the measured reads."""
    stages: dict[str, float] = {}
    start = last = time.monotonic()

    def stage(name: str) -> None:
        nonlocal last
        now = time.monotonic()
        stages[name] = now - last
        last = now

    inputs = generate(workload, seed, scale, seconds, probe)
    stage("inputs")
    store_dir = work / "store"
    ArchiveStore.from_archives(store_dir, inputs.archives).close()
    stage("store")
    deployment = Deployment(root, work, store_dir, trace_dir)
    try:
        deployment.start(workers=os.cpu_count() or 1)
        stage("boot")
        _warm(deployment, inputs, writer=bool(inputs.ingests))
        stage("warm")
        oracle = Oracle(store_dir)
        oracle.pin()
        if workload == "ingest_read":
            # Absorbs what the writer's first ingest still pays once;
            # the new version leaves every reader's cache cold, so warm
            # it again.
            first = Ingester(deployment, inputs.ingests[:1], oracle)
            first.run()
            if first.failed:
                raise RuntimeError(f"set-up ingest failed: {first.notes}")
            _warm(deployment, inputs)
            stage("ingest")
    except BaseException:
        deployment.stop()
        raise
    return Setup(deployment, inputs, oracle, time.monotonic() - start, stages)


def _pinned_connections(deployment: Deployment) -> list[Connection]:
    """One public-port connection per reader.

    The kernel hands a connection to whichever reader accepts first, so
    two connections can land on one reader and leave the other idle.
    Readers are told apart by their LRU size (reader 0 alone was warmed
    with the marker target); connections are reopened until each reader
    holds one.
    """
    readers = deployment.slots("reader")
    by_entries = {}
    for index, slot in enumerate(readers):
        probe = Connection(slot["port"])
        try:
            by_entries[probe.get_json("/v1/health")["cache"]["entries"]] = index
        finally:
            probe.close()
    if len(by_entries) != len(readers):
        raise RuntimeError("readers cannot be told apart by LRU size")
    pinned: dict[int, Connection] = {}
    for _ in range(200):
        conn = Connection(deployment.pool_port)
        index = by_entries.get(conn.get_json("/v1/health")["cache"]["entries"])
        if index is None or index in pinned:
            conn.close()
            continue
        pinned[index] = conn
        if len(pinned) == len(readers):
            return [pinned[i] for i in sorted(pinned)]
    for conn in pinned.values():
        conn.close()
    raise RuntimeError("could not place one connection on every reader")


def _alternate(conns: list[Connection], inputs: Inputs,
               reference: list[Connection], t0: float, seconds: float,
               tally: Tally, reference_tally: Tally) -> tuple[float, float]:
    """Read slices alternating with reference slices for ``seconds``;
    returns the seconds spent in each kind."""
    pairs = max(1, round(seconds / SLICE_PAIR_S))
    half = seconds / (2 * pairs)
    read_s = reference_s = 0.0
    sent = reference_sent = 0
    start = t0
    for _ in range(pairs):
        sent += drive_reads(conns, inputs.targets, inputs.requests,
                            start + half, tally, sent)
        middle = time.monotonic()
        reference_sent += drive_reads(
            reference, REFERENCE_TARGETS, REFERENCE_REQUESTS, middle + half,
            reference_tally, reference_sent)
        read_s += middle - start
        start = time.monotonic()
        reference_s += start - middle
    return read_s, reference_s


def measure(setup: Setup, workload: str, seconds: float, seed: int) -> Phase:
    yardstick = Yardstick()
    yardstick.start()
    conns: list[Connection] = []
    reference: list[Connection] = []
    try:
        if workload == "hot_direct":
            conns = _pinned_connections(setup.deployment)
        else:
            # One connection: a second does not raise throughput past
            # the balancer's, it only queues there while pushing the
            # client, the balancer and the readers past a two-core host,
            # so the figures track the scheduler instead of the program.
            conns = [Connection(setup.deployment.balancer_port)]
        reference = [Connection(yardstick.port)]
        warm = Tally(seed)
        drive_reads(reference, REFERENCE_TARGETS, REFERENCE_REQUESTS,
                    time.monotonic() + 0.2, warm)
        return _measure(setup, workload, seconds, seed, conns, reference)
    finally:
        for conn in conns + reference:
            conn.close()
        yardstick.stop()


def _measure(setup: Setup, workload: str, seconds: float, seed: int,
             conns: list[Connection], reference: list[Connection]) -> Phase:
    deployment = setup.deployment
    inputs = setup.inputs
    store_dir = deployment.store_dir
    pids = deployment.pids
    metrics_before = deployment.metrics()
    bytes_before = tree_bytes(store_dir, CACHE_FILE)
    cpu_before = {name: cpu_seconds(pid) for name, pid in pids.items()}
    idle_before, total_before = host_cpu()
    client_before = time.process_time()
    tally = Tally(seed)
    reference_tally = Tally(seed)
    t0 = time.monotonic()
    ingester = None
    if workload == "ingest_read":
        ingester = Ingester(deployment, inputs.ingests[1:], setup.oracle,
                            t0, INGEST_PERIOD_S)
        ingester.start()
    read_s, reference_s = _alternate(conns, inputs, reference, t0, seconds,
                                     tally, reference_tally)
    if reference_tally.failed:
        raise RuntimeError(f"reference chain failed: {reference_tally.notes}")
    if ingester is not None:
        ingester.join()
    reads_end = time.monotonic()
    client_cpu = time.process_time() - client_before
    idle_after, total_after = host_cpu()
    server_cpu = {name: cpu_seconds(pid) - cpu_before[name]
                  for name, pid in pids.items()}
    pss = sum(pss_mb(pid) for pid in pids.values())
    metrics_after = deployment.metrics()
    if ingester is None and inputs.ingests:
        # The write path on a pool that has stopped reading: only traced
        # runs generate these, for the store/core/index/replica layers.
        ingester = Ingester(deployment, inputs.ingests, setup.oracle)
        ingester.run()
    return Phase(
        tally=tally, read_seconds=read_s, reference=reference_tally,
        reference_seconds=reference_s, t0=t0, reads_end=reads_end,
        t1=time.monotonic(),
        client_cpu_s=client_cpu,
        host_idle_frac=((idle_after - idle_before)
                        / max(1, total_after - total_before)),
        server_cpu_s=server_cpu, pss_mb=pss,
        metrics_before=metrics_before, metrics_after=metrics_after,
        metrics_end=deployment.metrics(),
        store_bytes_delta=tree_bytes(store_dir, CACHE_FILE) - bytes_before,
        manifest_bytes=(store_dir / "manifest.json").stat().st_size,
        shared_cache_bytes=(store_dir / CACHE_FILE).stat().st_size,
        ingest=ingester)


def set_up_and_measure(root: Path, work: Path, workload: str, seed: int,
                       seconds: float, scale: str,
                       trace_dir: Optional[Path] = None, replay: bool = True,
                       probe: int = 0) -> tuple[Setup, Phase]:
    """One set-up, one measured phase, teardown and (with ``replay``)
    the oracle replay of the sampled bodies."""
    setup = set_up(root, work, workload, seed, seconds, scale, trace_dir,
                   probe)
    try:
        phase = measure(setup, workload, seconds, seed)
    except BaseException:
        setup.deployment.stop()
        raise
    # The drain is mostly waiting, so the oracle replays meanwhile.
    start = time.monotonic()
    with ThreadPoolExecutor(1) as pool:
        stopped = pool.submit(setup.deployment.stop)
        if replay:
            phase.problems += setup.oracle.verify(phase.tally.samples)
        setup.stages["oracle"] = time.monotonic() - start
        stopped.result()
    setup.stages["teardown"] = time.monotonic() - start
    return setup, phase


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    """The user-visible metrics of one untraced phase; read rates and
    latencies at the calibration host's speed (:attr:`Phase.host_speed`)."""
    lat = phase.tally.latencies
    speed = phase.host_speed
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "read_rps": (phase.read_rps() / speed, "1/s"),
        "read_p50_ms": (percentile(lat, 50) * 1e3 * speed, "ms"),
        "read_p99_ms": (percentile(lat, 99) * 1e3 * speed, "ms"),
        "server_pss_mb": (phase.pss_mb, "MB"),
        "failed_frac": (phase.failed / max(1, phase.attempted), "ratio"),
    }
    if phase.ingest is not None and phase.ingest.latencies:
        out["ingest_p50_s"] = (statistics.median(phase.ingest.latencies), "s")
        out["visible_p50_s"] = (statistics.median(phase.ingest.visible), "s")
    return out


def _provenance(root: Path, seed: int) -> dict:
    commit, dirty = None, None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain"],
                capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "dirty": dirty, "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "kernel": platform.release(),
            "python": platform.python_version(), "seed": seed}


def _phase_report(phase: Phase) -> dict:
    tally = phase.tally
    report = {
        "reads": {"attempted": tally.attempted, "failed": tally.failed,
                  "latency_samples": len(tally.latencies),
                  "cache": dict(tally.cache), "notes": tally.notes,
                  "oracle_samples": len(tally.samples)},
        "oracle_problems": phase.problems,
        "as_measured": {
            "read_rps": phase.read_rps(),
            "read_p50_ms": percentile(tally.latencies, 50) * 1e3,
            "read_p99_ms": percentile(tally.latencies, 99) * 1e3,
            "read_seconds": phase.read_seconds},
        "reference": {
            "rps": len(phase.reference.latencies) / phase.reference_seconds,
            "seconds": phase.reference_seconds,
            "host_speed": phase.host_speed},
        "client_cpu_s": phase.client_cpu_s,
        "client_cpu_frac": phase.client_cpu_s / (phase.reads_end - phase.t0),
        "host_idle_frac": phase.host_idle_frac,
        "server_cpu_s": phase.server_cpu_s,
    }
    if phase.ingest is not None:
        report["ingests"] = {
            "attempted": phase.ingest.attempted,
            "failed": phase.ingest.failed, "notes": phase.ingest.notes,
            "latency_s": phase.ingest.latencies,
            "visible_s": phase.ingest.visible,
            "late_s": phase.ingest.late}
    return report


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "paper_bench") -> dict:
    """One complete run; returns the full report (``result`` is the
    machine-readable part)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    scratch = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    report = {"workload": workload, "scale": scale, "seconds": seconds,
              "trace": trace, "provenance": _provenance(root, seed)}
    try:
        if trace:
            report.update(_run_traced(root, scratch, workload, seed,
                                      seconds, scale))
        else:
            report.update(_run_untraced(root, scratch, workload, seed,
                                        seconds, scale))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def _run_untraced(root: Path, scratch: Path, workload: str, seed: int,
                  seconds: float, scale: str) -> dict:
    setup_times, stages = [], []
    for rep in range(SETUP_REPEATS - 1):
        work = scratch / f"setup-{rep}"
        work.mkdir(parents=True)
        setup = set_up(root, work, workload, seed, seconds, scale)
        start = time.monotonic()
        setup.deployment.stop(graceful=False)
        setup.stages["teardown"] = time.monotonic() - start
        setup_times.append(setup.seconds)
        stages.append(setup.stages)
        shutil.rmtree(work)
    work = scratch / "measured"
    work.mkdir(parents=True)
    setup, phase = set_up_and_measure(root, work, workload, seed, seconds,
                                      scale)
    setup_times.append(setup.seconds)
    stages.append(setup.stages)
    metrics = end_to_end(phase, setup_times)
    return {"setup_s_each": setup_times, "stages": stages,
            "phase": _phase_report(phase),
            "metrics": metrics,
            "result": {"attempted": phase.attempted, "failed": phase.failed}}


def _run_traced(root: Path, scratch: Path, workload: str, seed: int,
                seconds: float, scale: str) -> dict:
    plain_work = scratch / "untraced"
    plain_work.mkdir(parents=True)
    # The untraced half only anchors the overhead estimate.
    _, plain = set_up_and_measure(root, plain_work, workload, seed,
                                  seconds / 2, scale, replay=False)
    work = scratch / "traced"
    trace_dir = work / "spans"
    trace_dir.mkdir(parents=True)
    probe = 0 if workload == "ingest_read" else PROBE_INGESTS
    setup, phase = set_up_and_measure(root, work, workload, seed, seconds,
                                      scale, trace_dir, probe=probe)
    spans = layers.load_spans(trace_dir, setup.deployment.pids)
    metrics = layers.per_layer(phase, plain, spans)
    return {"phase": _phase_report(phase),
            "untraced_phase": _phase_report(plain),
            "metrics": metrics,
            "result": {"attempted": phase.attempted + plain.attempted,
                       "failed": phase.failed + plain.failed}}
