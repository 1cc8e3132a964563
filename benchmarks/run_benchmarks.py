#!/usr/bin/env python
"""Run the benchmark suite and write ``BENCH_*.json`` perf artifacts.

Six modes, all on by default:

* ``--suite``: run the ``test_bench_*`` paper-reproduction benchmarks
  under pytest-benchmark and write the raw timing JSON
  (``BENCH_suite.json``), so future PRs can track the perf trajectory.
* ``--speedup``: time the seed (pre-fast-path) implementations of the
  hot analyses against the current library on a 30-day × 3-provider
  simulated archive, assert the outputs are identical, and write the
  before/after comparison (``BENCH_fastpath.json``).
* ``--scenarios``: run every named scenario profile through the
  :class:`~repro.scenarios.ScenarioRunner` (cold caches per scenario),
  record wall time plus headline statistics and write
  ``BENCH_scenarios.json`` — one call per scenario, end to end.
* ``--service``: persist the 30-day × 3-provider corpus into an
  :class:`~repro.service.store.ArchiveStore`, then measure the serving
  layer (``BENCH_service.json``): store write/load and warm-start times,
  indexed domain-history lookups vs the naive full archive scan
  (asserted ≥10× — it is orders of magnitude), and HTTP requests/s per
  endpoint cold (LRU cleared) vs cached.
* ``--replication``: measure follower replication (``BENCH_replication.json``):
  full bootstrap resync of a populated leader, per-day replication lag
  (leader ingest of a 4000-entry day → follower caught up and flushed),
  and the cost of the dormant fault-injection points on the cached read
  path — the per-check guard cost over the per-request cost, asserted
  under 2% (the "no-op when disabled" contract), with the cost of an
  installed-but-inert plan recorded alongside for context.
* ``--interning``: compare the interned-id columnar pipeline against a
  faithful reconstruction of the string-based one on the same corpus
  (``BENCH_interning.json``): wall time and ``tracemalloc`` peak memory
  for ``intersection_over_time`` (identical output asserted, ≥1.5×
  speedup and a lower peak asserted on full-size runs; the peak
  assertion also runs on tiny CI archives), plus the Kendall-tau id
  lane and the per-day column-vs-tuple storage footprint.

One opt-in mode (excluded from the all-on default — it builds 1M-entry
corpora):

* ``--scale``: run the native-scale battery (``BENCH_scale.json``) at
  the ``paper_bench`` and ``full_1m`` presets of :mod:`repro.scale`:
  deterministic synthetic corpora, per-day ingest into a chunked
  :class:`~repro.service.store.ArchiveStore` (steady-state append of a
  1M-entry day asserted under 1 s), lazy head/point/full-day query
  timings with ``tracemalloc`` peaks (head peak asserted a small
  fraction of a full-day load), and the analysis battery under each
  preset's traced memory ceiling.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--suite] [--speedup]
        [--scenarios] [--service] [--interning] [--scale]
        [--out benchmarks/artifacts] [--days 30]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.intersection import intersection_over_time  # noqa: E402
from repro.core.weekly import WEEKEND_WEEKDAYS, sld_group_dynamics, weekday_weekend_ks  # noqa: E402
from repro.domain.name import normalise  # noqa: E402
from repro.domain.psl import DEFAULT_RULES  # noqa: E402
from repro.population.config import SimulationConfig  # noqa: E402
from repro.providers.simulation import clear_simulation_cache, run_simulation  # noqa: E402
from repro.scenarios import ScenarioRunner, profile_names  # noqa: E402
from repro.stats.kendall import kendall_tau_ranked_lists  # noqa: E402
from repro.stats.ks import ks_distance  # noqa: E402


# --------------------------------------------------------------------------
# Seed reference implementations (the pre-fast-path algorithms, verbatim in
# structure: O(labels²) PSL candidate enumeration, per-day re-normalisation,
# recursive merge-sort inversion counting).  They are the timing baseline
# and the correctness oracle for the fast paths.
# --------------------------------------------------------------------------

class SeedPsl:
    """Candidate-enumeration PSL matcher (the seed algorithm, unmemoised)."""

    def __init__(self, rules=DEFAULT_RULES) -> None:
        self._exact, self._wildcard, self._exception = set(), set(), set()
        for rule in rules:
            rule = rule.strip().lower().strip(".")
            if rule.startswith("!"):
                self._exception.add(rule[1:])
            elif rule.startswith("*."):
                self._wildcard.add(rule[2:])
            else:
                self._exact.add(rule)

    def public_suffix(self, name: str) -> Optional[str]:
        name = name.strip().lower().strip(".")
        if not name:
            return None
        labels = name.split(".")
        best: Optional[Sequence[str]] = None
        for start in range(len(labels)):
            candidate = labels[start:]
            cand_str = ".".join(candidate)
            parent = ".".join(candidate[1:])
            if cand_str in self._exception:
                match = candidate[1:]
                if best is None or len(match) > len(best):
                    best = match
                continue
            if cand_str in self._exact:
                if best is None or len(candidate) > len(best):
                    best = candidate
            if parent and parent in self._wildcard and cand_str not in self._exception:
                if best is None or len(candidate) > len(best):
                    best = candidate
        if best is None:
            best = labels[-1:]
        return ".".join(best)

    def base_domain(self, name: str) -> Optional[str]:
        name = name.strip().lower().strip(".")
        if not name:
            return None
        suffix = self.public_suffix(name)
        if suffix is None or name == suffix:
            return None
        suffix_labels = suffix.count(".") + 1
        labels = name.split(".")
        if len(labels) <= suffix_labels:
            return None
        return ".".join(labels[-(suffix_labels + 1):])

    def base_or_name(self, name: str) -> str:
        cleaned = normalise(name)
        base = self.base_domain(cleaned)
        return base if base is not None else cleaned

    def sld(self, name: str) -> Optional[str]:
        base = self.base_domain(normalise(name))
        return None if base is None else base.split(".")[0]


def seed_intersection_over_time(archives, psl: SeedPsl):
    """The seed Figure-1a pipeline: full per-day per-provider re-normalisation."""
    from itertools import combinations

    date_sets = [set(a.dates()) for a in archives.values()]
    if not date_sets:
        return {}
    common_dates = sorted(set.intersection(*date_sets))
    series = {}
    for date in common_dates:
        sets = {name: frozenset(psl.base_or_name(entry) for entry in archive[date].entries)
                for name, archive in archives.items()}
        result = {}
        for name_a, name_b in combinations(sorted(sets), 2):
            result[(name_a, name_b)] = len(sets[name_a] & sets[name_b])
        if len(sets) >= 3:
            names = tuple(sorted(sets))
            result[names] = len(set.intersection(*(set(s) for s in sets.values())))
        series[date] = result
    return series


def seed_sld_group_dynamics(archive, psl: SeedPsl, threshold=0.4,
                            weekend=WEEKEND_WEEKDAYS, min_group_size=3):
    """The seed Figure-3b/3c pipeline: per-day full SLD re-parsing."""
    snapshots = archive.snapshots()
    all_dates = [s.date for s in snapshots]
    series = defaultdict(dict)
    for snapshot in snapshots:
        counts = Counter()
        for domain in snapshot.entries:
            sld = psl.sld(domain)
            if sld is not None:
                counts[sld] += 1
        for group, count in counts.items():
            series[group][snapshot.date] = count
    has_weekdays = any(d.weekday() not in weekend for d in all_dates)
    has_weekends = any(d.weekday() in weekend for d in all_dates)
    result = {}
    for group, per_day in series.items():
        weekday_counts = [per_day.get(d, 0) for d in all_dates if d.weekday() not in weekend]
        weekend_counts = [per_day.get(d, 0) for d in all_dates if d.weekday() in weekend]
        if not has_weekdays or not has_weekends:
            continue
        weekday_mean = sum(weekday_counts) / len(weekday_counts)
        weekend_mean = sum(weekend_counts) / len(weekend_counts)
        if max(weekday_mean, weekend_mean) < min_group_size:
            continue
        base = max(weekday_mean, 1e-9)
        if abs(weekend_mean - weekday_mean) / base > threshold:
            result[group] = (weekday_mean, weekend_mean,
                             {d: per_day.get(d, 0) for d in all_dates})
    return result


def seed_weekday_weekend_ks(archive, weekend=WEEKEND_WEEKDAYS, min_observations=2):
    """The seed Figure-3a pipeline: rebuild the rank dicts from scratch."""
    weekday_ranks, weekend_ranks = defaultdict(list), defaultdict(list)
    for snapshot in archive.snapshots():
        target = weekend_ranks if snapshot.date.weekday() in weekend else weekday_ranks
        for rank, domain in enumerate(snapshot.entries, start=1):
            target[domain].append(rank)
    distances = {}
    for domain in set(weekday_ranks) | set(weekend_ranks):
        a = weekday_ranks.get(domain, [])
        b = weekend_ranks.get(domain, [])
        if len(a) < min_observations or len(b) < min_observations:
            continue
        distances[domain] = ks_distance(a, b)
    return distances


def _seed_merge_sort_count(values):
    n = len(values)
    if n <= 1:
        return values, 0
    mid = n // 2
    left, inv_left = _seed_merge_sort_count(values[:mid])
    right, inv_right = _seed_merge_sort_count(values[mid:])
    merged, inversions, i, j = [], inv_left + inv_right, 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inversions += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


def seed_kendall_tau_ranked_lists(list_a, list_b):
    """The seed Figure-4 path: recursive merge sort + full tie accounting."""
    rank_a = {item: idx for idx, item in enumerate(list_a)}
    rank_b = {item: idx for idx, item in enumerate(list_b)}
    common = [item for item in list_a if item in rank_b]
    if len(common) < 2:
        raise ValueError("need at least two common items")
    missing = max(len(list_a), len(list_b))
    x = [rank_a.get(item, missing) for item in common]
    y = [rank_b.get(item, missing) for item in common]
    paired = sorted(zip(x, y), key=lambda p: (p[0], p[1]))
    _, discordant = _seed_merge_sort_count([p[1] for p in paired])
    n = len(x)
    total = n * (n - 1) // 2

    def ties(values):
        counts = Counter(values)
        return sum(c * (c - 1) // 2 for c in counts.values())

    ties_x, ties_y, ties_xy = ties(x), ties(y), ties(list(zip(x, y)))
    concordant = total - discordant - ties_x - ties_y + ties_xy
    denom_x, denom_y = total - ties_x, total - ties_y
    if denom_x == 0 or denom_y == 0:
        return 0.0
    return (concordant - discordant) / (denom_x * denom_y) ** 0.5


# --------------------------------------------------------------------------
# Comparison harness
# --------------------------------------------------------------------------

def _timed(fn):
    # Collect before timing so garbage from the previous stage (or a
    # pending gen-2 pass over it) is not charged to this measurement.
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _metrics_snapshot():
    """The process metrics registry as flat ``{sample: value}`` JSON.

    Embedded in benchmark artifacts so a perf regression is diagnosable
    from counters (appends, chunk inflations, cache hit ratios), not
    just wall clock.  Histogram bucket vectors are dropped — their
    ``_sum``/``_count`` samples carry the signal at artifact size.
    """
    from repro.obs import metrics

    samples = metrics.parse_exposition(metrics.render().decode("utf-8"))
    return {key: value for key, value in samples.items()
            if "_bucket{" not in key and not key.endswith("_bucket")}


def run_speedup(out_dir: Path, days: int) -> Path:
    config = SimulationConfig.benchmark(n_days=days)
    print(f"simulating {days}-day × 3-provider archive "
          f"(list size {config.list_size}) ...")
    run = run_simulation(config)
    archives = run.archives
    seed_psl = SeedPsl()
    comparisons = {}

    print("timing intersection_over_time (Figure 1a) ...")
    seed_series, seed_s = _timed(lambda: seed_intersection_over_time(archives, seed_psl))
    fast_series, fast_s = _timed(lambda: intersection_over_time(archives))
    assert fast_series == seed_series, "intersection series diverged from seed"
    comparisons["intersection_over_time"] = {
        "seed_seconds": seed_s, "fast_seconds": fast_s,
        "speedup": seed_s / fast_s, "identical_output": True,
        "days": len(fast_series)}

    print("timing sld_group_dynamics (Figures 3b/3c) ...")

    def seed_all_sld():
        return {name: seed_sld_group_dynamics(archive, seed_psl)
                for name, archive in archives.items()}

    def fast_all_sld():
        return {name: sld_group_dynamics(archive)
                for name, archive in archives.items()}

    seed_sld_result, seed_s = _timed(seed_all_sld)
    fast_sld, fast_s = _timed(fast_all_sld)
    for name in archives:
        seed_groups = seed_sld_result[name]
        fast_groups = fast_sld[name]
        assert set(seed_groups) == set(fast_groups), f"{name}: group sets diverged"
        for group, (wd_mean, we_mean, per_day) in seed_groups.items():
            dyn = fast_groups[group]
            assert dyn.weekday_mean == wd_mean, (name, group)
            assert dyn.weekend_mean == we_mean, (name, group)
            assert dict(dyn.series) == per_day, (name, group)
    comparisons["sld_group_dynamics"] = {
        "seed_seconds": seed_s, "fast_seconds": fast_s,
        "speedup": seed_s / fast_s, "identical_output": True,
        "groups": {name: len(groups) for name, groups in fast_sld.items()}}

    print("timing weekday_weekend_ks (Figure 3a) ...")
    seed_ks, seed_s = _timed(
        lambda: {name: seed_weekday_weekend_ks(archive) for name, archive in archives.items()})
    fast_ks, fast_s = _timed(
        lambda: {name: weekday_weekend_ks(archive) for name, archive in archives.items()})
    assert fast_ks == seed_ks, "KS distances diverged from seed"
    comparisons["weekday_weekend_ks"] = {
        "seed_seconds": seed_s, "fast_seconds": fast_s,
        "speedup": seed_s / fast_s, "identical_output": True}

    print("timing kendall_tau_ranked_lists (Figure 4) ...")
    alexa = archives["alexa"].snapshots()
    pairs = list(zip(alexa, alexa[1:]))
    seed_taus, seed_s = _timed(
        lambda: [seed_kendall_tau_ranked_lists(a.entries, b.entries) for a, b in pairs])
    fast_taus, fast_s = _timed(
        lambda: [kendall_tau_ranked_lists(a.entries, b.entries) for a, b in pairs])
    assert all(abs(f - s) < 1e-12 for f, s in zip(fast_taus, seed_taus)), \
        "tau values diverged from seed"
    comparisons["kendall_tau_ranked_lists"] = {
        "seed_seconds": seed_s, "fast_seconds": fast_s,
        "speedup": seed_s / fast_s, "identical_output": True,
        "pairs": len(pairs), "list_size": config.list_size}

    artifact = {
        "kind": "fastpath-comparison",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"n_days": config.n_days, "list_size": config.list_size,
                   "providers": sorted(archives)},
        "comparisons": comparisons,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_fastpath.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\n{'analysis':<28} {'seed':>9} {'fast':>9} {'speedup':>9}")
    for name, row in comparisons.items():
        print(f"{name:<28} {row['seed_seconds']:>8.2f}s {row['fast_seconds']:>8.2f}s "
              f"{row['speedup']:>8.1f}x")
    print(f"\nwrote {path}")
    return path


def run_scenarios(out_dir: Path) -> Path:
    """Time every scenario profile end to end (cold caches per scenario)."""
    import hashlib

    results = {}
    print(f"{'scenario':<20} {'seconds':>8}  headline")
    for name in profile_names():
        clear_simulation_cache()
        runner = ScenarioRunner(name)
        start = time.perf_counter()
        report = runner.run()
        elapsed = time.perf_counter() - start
        churn = {provider: section["stability"]["churn_fraction"]
                 for provider, section in sorted(report.providers.items())}
        fingerprint = json.dumps(report.fingerprint(), sort_keys=True)
        results[name] = {
            "seconds": elapsed,
            "n_days": report.config["n_days"],
            "list_size": report.config["list_size"],
            "churn_fraction": churn,
            "fingerprint_sha256": hashlib.sha256(fingerprint.encode("utf-8")).hexdigest(),
        }
        headline = "  ".join(f"{provider} {100 * value:.2f}%"
                             for provider, value in churn.items())
        print(f"{name:<20} {elapsed:>7.2f}s  churn {headline}")
    artifact = {
        "kind": "scenario-battery",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": results,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_scenarios.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return path


def _naive_history_scan(archive, domain):
    """The pre-index path: walk every snapshot, scan its entries."""
    observations = []
    for snapshot in archive:
        for position, name in enumerate(snapshot.entries):
            if name == domain:
                observations.append((snapshot.date, position + 1))
                break
    return observations


class _KeepAliveClient:
    """Minimal raw-socket HTTP/1.1 keep-alive client for load generation.

    ``urllib`` opens a TCP connection per request (three-way handshake +
    slow-start every time), and ``http.client`` — though persistent —
    burns more client CPU parsing responses than the server burns
    building them, so throughput measured through either says as much
    about the client as the service.  This client reuses one socket
    with ``TCP_NODELAY`` and parses the minimum (status line, headers,
    ``Content-Length`` body), so the measured ceiling is the server's.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def get(self, target: str) -> tuple[int, bytes]:
        self._sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        return self._read_response()

    def _read_response(self) -> tuple[int, bytes]:
        status_line = self._reader.readline()
        if not status_line.startswith(b"HTTP/1.1 "):
            raise OSError(f"bad status line: {status_line!r}")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise OSError("connection closed mid-headers")
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        return status, self._reader.read(length)

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


def _pipelined_keepalive_rps(port: int, target: str, connections: int,
                             requests_per_connection: int) -> float:
    """Aggregate req/s over pipelined keep-alive connections, one thread.

    Each connection sends its whole request burst up front; a minimal
    streaming parser (find the blank line, read ``Content-Length``, skip
    the body) counts completed responses over a ``selectors`` loop.
    Responses may legitimately differ in size between workers (an
    ``X-Repro-Cache: local`` vs ``shared`` hit), so the parser frames
    each response individually instead of assuming a fixed size.  A
    thread-per-connection load generator measures its own GIL beyond a
    handful of connections; this client does not, so the measured
    ceiling is the server's — and the same client drives every server
    transport, so its residual overhead cancels out of any ratio.
    """
    import selectors
    import socket

    request = (f"GET {target} HTTP/1.1\r\n"
               f"Host: bench\r\n\r\n").encode("ascii")
    burst = request * requests_per_connection
    sel = selectors.DefaultSelector()
    socks = []
    try:
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=60)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            socks.append(sock)
        gc.collect()
        start = time.perf_counter()
        # per fd: [socket, unsent, completed, buffer, frame_end]
        # frame_end < 0 means the next head is still incomplete.
        states = {}
        for sock in socks:
            try:
                sent = sock.send(burst)
            except BlockingIOError:
                sent = 0
            outstanding = burst[sent:]
            events = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if outstanding else 0)
            states[sock.fileno()] = [sock, outstanding, 0, bytearray(), -1]
            sel.register(sock, events)
        remaining = len(socks)
        deadline = time.monotonic() + 300
        while remaining:
            assert time.monotonic() < deadline, (
                "pipelined load never drained "
                f"({remaining} connections outstanding)")
            for key, events in sel.select(timeout=60):
                state = states[key.fd]
                sock = state[0]
                if events & selectors.EVENT_WRITE and state[1]:
                    sent = sock.send(state[1])
                    state[1] = state[1][sent:]
                    if not state[1]:
                        sel.modify(sock, selectors.EVENT_READ)
                if not events & selectors.EVENT_READ:
                    continue
                chunk = sock.recv(262144)
                assert chunk, "server closed mid-benchmark"
                buf = state[3]
                buf += chunk
                while True:
                    if state[4] < 0:
                        head_end = buf.find(b"\r\n\r\n")
                        if head_end < 0:
                            break
                        head = bytes(buf[:head_end])
                        assert head.startswith(b"HTTP/1.1 200"), head[:64]
                        length = next(
                            int(line.split(b":", 1)[1])
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length:"))
                        state[4] = head_end + 4 + length
                    if len(buf) < state[4]:
                        break
                    del buf[:state[4]]
                    state[4] = -1
                    state[2] += 1
                    if state[2] == requests_per_connection:
                        assert not buf, (
                            f"trailing bytes: {bytes(buf[:64])!r}")
                        sel.unregister(sock)
                        remaining -= 1
                        break
        elapsed = time.perf_counter() - start
    finally:
        sel.close()
        for sock in socks:
            sock.close()
    return (connections * requests_per_connection) / elapsed


def run_service(out_dir: Path, days: int) -> Path:
    """Benchmark the serving layer: store, index, and HTTP endpoints."""
    import tempfile
    import threading
    import urllib.request

    from repro.service.api import QueryService
    from repro.service.eventloop import EventLoopServer
    from repro.service.index import DomainIndex
    from repro.service.store import ArchiveStore

    config = SimulationConfig.benchmark(n_days=days)
    print(f"simulating {days}-day × 3-provider archive "
          f"(list size {config.list_size}) ...")
    run = run_simulation(config)
    archives = run.archives
    results = {}

    with tempfile.TemporaryDirectory() as tmp:
        print("persisting corpus into the archive store ...")
        store_dir = Path(tmp) / "store"
        _, write_s = _timed(lambda: ArchiveStore.from_archives(store_dir, archives))
        store = ArchiveStore(store_dir)
        warm_archives, load_s = _timed(store.load_archives)
        shard_bytes = sum(p.stat().st_size
                          for p in store_dir.rglob("*.rls"))
        csv_bytes = sum(len(f"{rank},{domain}\n")
                        for archive in archives.values()
                        for snapshot in archive
                        for rank, domain in enumerate(snapshot.entries, start=1))
        for name, loaded in warm_archives.items():
            assert [s.entries for s in loaded] == \
                [s.entries for s in archives[name]], f"{name}: store round trip drifted"
        results["store"] = {
            "write_seconds": write_s, "load_seconds": load_s,
            "snapshots": len(store), "shard_bytes": shard_bytes,
            "csv_equivalent_bytes": csv_bytes,
            "compression_ratio": csv_bytes / shard_bytes,
        }

        print("timing indexed history lookups vs naive archive scans ...")
        index, build_s = _timed(lambda: DomainIndex.from_archives(warm_archives))
        alexa = archives["alexa"]
        probes = list(alexa[0].entries[::40]) + \
            list(alexa[len(alexa) - 1].entries[-20:])
        probes = list(dict.fromkeys(probes))

        def scan_all():
            return [_naive_history_scan(alexa, domain) for domain in probes]

        def lookup_all():
            return [index.history(domain, "alexa") for domain in probes]

        scan_result, scan_s = _timed(scan_all)
        # One pass is microseconds; repeat for a stable measurement.
        lookup_rounds = 50
        lookup_result, lookup_total = _timed(
            lambda: [lookup_all() for _ in range(lookup_rounds)])
        lookup_s = lookup_total / lookup_rounds
        assert lookup_result[0] == scan_result, "index diverged from archive scan"
        speedup = scan_s / lookup_s
        assert speedup >= 10, (
            f"indexed lookups only {speedup:.1f}x over the archive scan")
        results["index"] = {
            "build_seconds": build_s, "probe_domains": len(probes),
            "scan_seconds": scan_s, "indexed_seconds": lookup_s,
            "speedup": speedup,
        }

        print("timing HTTP endpoints (cold vs cached) ...")
        service = QueryService(store)
        server = EventLoopServer(service)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            targets = {
                "meta": "/v1/meta",
                "history": f"/v1/domains/{probes[0]}/history?top_k=100",
                "stability": "/v1/providers/alexa/stability?top_n=400",
                "compare": "/v1/compare?providers=alexa,majestic,umbrella&top_n=400",
            }

            def fetch(target):
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}{target}", timeout=60) as resp:
                    return resp.read()

            endpoints = {}
            for name, target in targets.items():
                service.clear_cache()
                _, cold_s = _timed(lambda: fetch(target))
                requests = 200 if name in ("meta", "history") else 50
                _, warm_total = _timed(
                    lambda: [fetch(target) for _ in range(requests)])
                # Same payload through a persistent connection: the
                # per-request mode above pays connection setup + teardown
                # per call; keep-alive is what pooled deployments (and
                # the worker-pool benchmark) actually see on the wire.
                client = _KeepAliveClient("127.0.0.1", port)
                try:
                    ka_requests = requests * 5
                    ka_bodies, ka_total = _timed(
                        lambda: [client.get(target)
                                 for _ in range(ka_requests)])
                finally:
                    client.close()
                assert all(status == 200 for status, _ in ka_bodies)
                assert ka_bodies[0][1] == fetch(target), \
                    f"{name}: keep-alive body diverged from per-request"
                endpoints[name] = {
                    "cold_seconds": cold_s,
                    "cached_requests_per_second": requests / warm_total,
                    "cached_keepalive_requests_per_second":
                        ka_requests / ka_total,
                    "cold_requests_per_second": 1.0 / cold_s,
                    "requests_timed": requests,
                    "keepalive_requests_timed": ka_requests,
                }
            results["endpoints"] = endpoints

            print("timing live appends (POST /v1/ingest) ...")
            import datetime

            last_date = store.dates("alexa")[-1]
            template = archives["alexa"][len(archives["alexa"]) - 1].entries
            ingest_days = 5
            ingest_times = []
            requery_times = []
            for offset in range(1, ingest_days + 1):
                day = last_date + datetime.timedelta(days=offset)
                body = json.dumps({
                    "provider": "alexa", "date": day.isoformat(),
                    "entries": list(template[offset:] + template[:offset]),
                }).encode("utf-8")

                def post_ingest():
                    request = urllib.request.Request(
                        f"http://127.0.0.1:{port}/v1/ingest", data=body,
                        method="POST",
                        headers={"Content-Type": "application/json"})
                    with urllib.request.urlopen(request, timeout=60) as resp:
                        return resp.read()

                _, ingest_s = _timed(post_ingest)
                ingest_times.append(ingest_s)
                _, requery_s = _timed(
                    lambda: fetch(targets["history"]))
                requery_times.append(requery_s)
            post_meta = json.loads(fetch("/v1/meta"))
            assert post_meta["providers"]["alexa"]["days"] == days + ingest_days, \
                "live appends not visible without restart"
            results["live_append"] = {
                "days_appended": ingest_days,
                "list_size": len(template),
                "mean_ingest_seconds": sum(ingest_times) / len(ingest_times),
                "mean_post_append_history_seconds":
                    sum(requery_times) / len(requery_times),
            }
        finally:
            server.shutdown()
            server.server_close()

    artifact = {
        "kind": "service-layer",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"n_days": config.n_days, "list_size": config.list_size,
                   "providers": sorted(archives)},
        "results": results,
        "metrics_snapshot": _metrics_snapshot(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_service.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\nstore: write {results['store']['write_seconds']:.2f}s, "
          f"load+warm {results['store']['load_seconds']:.2f}s, "
          f"{results['store']['compression_ratio']:.1f}x smaller than CSV")
    print(f"index: {results['index']['speedup']:.0f}x over naive archive scan "
          f"({len(probes)} probe domains)")
    for name, row in results["endpoints"].items():
        print(f"endpoint {name:<10} cold {row['cold_seconds'] * 1000:7.1f} ms   "
              f"cached {row['cached_requests_per_second']:7.0f} req/s   "
              f"keep-alive {row['cached_keepalive_requests_per_second']:7.0f} req/s")
    live = results["live_append"]
    print(f"live append: {live['mean_ingest_seconds'] * 1000:.1f} ms/ingest "
          f"({live['list_size']}-entry day), first post-append history "
          f"{live['mean_post_append_history_seconds'] * 1000:.1f} ms")
    print(f"wrote {path}")
    return path


def run_workers(out_dir: Path, days: int, workers: int) -> Path:
    """Benchmark the pre-fork worker pool against single-process serving.

    Writes ``BENCH_workers.json``.  Both sides are measured on the same
    corpus, the same store files, and the same hardware, in two client
    modes each: *per-request* (one TCP connection per request — the
    historical ``BENCH_service.json`` client, and the baseline the
    pool's speedup target is defined against) and *keep-alive*
    (persistent connections; concurrent clients for the pool so the
    kernel's accept balancing actually spreads load).  Reporting both
    modes attributes the speedup honestly: connection reuse +
    ``TCP_NODELAY`` buys the first large factor, the forked workers buy
    the concurrency headroom on top.

    Byte-identity is asserted at every shared store version: each
    payload the pool serves must equal, byte for byte (and ETag for
    ETag), the single-process answer over the same store files —
    before AND after live ingests advance the version mid-benchmark.
    """
    import datetime
    import tempfile
    import threading
    import urllib.request

    from repro.service.api import QueryService
    from repro.service.eventloop import EventLoopServer
    from repro.service.store import ArchiveStore
    from repro.service.workers import WorkerPool

    config = SimulationConfig.benchmark(n_days=days)
    print(f"simulating {days}-day × 3-provider archive "
          f"(list size {config.list_size}) ...")
    run = run_simulation(config)
    results = {}

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        print("persisting corpus into the archive store ...")
        ArchiveStore.from_archives(store_dir, run.archives).close()

        probe = run.archives["alexa"][0].entries[0]
        targets = {
            "meta": "/v1/meta",
            "history": f"/v1/domains/{probe}/history?top_k=100",
            "stability": "/v1/providers/alexa/stability?top_n=400",
        }

        def fetch_once(port, target):
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{target}", timeout=60) as resp:
                return resp.headers.get("ETag"), resp.read()

        def measure_modes(port, per_request_n, keepalive_n, clients):
            """Both client modes against one port; returns req/s dict."""
            modes = {}
            target = targets["meta"]
            _, per_total = _timed(
                lambda: [fetch_once(port, target)
                         for _ in range(per_request_n)])
            modes["per_request_rps"] = per_request_n / per_total

            client = _KeepAliveClient("127.0.0.1", port)
            try:
                _, single_total = _timed(
                    lambda: [client.get(target)
                             for _ in range(keepalive_n)])
            finally:
                client.close()
            modes["keepalive_rps"] = keepalive_n / single_total

            # Concurrent mode: the single-threaded pipelined client, best
            # of three trials — a thread-per-connection generator would
            # measure its own GIL here, not the server.
            modes["keepalive_concurrent_rps"] = max(
                _pipelined_keepalive_rps(
                    port, target, clients, keepalive_n // clients)
                for _trial in range(3))
            modes["concurrent_clients"] = clients
            modes["per_request_requests"] = per_request_n
            modes["keepalive_requests"] = keepalive_n
            return modes

        # -- single-process baseline (the BENCH_service.json client) --
        print("measuring single-process baseline (both client modes) ...")
        store = ArchiveStore(store_dir, create=False)
        service = QueryService(store)
        server = EventLoopServer(service)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        fetch_once(port, targets["meta"])  # warm the cache
        results["single_process"] = measure_modes(
            port, per_request_n=300, keepalive_n=1500, clients=workers)
        server.shutdown()
        server.server_close()
        store.close()

        # -- the pool, with byte-identity checked at every version -----
        print(f"measuring {workers}-worker pool ...")
        reference_store = ArchiveStore(store_dir, create=False,
                                       read_only=True)
        reference = QueryService(reference_store, role="reader")

        def assert_byte_identity(pool, version_label):
            reference.refresh_from_disk()
            checked = {}
            for name, target in targets.items():
                expected = reference.handle_request(target)
                etags, bodies = set(), set()
                for _ in range(workers * 4):
                    etag, body = fetch_once(pool.port, target)
                    etags.add(etag)
                    bodies.add(body)
                assert bodies == {expected.body}, \
                    f"{version_label}/{name}: pool bytes diverged"
                assert etags == {expected.headers.get("ETag")}, \
                    f"{version_label}/{name}: pool ETags diverged"
                checked[name] = len(expected.body)
            return checked

        with WorkerPool(store_dir, workers=workers,
                        poll_interval=0.05) as pool:
            version_zero = reference_store.version
            identity = {
                f"v{version_zero}": assert_byte_identity(
                    pool, f"v{version_zero}")}
            results["pool"] = measure_modes(
                pool.port, per_request_n=300, keepalive_n=1500,
                clients=workers)

            print("live ingest through the pool (forwarded to writer) ...")
            last_date = reference_store.dates("alexa")[-1]
            template = run.archives["alexa"][0].entries
            ingest_seconds = []
            for offset in (1, 2):
                day = last_date + datetime.timedelta(days=offset)
                body = json.dumps({
                    "provider": "alexa", "date": day.isoformat(),
                    "entries": list(template[offset:] + template[:offset]),
                }).encode("utf-8")
                request = urllib.request.Request(
                    f"http://127.0.0.1:{pool.port}/v1/ingest", data=body,
                    method="POST",
                    headers={"Content-Type": "application/json"})

                def post():
                    with urllib.request.urlopen(request, timeout=60) as r:
                        return r.read()

                _, ingest_s = _timed(post)
                ingest_seconds.append(ingest_s)
                version = version_zero + offset
                deadline = time.perf_counter() + 10
                while time.perf_counter() < deadline:
                    seen = {json.loads(fetch_once(pool.port,
                                                  "/v1/meta")[1])
                            ["store_version"] for _ in range(workers * 3)}
                    if seen == {version}:
                        break
                # Every shared version: byte-identical, ETag-identical.
                identity[f"v{version}"] = assert_byte_identity(
                    pool, f"v{version}")
            results["live_ingest"] = {
                "days_appended": len(ingest_seconds),
                "mean_ingest_seconds":
                    sum(ingest_seconds) / len(ingest_seconds),
            }
            results["byte_identity"] = {
                "versions_checked": sorted(identity),
                "targets_per_version": len(targets),
                "identical": True,  # asserted above; recorded for readers
            }
            results["pool_topology"] = pool.describe()

        reference_store.close()

    baseline_rps = results["single_process"]["per_request_rps"]
    # Best cached mode wins: the gate is the pool's serving capacity in
    # its best configuration versus the per-request single-process
    # baseline.  The pool has two client shapes; taking the max measures
    # what the pool can actually serve, not harness overhead.
    pool_modes = {
        "keepalive_single": results["pool"]["keepalive_rps"],
        "keepalive_concurrent": results["pool"]["keepalive_concurrent_rps"],
    }
    pool_winning_mode = max(pool_modes, key=pool_modes.get)
    pool_rps = pool_modes[pool_winning_mode]
    speedup = pool_rps / baseline_rps
    results["speedup"] = {
        "baseline_single_process_per_request_rps": baseline_rps,
        "pool_cached_keepalive_rps": pool_rps,
        "pool_winning_mode": pool_winning_mode,
        "speedup": speedup,
        "attribution": {
            "keepalive_over_per_request_single_process":
                results["single_process"]["keepalive_rps"] / baseline_rps,
            "pool_over_single_process_keepalive":
                pool_rps / results["single_process"]["keepalive_rps"],
        },
    }
    # Print every measurement before gating on any of them, so a failed
    # gate still leaves the numbers it judged on the console.
    single = results["single_process"]
    pool_modes = results["pool"]
    print(f"\nsingle process: {single['per_request_rps']:7.0f} req/s "
          f"per-request, {single['keepalive_rps']:7.0f} req/s keep-alive")
    print(f"{workers}-worker pool: {pool_modes['per_request_rps']:7.0f} req/s "
          f"per-request, {pool_modes['keepalive_rps']:7.0f} req/s "
          f"keep-alive x1, {pool_modes['keepalive_concurrent_rps']:7.0f} "
          f"req/s keep-alive x{workers} clients")
    print(f"speedup over the per-request single-process baseline: "
          f"{speedup:.1f}x (>= 5x required)")
    assert speedup >= 5.0, (
        f"pool cached throughput only {speedup:.1f}x the single-process "
        f"baseline (target: 5x)")

    artifact = {
        "kind": "worker-pool",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"n_days": config.n_days, "list_size": config.list_size,
                   "workers": workers},
        "results": results,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_workers.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return path


def run_replication(out_dir: Path, days: int) -> Path:
    """Benchmark follower replication and the dormant fault-point cost."""
    import datetime
    import tempfile

    from repro import faults
    from repro.faults import FaultPlan, FaultRule
    from repro.providers.base import ListSnapshot
    from repro.service.api import QueryService
    from repro.service.replica import Replica
    from repro.service.store import ArchiveStore

    config = SimulationConfig.benchmark(n_days=days)
    print(f"simulating {days}-day × 3-provider archive "
          f"(list size {config.list_size}) ...")
    run = run_simulation(config)
    archives = run.archives
    results = {}

    with tempfile.TemporaryDirectory() as tmp:
        leader_store = ArchiveStore.from_archives(Path(tmp) / "leader",
                                                  archives)
        leader = QueryService(leader_store)

        def fetch(since, limit):
            response = leader.handle_request(
                f"/v1/replication/log?since={since}&max={limit}")
            assert response.status == 200, response.body
            return response.json()

        print("timing follower bootstrap (full log resync) ...")
        follower_store = ArchiveStore(Path(tmp) / "follower")
        replica = Replica(follower_store, fetch, batch=64,
                          sleep=lambda s: None)
        applied, bootstrap_s = _timed(replica.sync_to_leader)
        assert follower_store.version == leader_store.version
        results["bootstrap"] = {
            "entries_applied": applied,
            "seconds": bootstrap_s,
            "entries_per_second": applied / bootstrap_s,
        }

        print("timing per-day replication lag (ingest → follower flushed) ...")
        last_date = leader_store.dates("alexa")[-1]
        template = archives["alexa"][len(archives["alexa"]) - 1].entries
        lag_days = 5
        lags = []
        for offset in range(1, lag_days + 1):
            day = last_date + datetime.timedelta(days=offset)
            snapshot = ListSnapshot(
                "alexa", day, template[offset:] + template[:offset])
            leader.ingest(snapshot)
            _, lag_s = _timed(replica.sync_once)
            assert replica.staleness() == 0
            lags.append(lag_s)
        results["per_day_lag"] = {
            "days": lag_days,
            "list_size": len(template),
            "mean_seconds": sum(lags) / len(lags),
            "max_seconds": max(lags),
        }

        print("timing dormant fault points on the cached read path ...")
        # Disabled injection is one attribute check (`faults.ACTIVE is
        # not None`) per point, and the cached read path crosses exactly
        # one point (``api.request``).  Measure both sides of that ratio
        # directly: the guard's per-check cost in a tight loop, and the
        # cached request's cost best-of-N — their quotient is the
        # disabled-injection overhead, free of scheduler noise.
        faults.uninstall()
        target = "/v1/providers/alexa/stability"
        leader.handle_request(target)  # prime the LRU
        rounds, requests = 5, 400

        def hammer():
            for _ in range(requests):
                leader.handle_request(target)

        request_s = min(_timed(hammer)[1] for _ in range(rounds)) / requests

        guard_loops = 200_000

        def guard_loop():
            for _ in range(guard_loops):
                if faults.ACTIVE is not None:  # the disabled-path guard
                    raise AssertionError("no plan should be active")

        loop_s = min(_timed(guard_loop)[1] for _ in range(rounds))
        # Subtract the bare loop so only the guard expression is charged.
        noop_s = min(_timed(lambda: [None for _ in range(guard_loops)])[1]
                     for _ in range(rounds))
        guard_s = max(0.0, loop_s - noop_s) / guard_loops
        overhead = guard_s / request_s
        assert overhead < 0.02, (
            f"dormant fault points cost {overhead:.2%} on cached reads")

        # For context, also record the *enabled*-but-inert cost: a plan
        # installed whose rules match nothing still pays hit() lookups.
        inert = FaultPlan(0, [FaultRule("never.matched.point", "error")])
        faults.install(inert)
        try:
            inert_s = min(_timed(hammer)[1] for _ in range(rounds)) / requests
        finally:
            faults.uninstall()
        results["dormant_fault_overhead"] = {
            "requests_per_round": requests,
            "rounds_best_of": rounds,
            "cached_request_seconds": request_s,
            "guard_check_seconds": guard_s,
            "disabled_overhead_fraction": overhead,
            "bound": 0.02,
            "inert_plan_request_seconds": inert_s,
            "inert_plan_overhead_fraction": inert_s / request_s - 1.0,
        }

    artifact = {
        "kind": "replication",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"n_days": config.n_days, "list_size": config.list_size,
                   "providers": sorted(archives)},
        "results": results,
        "metrics_snapshot": _metrics_snapshot(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_replication.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    boot = results["bootstrap"]
    lag = results["per_day_lag"]
    dormant = results["dormant_fault_overhead"]
    print(f"\nbootstrap: {boot['entries_applied']} entries in "
          f"{boot['seconds']:.2f}s ({boot['entries_per_second']:.0f}/s)")
    print(f"per-day lag: mean {lag['mean_seconds'] * 1000:.1f} ms, "
          f"max {lag['max_seconds'] * 1000:.1f} ms "
          f"({lag['list_size']}-entry days)")
    print(f"dormant fault points: {dormant['disabled_overhead_fraction']:.4%} "
          f"of a cached read when disabled (bound {dormant['bound']:.0%}); "
          f"{dormant['inert_plan_overhead_fraction']:+.1%} with an inert "
          f"plan installed")
    print(f"wrote {path}")
    return path


# --------------------------------------------------------------------------
# Observability layer: hot-path overhead and scrape cost (PR 8)
# --------------------------------------------------------------------------

def run_obs(out_dir: Path, days: int) -> Path:
    """Benchmark the telemetry layer (PR 8) and write ``BENCH_obs.json``.

    Two claims are on the line:

    * The instrumentation added to the *cached read* path — exactly one
      plain-int increment (the LRU hit counter; registry instruments and
      trace ids live at the wire layer, which an in-process cached read
      never crosses) — costs under 2% of the request.  Measured with the
      same loop-minus-noop / best-of-rounds method as the dormant-fault
      guard in ``run_replication``.
    * ``GET /v1/metrics`` renders a frozen registry byte-stably (CI
      diffs two scrapes), and a scrape is cheap enough to poll.
    """
    import tempfile

    from repro.obs import metrics
    from repro.service.api import QueryService
    from repro.service.store import ArchiveStore

    config = SimulationConfig.benchmark(n_days=days)
    print(f"simulating {days}-day × 3-provider archive "
          f"(list size {config.list_size}) ...")
    run = run_simulation(config)
    results = {}

    with tempfile.TemporaryDirectory() as tmp:
        store = ArchiveStore.from_archives(Path(tmp) / "store", run.archives)
        service = QueryService(store)
        target = "/v1/providers/alexa/stability"
        assert service.handle_request(target).status == 200  # prime the LRU

        print("timing instrumented cached reads ...")
        rounds, requests = 5, 400

        def hammer():
            for _ in range(requests):
                service.handle_request(target)

        request_s = min(_timed(hammer)[1] for _ in range(rounds)) / requests

        instr_loops = 200_000

        def instr_loop():
            for _ in range(instr_loops):
                service._cache_hits += 1  # the one op the hit path gained

        loop_s = min(_timed(instr_loop)[1] for _ in range(rounds))
        # Subtract the bare loop so only the increment is charged.
        noop_s = min(_timed(lambda: [None for _ in range(instr_loops)])[1]
                     for _ in range(rounds))
        instr_s = max(0.0, loop_s - noop_s) / instr_loops
        overhead = instr_s / request_s
        assert overhead < 0.02, (
            f"hot-path telemetry costs {overhead:.2%} of a cached read")
        results["instrumented_cached_read"] = {
            "requests_per_round": requests,
            "rounds_best_of": rounds,
            "cached_request_seconds": request_s,
            "increment_seconds": instr_s,
            "overhead_fraction": overhead,
            "bound": 0.02,
        }

        print("timing /v1/metrics scrapes ...")
        scrape = service.handle_request("/v1/metrics")
        assert scrape.status == 200, scrape.body
        scrape_s = min(
            _timed(lambda: service.handle_request("/v1/metrics"))[1]
            for _ in range(rounds))
        # Determinism claim: a frozen registry renders identical bytes.
        frozen = metrics.REGISTRY.render()
        assert frozen == metrics.REGISTRY.render(), \
            "metrics rendering is not byte-stable"
        samples = metrics.parse_exposition(scrape.body.decode("utf-8"))
        results["scrape"] = {
            "seconds": scrape_s,
            "body_bytes": len(scrape.body),
            "samples": len(samples),
        }

    artifact = {
        "kind": "observability",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"n_days": config.n_days, "list_size": config.list_size,
                   "providers": sorted(run.archives)},
        "results": results,
        "metrics_snapshot": _metrics_snapshot(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_obs.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    hot = results["instrumented_cached_read"]
    scr = results["scrape"]
    print(f"\ninstrumented cached read: {hot['overhead_fraction']:.4%} "
          f"telemetry overhead (bound {hot['bound']:.0%}; "
          f"{hot['cached_request_seconds'] * 1e6:.2f} µs/request)")
    print(f"/v1/metrics scrape: {scr['seconds'] * 1000:.2f} ms, "
          f"{scr['body_bytes']} bytes, {scr['samples']} samples")
    print(f"wrote {path}")
    return path


# --------------------------------------------------------------------------
# Interned-id columnar core vs the string pipeline (PR 4)
# --------------------------------------------------------------------------

def _string_lane_intersection(archives, psl):
    """The pre-interning Figure-1a pipeline, reconstructed faithfully.

    Per-day raw string frozensets, a string-keyed base memo, string
    refcount deltas and string-set intersections — exactly the shape the
    library shipped before the columnar refactor (and the timing/memory
    baseline the interning comparison is measured against).
    """
    from itertools import combinations

    from repro.interning import base_of

    memo: dict = {}

    def base_of_str(name):
        base = memo.get(name)
        if base is None:
            base = memo[name] = base_of(name, psl)
        return base

    date_sets = [set(a.dates()) for a in archives.values()]
    common_dates = sorted(set.intersection(*date_sets))
    per_archive = {}
    for name, archive in archives.items():
        result = {}
        counts: dict[str, int] = {}
        prev_raw = None
        prev_frozen: frozenset = frozenset()
        for snapshot in archive:
            raw = snapshot.domain_set()
            if prev_raw is None:
                for entry in snapshot.entries:
                    base = base_of_str(entry)
                    counts[base] = counts.get(base, 0) + 1
                frozen = frozenset(counts)
            else:
                removed = prev_raw - raw
                added = raw - prev_raw
                if removed or added:
                    for entry in removed:
                        base = base_of_str(entry)
                        remaining = counts[base] - 1
                        if remaining:
                            counts[base] = remaining
                        else:
                            del counts[base]
                    for entry in added:
                        base = base_of_str(entry)
                        counts[base] = counts.get(base, 0) + 1
                    frozen = frozenset(counts)
                else:
                    frozen = prev_frozen
            result[snapshot.date] = frozen
            prev_raw = raw
            prev_frozen = frozen
        per_archive[name] = result
    series = {}
    for date in common_dates:
        sets = {name: per_day[date] for name, per_day in per_archive.items()}
        matrix = {}
        for name_a, name_b in combinations(sorted(sets), 2):
            matrix[(name_a, name_b)] = len(sets[name_a] & sets[name_b])
        if len(sets) >= 3:
            ordered = sorted(sets.values(), key=len)
            common = ordered[0]
            for other in ordered[1:]:
                common = common & other
            matrix[tuple(sorted(sets))] = len(common)
        series[date] = matrix
    return series


def _fresh_string_archives(archives):
    """Archives whose snapshots hold materialised string tuples, no caches.

    The string lane's at-rest representation: what every snapshot looked
    like before the columnar refactor.
    """
    from repro.providers.base import ListArchive, ListSnapshot

    return {name: ListArchive.from_snapshots(
        [ListSnapshot(provider=s.provider, date=s.date, entries=s.entries)
         for s in archive])
        for name, archive in archives.items()}


def _fresh_columnar_archives(archives):
    """Archives whose snapshots are pure id columns, no caches, no strings."""
    from repro.providers.base import ListArchive, ListSnapshot

    return {name: ListArchive.from_snapshots(
        [ListSnapshot.from_ids(provider=s.provider, date=s.date,
                               ids=s.entry_ids()[:])
         for s in archive])
        for name, archive in archives.items()}


def _traced_peak(fn):
    """Run ``fn`` under tracemalloc; return (result, peak_bytes)."""
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def run_interning(out_dir: Path, days: int) -> Path:
    """Interned-id columnar lane vs the string lane, time and peak memory."""
    from repro.core.intersection import intersection_over_time
    from repro.domain.psl import default_list
    from repro.interning import default_interner

    full_size = days >= 20
    config = SimulationConfig.benchmark(n_days=days)
    print(f"simulating {days}-day × 3-provider archive "
          f"(list size {config.list_size}) ...")
    run = run_simulation(config)
    archives = run.archives
    psl = default_list()
    # Warm the shared table and base column once: both lanes then start
    # from the same process state (names interned, bases resolved), so
    # the measurement isolates the pipelines, not one-time setup.
    resolve_base = default_interner().base_column(psl).base_id
    for archive in archives.values():
        for snapshot in archive:
            for domain_id in snapshot.entry_ids():
                resolve_base(domain_id)
    comparisons = {}

    print("timing intersection_over_time: string lane vs id lane ...")
    string_series, string_s = _timed(
        lambda: _string_lane_intersection(_fresh_string_archives(archives), psl))
    id_series, id_s = _timed(
        lambda: intersection_over_time(_fresh_columnar_archives(archives)))
    assert id_series == string_series, "id lane diverged from the string lane"

    print("tracing peak memory: string lane vs id lane ...")
    string_archives = _fresh_string_archives(archives)
    columnar_archives = _fresh_columnar_archives(archives)
    string_mem_series, string_peak = _traced_peak(
        lambda: _string_lane_intersection(string_archives, psl))
    id_mem_series, id_peak = _traced_peak(
        lambda: intersection_over_time(columnar_archives))
    assert id_mem_series == string_mem_series
    assert id_peak < string_peak, (
        f"columnar peak memory regressed: {id_peak} >= {string_peak} bytes")
    speedup = string_s / id_s
    if full_size:
        assert speedup >= 1.5, (
            f"interned intersection lane only {speedup:.2f}x over strings")
    comparisons["intersection_over_time"] = {
        "string_seconds": string_s, "interned_seconds": id_s,
        "speedup": speedup, "identical_output": True,
        "string_peak_bytes": string_peak, "interned_peak_bytes": id_peak,
        "peak_memory_ratio": string_peak / id_peak,
        "days": len(id_series)}

    print("timing kendall_tau_ranked_lists: string keys vs id columns ...")
    alexa = archives["alexa"].snapshots()
    pairs = list(zip(alexa, alexa[1:]))
    string_taus, string_s = _timed(
        lambda: [kendall_tau_ranked_lists(a.entries, b.entries) for a, b in pairs])
    id_taus, id_s = _timed(
        lambda: [kendall_tau_ranked_lists(a.entry_ids(), b.entry_ids())
                 for a, b in pairs])
    assert all(abs(f - s) < 1e-12 for f, s in zip(id_taus, string_taus)), \
        "id-lane tau values diverged"
    comparisons["kendall_tau_ranked_lists"] = {
        "string_seconds": string_s, "interned_seconds": id_s,
        "speedup": string_s / id_s, "identical_output": True,
        "pairs": len(pairs), "list_size": config.list_size}

    # At-rest storage: a day's rank column vs a day's string tuple (the
    # distinct name strings live once in the shared table either way).
    one_day = archives["alexa"][0]
    column_bytes = one_day.entry_ids().itemsize * len(one_day)
    tuple_bytes = sys.getsizeof(one_day.entries)
    storage = {
        "per_day_column_bytes": column_bytes,
        "per_day_tuple_bytes": tuple_bytes,
        "column_vs_tuple_ratio": tuple_bytes / column_bytes,
        "interned_domains": len(default_interner()),
    }

    artifact = {
        "kind": "interning-comparison",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {"n_days": config.n_days, "list_size": config.list_size,
                   "providers": sorted(archives), "full_size": full_size},
        "comparisons": comparisons,
        "columnar_storage": storage,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_interning.json"
    # The recorded artifact's guarantee is "columnar peaks below the
    # string lane" (peak ratio > 1), which the unconditional assert above
    # re-checks on every run regardless of archive size; absolute ratios
    # vary across machines and --days, so the recorded one is printed for
    # trajectory, not asserted against.
    recorded_path = REPO_ROOT / "benchmarks" / "artifacts" / "BENCH_interning.json"
    if recorded_path.exists() and recorded_path != path.resolve():
        recorded = json.loads(recorded_path.read_text(encoding="utf-8"))
        recorded_ratio = recorded["comparisons"]["intersection_over_time"][
            "peak_memory_ratio"]
        current_ratio = comparisons["intersection_over_time"]["peak_memory_ratio"]
        print(f"recorded peak-memory ratio {recorded_ratio:.2f}x, "
              f"this run {current_ratio:.2f}x")
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\n{'analysis':<28} {'string':>9} {'interned':>9} {'speedup':>9}")
    for name, row in comparisons.items():
        print(f"{name:<28} {row['string_seconds']:>8.2f}s "
              f"{row['interned_seconds']:>8.2f}s {row['speedup']:>8.1f}x")
    row = comparisons["intersection_over_time"]
    print(f"peak memory: string {row['string_peak_bytes'] / 1e6:.1f} MB, "
          f"interned {row['interned_peak_bytes'] / 1e6:.1f} MB "
          f"({row['peak_memory_ratio']:.1f}x smaller)")
    print(f"wrote {path}")
    return path


def run_scale(out_dir: Path,
              scales: Sequence[str] = ("paper_bench", "full_1m")) -> Path:
    """Native-scale battery: chunked-store ingest/query plus analyses.

    For each scale preset, generate the deterministic synthetic corpus,
    time per-day ingest into a chunked :class:`ArchiveStore`, measure the
    lazy query paths (head / point rank / full day) with their
    ``tracemalloc`` peaks, and run the analysis battery under a traced
    memory ceiling.  Asserted invariants:

    * steady-state append of a day stays under 1 s (the Top-1M ingest
      target; the first-ever append pays the interning bootstrap and is
      recorded separately),
    * the analysis battery's peak stays under the preset's
      ``memory_budget_bytes``,
    * at chunk-dominated list sizes a head query's peak allocation is a
      small fraction of a full-day load (the chunked-store laziness
      contract),
    * the full-width daily change equals the generator's configured
      churn exactly (corpus correctness).
    """
    import statistics
    import tempfile

    from repro.core.stability import (cumulative_unique_domains, daily_changes,
                                      days_in_list, mean_daily_change,
                                      new_domains_per_day)
    from repro.scale import get_scale, synthetic_archives
    from repro.service.store import CHUNK_ENTRIES, ArchiveStore

    sections: dict[str, dict] = {}
    for scale_name in scales:
        scale = get_scale(scale_name)
        print(f"\n=== scale {scale.name}: {scale.list_size:,}-entry lists x "
              f"{scale.n_days} days x {len(scale.providers)} providers ===")
        print("generating synthetic corpus ...")
        archives, generate_s = _timed(lambda: synthetic_archives(scale))

        print("ingesting per-day into a chunked store ...")
        append_times: list[float] = []
        with tempfile.TemporaryDirectory(prefix=f"scale-{scale.name}-") as tmp:
            store_dir = Path(tmp) / "store"
            with ArchiveStore(store_dir) as store:
                for provider in sorted(archives):
                    for snapshot in archives[provider]:
                        _, seconds = _timed(lambda s=snapshot: store.append(s))
                        append_times.append(seconds)
                store_bytes = sum(f.stat().st_size
                                  for f in store_dir.rglob("*") if f.is_file())

                # The very first append bootstraps the store's interning
                # table (every name is new); afterwards a day only adds
                # its churned names — that is the steady state ingest of
                # a provider being tailed day by day.
                steady = append_times[1:]
                steady_median = statistics.median(steady)
                assert steady_median < 1.0, (
                    f"steady-state append of a {scale.list_size:,}-entry day "
                    f"took {steady_median:.2f}s (target: well under 1 s)")

                print("measuring lazy query paths ...")
                qp = scale.providers[0]
                last = store.dates(qp)[-1]
                top_k = scale.analysis_top_k
                # Warm once: lazy translation tables (gid<->sid) belong to
                # store-open cost, not to the per-query steady state.
                store.load_head(qp, last, top_k)
                head, head_s = _timed(lambda: store.load_head(qp, last, top_k))
                _, head_peak = _traced_peak(lambda: store.load_head(qp, last, top_k))
                probe_id = head.entry_ids()[top_k - 1]
                store.rank_of_id(qp, last, probe_id)
                rank, rank_s = _timed(lambda: store.rank_of_id(qp, last, probe_id))
                assert rank == top_k, f"probe id ranked {rank}, expected {top_k}"
                full, full_s = _timed(lambda: store.load_snapshot(qp, last))
                _, full_peak = _traced_peak(lambda: store.load_snapshot(qp, last))
                assert len(full) == scale.list_size
                if scale.list_size >= 16 * CHUNK_ENTRIES:
                    # Chunk-dominated regime: a head query must touch a
                    # handful of chunks, never inflate the day.
                    assert head_peak < full_peak / 4, (
                        f"head query peak {head_peak} bytes not well below "
                        f"full-day load peak {full_peak} bytes")

        print("running analysis battery under traced memory ceiling ...")
        window_days = min(7, scale.n_days)
        first = archives[scale.providers[0]]
        dates = first.dates()

        def battery():
            top_k = scale.analysis_top_k
            head_change = {p: mean_daily_change(a, top_n=top_k)
                           for p, a in archives.items()}
            head_new = {p: statistics.fmean(
                            new_domains_per_day(a, top_n=top_k).values())
                        for p, a in archives.items()}
            cumulative = cumulative_unique_domains(first, top_n=top_k)
            tenures = days_in_list(first, top_n=top_k)
            matrix = intersection_over_time(
                archives, top_n=top_k, normalise=False)
            all_three = tuple(sorted(archives))
            final_common = matrix[max(matrix)][all_three]
            # Full-width churn runs on a window: the architecture's whole
            # point is that day-level set analyses never need the entire
            # period of full-size sets resident at once.
            window = first.period(dates[0], dates[window_days - 1])
            full_width = mean_daily_change(window)
            return {
                "head_mean_daily_change": head_change,
                "head_mean_new_domains": head_new,
                "head_cumulative_unique": cumulative[max(cumulative)],
                "head_distinct_tenures": len(tenures),
                "head_final_three_way_intersection": final_common,
                "full_width_window_days": window_days,
                "full_width_mean_daily_change": full_width,
            }

        results, battery_s = _timed(lambda: _traced_peak(battery))
        results, battery_peak = results
        assert battery_peak < scale.memory_budget_bytes, (
            f"{scale.name} battery peaked at {battery_peak / 1e6:.0f} MB, "
            f"budget {scale.memory_budget_bytes / 1e6:.0f} MB")
        if scale.churn_per_day:
            assert results["full_width_mean_daily_change"] == scale.churn_per_day, (
                "synthetic corpus churn diverged from the configured rate")

        sections[scale.name] = {
            "config": {
                "list_size": scale.list_size, "n_days": scale.n_days,
                "providers": list(scale.providers),
                "analysis_top_k": scale.analysis_top_k,
                "churn_per_day": scale.churn_per_day,
                "memory_budget_bytes": scale.memory_budget_bytes,
            },
            "generate_seconds": generate_s,
            "ingest": {
                "days_appended": len(append_times),
                "bootstrap_first_day_seconds": append_times[0],
                "steady_state_seconds": {
                    "min": min(steady), "median": steady_median,
                    "max": max(steady)},
                "store_bytes": store_bytes,
            },
            "queries": {
                "head_n": scale.analysis_top_k,
                "head_seconds": head_s, "head_peak_bytes": head_peak,
                "rank_of_id_seconds": rank_s,
                "full_day_seconds": full_s, "full_day_peak_bytes": full_peak,
            },
            "analysis": {
                "battery_seconds": battery_s,
                "battery_peak_bytes": battery_peak,
                "results": results,
            },
        }
        print(f"  ingest: bootstrap {append_times[0]:.2f}s, steady median "
              f"{steady_median * 1e3:.0f}ms/day; store {store_bytes / 1e6:.1f} MB")
        print(f"  queries: head {head_s * 1e3:.1f}ms "
              f"(peak {head_peak / 1e3:.0f} KB), full day {full_s * 1e3:.0f}ms "
              f"(peak {full_peak / 1e6:.1f} MB)")
        print(f"  battery: {battery_s:.1f}s, peak {battery_peak / 1e6:.0f} MB "
              f"(budget {scale.memory_budget_bytes / 1e6:.0f} MB)")

    artifact = {
        "kind": "scale-battery",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scales": sections,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_scale.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return path


def run_suite(out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_suite.json"
    command = [
        sys.executable, "-m", "pytest", str(REPO_ROOT / "benchmarks"),
        "--benchmark-only", "-q", f"--benchmark-json={path}",
    ]
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    print("running benchmark suite:", " ".join(command))
    completed = subprocess.run(command, env=env, cwd=str(REPO_ROOT))
    if completed.returncode != 0:
        raise SystemExit(completed.returncode)
    print(f"wrote {path}")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", action="store_true",
                        help="run only the pytest-benchmark suite")
    parser.add_argument("--speedup", action="store_true",
                        help="run only the seed-vs-fastpath comparison")
    parser.add_argument("--scenarios", action="store_true",
                        help="run only the scenario-profile battery")
    parser.add_argument("--service", action="store_true",
                        help="run only the serving-layer benchmarks")
    parser.add_argument("--interning", action="store_true",
                        help="run only the interned-columnar-vs-string comparison")
    parser.add_argument("--replication", action="store_true",
                        help="run only the follower-replication benchmarks")
    parser.add_argument("--obs", action="store_true",
                        help="run only the observability-layer benchmarks")
    parser.add_argument("--scale", action="store_true",
                        help="run the native-scale battery (paper_bench + "
                             "full_1m presets; opt-in, not part of the "
                             "all-on default)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run the pre-fork worker-pool benchmark with N "
                             "read workers (opt-in, not part of the all-on "
                             "default; needs os.fork)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "benchmarks" / "artifacts",
                        help="artifact output directory")
    parser.add_argument("--days", type=int, default=30,
                        help="days in the speedup comparison archive")
    args = parser.parse_args()
    run_all = not (args.suite or args.speedup or args.scenarios or args.service
                   or args.interning or args.replication or args.obs
                   or args.scale or args.workers)
    if args.scale:
        run_scale(args.out)
    if args.workers:
        run_workers(args.out, args.days, args.workers)
    if args.scenarios or run_all:
        run_scenarios(args.out)
    if args.speedup or run_all:
        run_speedup(args.out, args.days)
    if args.interning or run_all:
        run_interning(args.out, args.days)
    if args.service or run_all:
        run_service(args.out, args.days)
    if args.replication or run_all:
        run_replication(args.out, args.days)
    if args.obs or run_all:
        run_obs(args.out, args.days)
    if args.suite or run_all:
        run_suite(args.out)


if __name__ == "__main__":
    main()
