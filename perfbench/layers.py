"""Per-layer metrics of a traced run.

Inputs are the span files ``perfbench/traced.py`` leaves (one per
server process), the traced phase's outside measurements (CPU seconds,
``/v1/metrics`` deltas, on-disk sizes, client tallies) and the
untraced phase of the same run, whose read throughput gives the
tracing overhead.  Read-path spans count while the measured reads run;
write-path spans also count during the ingest probe that follows them
on read-only workloads.  A layer a workload never reaches reports 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_spans(trace_dir: Path, pids: dict[str, int]
               ) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """``{process name: {span name: [(start, duration), ...]}}``."""
    names = {pid: name for name, pid in pids.items()}
    out: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for path in sorted(trace_dir.glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        name = names.get(document["pid"])
        if name is None:  # a respawned child: not part of the topology
            continue
        out[name] = {span: list(zip(flat[0::2], flat[1::2]))
                     for span, flat in document["spans"].items()}
    return out


class _Window:
    def __init__(self, spans: dict, t0: float, t1: float) -> None:
        self.spans = spans
        self.t0 = t0
        self.t1 = t1

    def durations(self, span: str, prefix: str = "") -> list[float]:
        return [duration
                for process, by_name in self.spans.items()
                if process.startswith(prefix)
                for start, duration in by_name.get(span, ())
                if self.t0 <= start <= self.t1]

    def p50(self, span: str, scale: float, prefix: str = "") -> float:
        values = self.durations(span, prefix)
        return statistics.median(values) * scale if values else 0.0

    def count(self, span: str, prefix: str = "") -> int:
        return len(self.durations(span, prefix))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(phase, untraced, spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json``, ``name -> (value, unit)``."""
    window = _Window(spans, phase.t0, phase.reads_end)
    writes = _Window(spans, phase.t0, phase.t1)
    tally = phase.tally
    cpu = phase.server_cpu_s
    wall = phase.reads_end - phase.t0
    ingest = phase.ingest
    reads = len(tally.latencies)
    handles = window.count("balance.handle", "balancer")
    reader_requests = (window.count("api.handle.GET", "reader")
                       + window.count("api.handle.POST", "reader"))
    reader_cpu_ms = 1e3 * sum(seconds for name, seconds in cpu.items()
                              if name.startswith("reader"))
    handle_ms = window.p50("api.handle.GET", 1e3, "reader")
    reader_cpu_per_req = _ratio(reader_cpu_ms, reader_requests)
    lookups = sum(tally.cache[kind] for kind in ("hit", "shared", "miss"))
    shared_hits = phase.delta("repro_shared_cache_hits_total")
    shared_probes = shared_hits + phase.delta("repro_shared_cache_misses_total")
    drift = (abs(phase.delta("repro_cache_hits_total") - tally.cache["hit"])
             + abs(shared_hits - tally.cache["shared"])
             + abs(phase.delta("repro_cache_misses_total")
                   - tally.cache["miss"]))
    ingested = len(ingest.latencies) if ingest else 0
    # Each phase at the calibration host's speed, so that host drift
    # between the two does not read as tracing overhead.
    untraced_rps = untraced.read_rps() / untraced.host_speed
    traced_rps = phase.read_rps() / phase.host_speed
    return {
        "client.cpu_frac": (phase.client_cpu_s / wall, "ratio"),
        "client.ingest_late_ms": (
            1e3 * max(ingest.late) if ingest and ingest.late else 0.0, "ms"),
        "host.idle_frac": (phase.host_idle_frac, "ratio"),
        "balance.handle_ms_p50": (
            window.p50("balance.handle", 1e3, "balancer"), "ms"),
        "balance.upstream_connects_per_req": (
            _ratio(window.count("balance.upstream_connect", "balancer"),
                   handles), "ratio"),
        "balance.cpu_ms_per_req": (
            _ratio(1e3 * cpu["balancer"], handles), "ms"),
        "eventloop.reader_cpu_ms_per_req": (reader_cpu_per_req, "ms"),
        "eventloop.self_ms_per_req": (
            reader_cpu_per_req - handle_ms if reader_requests else 0.0, "ms"),
        "api.handle_ms_p50": (handle_ms, "ms"),
        "api.lru_hit_ratio": (_ratio(tally.cache["hit"], lookups), "ratio"),
        "api.render_ms.history": (
            window.p50("api.render.history", 1e3, "reader"), "ms"),
        "api.render_ms.stability": (
            window.p50("api.render.stability", 1e3, "reader"), "ms"),
        "api.render_ms.compare": (
            window.p50("api.render.compare", 1e3, "reader"), "ms"),
        "api.render_ms.meta": (
            window.p50("api.render.meta", 1e3, "reader"), "ms"),
        "api.ingest_ms.writer": (
            writes.p50("api.ingest", 1e3, "writer"), "ms"),
        "api.ingest_handle_ms.reader": (
            writes.p50("api.handle.POST", 1e3, "reader"), "ms"),
        "shared_cache.hit_ratio": (_ratio(shared_hits, shared_probes),
                                   "ratio"),
        "shared_cache.get_us": (window.p50("shared_cache.get", 1e6), "us"),
        "shared_cache.put_us": (window.p50("shared_cache.put", 1e6), "us"),
        "shared_cache.bytes": (phase.shared_cache_bytes, "bytes"),
        "shared_cache.skipped_puts": (
            phase.delta("repro_shared_cache_skipped_puts_total"), "count"),
        "index.lookup_us": (window.p50("index.lookup", 1e6, "reader"), "us"),
        "index.add_ms": (writes.p50("index.add", 1e3), "ms"),
        "core.extend_ms": (writes.p50("core.extend", 1e3), "ms"),
        "store.append_ms": (writes.p50("store.append", 1e3, "writer"), "ms"),
        "store.bytes_per_append": (
            _ratio(phase.store_bytes_delta, ingested), "bytes"),
        "store.manifest_bytes": (phase.manifest_bytes, "bytes"),
        "store.refresh_ms": (writes.p50("store.refresh", 1e3, "reader"), "ms"),
        "store.chunks_inflated_per_req": (
            _ratio(phase.delta("repro_store_chunks_inflated_total"), reads),
            "ratio"),
        "replica.adopt_ms": (writes.p50("replica.adopt", 1e3, "reader"), "ms"),
        "obs.cache_count_drift": (drift, "count"),
        "obs.ingest_count_drift": (
            abs(phase.delta("repro_ingest_days_total", end=True)
                - (ingest.attempted if ingest else 0)), "count"),
        "trace.overhead_frac": (1.0 - _ratio(traced_rps, untraced_rps),
                                "ratio"),
    }
