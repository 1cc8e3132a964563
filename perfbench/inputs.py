"""Seeded benchmark inputs: store corpus, request targets, ingest bodies.

Everything a run sends is derived from ``(workload, seed, scale)`` here
and encoded to bytes before timing starts, so the client only writes
bytes it already holds and the same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from itertools import accumulate

from perfbench.client import request_bytes
from repro.interning import default_interner
from repro.providers.base import ListArchive
from repro.scale import get_scale, synthetic_archives, universe_ids

#: Distinct targets of the hot set (meta, stability, compare, history).
HOT_TARGETS = 64

#: Head size the hot stability/compare targets ask for.
HOT_TOP_N = 1000

#: Zipf exponent over the rank-ordered name universe.
ZIPF_S = 1.0

#: Pre-generated zipf requests; the read loop wraps around past the end.
ZIPF_REQUESTS = 40_000

ZIPF_PROVIDERS = (None, "alexa", "majestic", "umbrella", "alexa,majestic")
ZIPF_TOP_K = (None, 100, 1000)

#: Seconds between scheduled ingests on ``ingest_read`` (open loop).
INGEST_PERIOD_S = 2.5


@dataclass(frozen=True)
class Inputs:
    """One run's generated inputs (all pre-encoded)."""

    archives: dict[str, ListArchive]     # the store's initial corpus
    hot: tuple[str, ...]                 # hot target set, seeded order
    targets: tuple[str, ...]             # what the measured reads request
    requests: tuple[bytes, ...]          # ... encoded, one per target
    ingests: tuple[bytes, ...]           # ingest_read: [0] is the set-up one
    marker: str                          # target only reader 0 is warmed with


def ingest_count(seconds: float) -> int:
    """Ingests one measured phase of ``seconds`` schedules."""
    return max(1, math.ceil(seconds / INGEST_PERIOD_S))


def _hot_targets(rng: random.Random, names: list[str],
                 providers: tuple[str, ...]) -> list[str]:
    targets = ["/v1/meta"]
    targets += [f"/v1/providers/{p}/stability?top_n={HOT_TOP_N}"
                for p in providers]
    pairs = [",".join(providers)] + [
        f"{a},{b}" for i, a in enumerate(providers) for b in providers[i + 1:]]
    targets += [f"/v1/compare?providers={pair}&top_n={HOT_TOP_N}"
                for pair in pairs]
    head = names[:min(len(names), 4 * HOT_TARGETS)]
    for name in rng.sample(head, HOT_TARGETS - len(targets)):
        targets.append(f"/v1/domains/{name}/history")
    rng.shuffle(targets)
    return targets


def _zipf_targets(rng: random.Random, names: list[str], count: int
                  ) -> list[str]:
    cum = list(accumulate(1.0 / (rank ** ZIPF_S)
                          for rank in range(1, len(names) + 1)))
    picks = rng.choices(names, cum_weights=cum, k=count)
    targets = []
    for name in picks:
        params = []
        providers = rng.choice(ZIPF_PROVIDERS)
        if providers is not None:
            params.append(f"providers={providers}")
        top_k = rng.choice(ZIPF_TOP_K)
        if top_k is not None:
            params.append(f"top_k={top_k}")
        query = "?" + "&".join(params) if params else ""
        targets.append(f"/v1/domains/{name}/history{query}")
    return targets


def _ingest_bodies(extended: dict[str, ListArchive], base_days: int,
                   count: int) -> list[bytes]:
    """``count`` new days, providers in rotation, continuing the churn."""
    providers = sorted(extended)
    bodies = []
    for i in range(count):
        snapshot = extended[providers[i % len(providers)]][
            base_days + i // len(providers)]
        bodies.append(json.dumps({
            "provider": snapshot.provider,
            "date": snapshot.date.isoformat(),
            "entries": list(snapshot.entries),
        }).encode("utf-8"))
    return bodies


def generate(workload: str, seed: int, scale: str, seconds: float,
             probe: int = 0) -> Inputs:
    """All inputs of one run; identical for identical arguments.

    ``ingest_read`` gets one set-up ingest plus its scheduled ones; other
    workloads get ``probe`` ingests."""
    config = get_scale(scale)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    ingests = (1 + ingest_count(seconds) if workload == "ingest_read"
               else probe)
    extra_days = -(-ingests // len(config.providers))
    extended = synthetic_archives(
        replace(config, n_days=config.n_days + extra_days), seed=seed)
    archives = {name: ListArchive.from_snapshots(
                    list(archive)[:config.n_days], provider=name)
                for name, archive in extended.items()}
    interner = default_interner()
    names = [interner.domain(gid) for gid in universe_ids(config.list_size)]
    hot = tuple(_hot_targets(rng, names, tuple(sorted(archives))))
    targets = (tuple(_zipf_targets(rng, names, ZIPF_REQUESTS))
               if workload == "zipf_read" else hot)
    return Inputs(
        archives=archives,
        hot=hot,
        targets=targets,
        requests=tuple(request_bytes(target) for target in targets),
        ingests=tuple(_ingest_bodies(extended, config.n_days, ingests)),
        marker=f"/v1/domains/{names[0]}/history?top_k=7",
    )
