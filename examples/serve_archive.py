#!/usr/bin/env python3
"""Serving layer end to end: persist a corpus, index it, query it.

Simulates a small observation period, persists the three provider
archives into an :class:`~repro.service.store.ArchiveStore`, reloads
them as id columns, and answers the query API's endpoints offline through
:class:`~repro.service.api.QueryService` — the same code path
``repro-serve`` exposes over HTTP.

Run with::

    python examples/serve_archive.py

The store lives in a temporary directory that is removed on exit; to
serve a store for real over HTTP, build one and serve it with::

    python -m repro.service.cli init --store /tmp/s
    python -m repro.service.cli serve --store /tmp/s
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import SimulationConfig, run_simulation
from repro.core import archive_base_id_sets
from repro.service import ArchiveStore, DomainIndex, QueryService


def main() -> None:
    config = SimulationConfig.small(alexa_change_day=9)
    print(f"Simulating {config.n_days} days over {config.total_domains()} domains ...")
    run = run_simulation(config)
    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        _tour(config, run, Path(tmp) / "store")


def _tour(config: SimulationConfig, run, store_dir: Path) -> None:
    # The context manager flushes batched tails and rewrites the manifest
    # durably on every exit path — the idiom all store users should copy.
    with ArchiveStore.from_archives(store_dir, run.archives) as store:
        shard_bytes = sum(p.stat().st_size for p in store_dir.rglob("*.rls"))
        print("\n== Archive store ==")
        print(f"  {len(store)} snapshots, {len(store.providers())} providers, "
              f"{shard_bytes / 1024:.0f} KiB on disk at {store_dir}")

        print("\n== Reloaded archives ==")
        archives = store.load_archives()
        for name, archive in sorted(archives.items()):
            last = archive_base_id_sets(archive)[archive.dates()[-1]]
            print(f"  {name:<9} {len(archive)} days, "
                  f"{len(last)} base domains on the last day")

        index = DomainIndex.from_archives(archives)
        probe = archives["alexa"][0].entries[0]
        print(f"\n== Rank history of {probe} (domain index) ==")
        for provider in index.providers():
            history = index.history(probe, provider)
            longevity = index.longevity(probe, provider)
            ranks = ", ".join(str(rank) for _, rank in history[:7])
            print(f"  {provider:<9} listed {longevity.days_listed} days, "
                  f"first ranks: {ranks}")

        print("\n== Query API (offline, same code path as repro-serve) ==")
        service = QueryService(store)
        for target in (f"/v1/domains/{probe}/history?top_k={config.top_k}",
                       "/v1/providers/alexa/stability?top_n=100",
                       "/v1/compare?providers=alexa,majestic,umbrella&top_n=100"):
            response = service.handle_request(target)
            repeat = service.handle_request(target)
            print(f"  GET {target}")
            print(f"      {response.status}, {len(response.body)} bytes, "
                  f"ETag {response.etag[:18]}..., "
                  f"repeat from LRU: {repeat.headers['X-Repro-Cache']}")
        payload = service.handle_request(
            "/v1/providers/alexa/stability?top_n=100").json()
        print(f"  alexa churn fraction (top 100): "
              f"{payload['churn_fraction']:.4f}")

        print("\n== Follower replica (tails the leader's mutation log) ==")
        from repro.service import Replica

        def fetch(since, limit):
            return service.handle_request(
                f"/v1/replication/log?since={since}&max={limit}").json()

        with ArchiveStore(store_dir.parent / "follower") as follower_store:
            replica = Replica(follower_store, fetch, sleep=lambda s: None)
            applied = replica.sync_to_leader()
            status = replica.status()
            print(f"  applied {applied} log entries, staleness "
                  f"{status['staleness']} (leader version "
                  f"{status['leader_version']})")
            follower = QueryService(follower_store, role="follower")
            follower.attach_replica(replica)
            target = "/v1/providers/alexa/stability?top_n=100"
            identical = (follower.handle_request(target).body
                         == service.handle_request(target).body)
            print(f"  follower payload byte-identical to leader: {identical}")
            print(f"  GET /v1/ready -> "
                  f"{follower.handle_request('/v1/ready').status}")


if __name__ == "__main__":
    main()
