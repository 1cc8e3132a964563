"""``repro-serve`` — build, serve, feed and query archive stores.

Six subcommands::

    repro-serve init   --store DIR [--scenario NAME] [--tiny | --scale NAME]
                       [--no-report]
    repro-serve serve  --store DIR [--host H] [--port P] [--log-level L]
                       [--follow URL [--poll-interval S] [--max-staleness N]]
                       [--workers N [--ready-file PATH]]
    repro-serve balance --backend URL [--backend URL ...] [--host H]
                       [--port P] [--check-interval S] [--eject-after N]
    repro-serve ingest (--store DIR | --url URL) --provider P [--date D]
                       [--retry] FILE [FILE ...]
    repro-serve query  --store DIR TARGET [TARGET ...]
    repro-serve stats  URL [--raw]

``init`` simulates a scenario profile, persists its three provider
archives into an :class:`~repro.service.store.ArchiveStore` and stores
the scenario's report document; ``serve`` boots the ``/v1`` JSON API on
the selectors/epoll event loop (:mod:`repro.service.eventloop`) — with
``--follow`` it serves a read-only *follower* that tails the named
leader's replication log and reports its staleness on ``/v1/health`` —
and with ``--workers N`` it pre-forks a pool of read-only worker
processes plus one writer over a shared listening socket
(:mod:`repro.service.workers`); ``balance``
round-robins requests across serve/pool backends, ejecting any whose
``/v1/ready`` fails (:mod:`repro.service.balance`); ``ingest`` appends
downloaded top-list CSVs
(``rank,domain``, ``.zip``/``.csv.gz`` supported) to an existing store —
or, with ``--url``, POSTs them to a running leader, and ``--retry``
wraps either path in the shared backoff policy
(:mod:`repro.util.retry`); ``query`` answers requests offline through
the same :class:`~repro.service.api.QueryService` (handy for smoke
tests and debugging without a socket); ``stats`` scrapes a running
server's ``/v1/metrics`` + ``/v1/health`` and pretty-prints a snapshot.

``serve`` emits structured JSON log lines (:mod:`repro.obs.logging`) on
stderr — ``--log-level debug`` adds one ``http.request`` line per
request, with its ``X-Request-Id`` trace id.

Also runnable uninstalled: ``PYTHONPATH=src python -m repro.service.cli``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs import logging as obslog
from repro.scale import ScaleError, scale_names
from repro.scenarios.profiles import get_profile, profile_names
from repro.scenarios.runner import run_scenario
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.store import ArchiveStore, StoreError

def _resolve_profile(name: str, tiny: bool, scale: Optional[str] = None):
    """Resolve a scenario, resized to a scale preset when asked.

    ``--tiny`` is shorthand for ``--scale tiny`` (the flag predates the
    preset registry and CI smoke jobs depend on the ``+tiny`` profile
    names it produces).  Synthetic-only presets raise
    :class:`repro.scale.ScaleError` with pointers to the synthetic
    corpus generator — ``init`` simulates, it does not fabricate.
    """
    profile = get_profile(name)
    if tiny:
        scale = "tiny"
    if scale is None:
        return profile
    return profile.at_scale(scale)


def _cmd_init(args: argparse.Namespace) -> int:
    store_dir = Path(args.store)
    with ArchiveStore(store_dir) as store:
        if store.providers():
            print(f"error: store at {store_dir} already holds providers "
                  f"{', '.join(store.providers())}", file=sys.stderr)
            return 2
        try:
            profile = _resolve_profile(args.scenario, args.tiny, args.scale)
        except ScaleError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"simulating scenario {profile.name!r} "
              f"({profile.config.n_days} days, list size {profile.config.list_size}) ...")
        from repro.providers.simulation import run_profile

        run = run_profile(profile)
        for name in sorted(run.archives):
            store.append_archive(run.archives[name])
            print(f"  stored {name}: {len(run.archives[name])} snapshots")
        if args.report:
            # Only now pay for the full analysis battery; --no-report inits
            # need just the simulated archives above.
            store.save_report(run_scenario(profile))
            print(f"  stored report: {profile.name}")
        print(f"store ready at {store_dir} (version {store.version})")
    print(f"serve it:  repro-serve serve --store {store_dir}")
    return 0


def _serve_pool(args: argparse.Namespace) -> int:
    """``serve --workers N``: run the pre-fork pool in the foreground."""
    import signal
    import threading

    from repro.service.workers import WorkerPool

    if args.follow:
        print("error: --workers and --follow are mutually exclusive "
              "(a pool's readers already tail the local store; run a "
              "separate follower process and front both with "
              "'repro-serve balance')", file=sys.stderr)
        return 2
    pool = WorkerPool(
        Path(args.store), workers=args.workers, host=args.host,
        port=args.port,
        ready_file=Path(args.ready_file) if args.ready_file else None)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        pool.start()
    except (StoreError, OSError, TimeoutError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"pool ready: http://{args.host}:{pool.port}/v1/meta "
          f"({args.workers} readers; writer :{pool.writer_port}; "
          f"control :{pool.control_port})")
    try:
        while not stop.is_set():
            stop.wait(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        pool.stop()
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    """``balance``: round-robin proxy over serve/pool backends."""
    import signal
    import threading

    from repro.service.balance import Balancer

    obslog.configure(level=args.log_level)
    try:
        balancer = Balancer(args.backends, host=args.host, port=args.port,
                            check_interval=args.check_interval,
                            eject_after=args.eject_after)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        balancer.start()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"balancing http://{args.host}:{balancer.port} across "
          f"{len(balancer.backends)} backends "
          f"(status: /v1/balancer)")
    try:
        while not stop.is_set():
            stop.wait(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        balancer.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    obslog.configure(level=args.log_level)
    if getattr(args, "workers", 0):
        return _serve_pool(args)
    follow = args.follow
    try:
        # A fresh follower bootstraps from an empty store; a leader must
        # be pointed at an existing one (init/ingest create it).
        store = ArchiveStore(args.store, create=follow is not None)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = QueryService(store, role="follower" if follow else "leader")
    stop: Optional[threading.Event] = None
    tailer: Optional[threading.Thread] = None
    if follow:
        from repro.service.replica import Replica, http_fetcher

        replica = Replica(store, http_fetcher(follow),
                          max_staleness=args.max_staleness)
        service.attach_replica(replica)
        stop = threading.Event()
        tailer = threading.Thread(
            target=replica.run, args=(stop, args.poll_interval),
            name="replica-tailer", daemon=True)
        tailer.start()
        obslog.log_event("serve.follow", leader=follow,
                         poll_interval=args.poll_interval,
                         max_staleness=args.max_staleness)
    server = EventLoopServer(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    obslog.log_event("serve.start", store=str(args.store),
                     role=service.role, store_version=store.version,
                     providers=sorted(store.providers()),
                     url=f"http://{host}:{port}/v1/meta")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if stop is not None:
            stop.set()
            tailer.join(timeout=10)
        server.server_close()
        store.close()
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    # The wire ingest's validation, streaming: rows flow file →
    # clean_wire_entry → interner with junk rows skipped (counted), so
    # `POST /v1/ingest` and the offline twin accept the same files, keep
    # the same rows out of the persistent domain table, and neither ever
    # materialises a 1M-entry day as a Python string list.
    from repro.listio import stream_wire_top_list

    if (args.store is None) == (args.url is None):
        print("error: ingest needs exactly one of --store or --url",
              file=sys.stderr)
        return 2
    if args.date is not None and len(args.files) > 1:
        print("error: --date only applies to a single file; embed ISO dates "
              "in the file names for batches", file=sys.stderr)
        return 2

    from repro.util.retry import RetryPolicy, RetryExhaustedError, call_with_retry

    # One shared policy for both paths; --retry is what distinguishes a
    # flaky-disk/flaky-network ingest from fail-fast batch scripting.
    policy = RetryPolicy(max_attempts=5 if args.retry else 1,
                         base_delay=0.2, max_delay=5.0, deadline=60.0)

    def attempt(fn, what: str):
        if not args.retry:
            return fn()
        def note_retry(attempt_no, error, delay):
            obslog.log_event("ingest.retry", level="warning", what=what,
                             attempt=attempt_no, error=str(error),
                             next_delay_s=round(delay, 2))
        try:
            return call_with_retry(fn, policy, retry_on=(OSError,),
                                   on_retry=note_retry)
        except RetryExhaustedError as error:
            raise error.last_error or error

    if args.url is not None:
        return _ingest_over_http(args, attempt)

    try:
        store = ArchiveStore(args.store, create=args.create)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # The context manager is what makes batched sync=False tails durable
    # on *every* exit path, error returns included.
    with store:
        for path in args.files:
            try:
                snapshot, skipped = stream_wire_top_list(
                    path, provider=args.provider, date=args.date,
                    domain_column=args.domain_column)
                # Batched like append_archive: one durable manifest write
                # (and one fsync pass) for the whole invocation instead
                # of a full fsync chain per file.
                attempt(lambda: store.append(snapshot, sync=False),
                        f"append of {path}")
            except (StoreError, ValueError, OSError) as error:
                print(f"error: {path}: {error}", file=sys.stderr)
                return 2
            note = f" ({skipped} junk rows skipped)" if skipped else ""
            print(f"  ingested {args.provider} {snapshot.date}: "
                  f"{len(snapshot)} entries{note}")
    print(f"store at {args.store} now at version {store.version} "
          f"({len(store)} snapshots)")
    return 0


def _ingest_over_http(args: argparse.Namespace, attempt) -> int:
    """POST validated snapshots to a running leader (``ingest --url``)."""
    import json
    import urllib.error
    import urllib.request

    from repro.listio import stream_wire_top_list

    class _Rejected(Exception):
        """A 4xx the server will answer identically on retry."""

    base = args.url.rstrip("/")

    def post(snapshot):
        body = json.dumps({
            "provider": snapshot.provider,
            "date": snapshot.date.isoformat(),
            "entries": list(snapshot.entries),
        }).encode("utf-8")
        request = urllib.request.Request(
            f"{base}/v1/ingest", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace").strip()
            if error.code < 500:
                # Client errors (bad body, conflict, follower 403) won't
                # heal on retry; only 5xx/transport failures stay OSError
                # for the retry policy.
                raise _Rejected(f"HTTP {error.code}: {detail}") from None
            raise

    for path in args.files:
        try:
            snapshot, skipped = stream_wire_top_list(
                path, provider=args.provider, date=args.date,
                domain_column=args.domain_column)
            payload = attempt(lambda: post(snapshot), f"upload of {path}")
        except (_Rejected, ValueError, OSError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
        note = f" ({skipped} junk rows skipped)" if skipped else ""
        print(f"  uploaded {args.provider} {snapshot.date}: "
              f"{len(snapshot)} entries{note} "
              f"(leader version {payload['store_version']})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    try:
        store = ArchiveStore(args.store, create=False)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = QueryService(store)
    worst = 0
    for target in args.targets:
        response = service.handle_request(target)
        sys.stdout.write(bytes(response.body).decode("utf-8"))
        worst = max(worst, 0 if response.status < 400 else 1)
    return worst


def _cmd_stats(args: argparse.Namespace) -> int:
    """Scrape a running server and pretty-print a metrics snapshot."""
    import json
    import urllib.error
    import urllib.request

    from repro.obs.metrics import parse_exposition

    base = args.url.rstrip("/")
    try:
        with urllib.request.urlopen(f"{base}/v1/metrics",
                                    timeout=10) as response:
            text = response.read().decode("utf-8")
        if args.raw:
            sys.stdout.write(text)
            return 0
        with urllib.request.urlopen(f"{base}/v1/health",
                                    timeout=10) as response:
            health = json.loads(response.read().decode("utf-8"))
    except BrokenPipeError:
        return 0  # downstream pager/head closed the pipe; not an error
    except (OSError, urllib.error.URLError) as error:
        print(f"error: cannot scrape {base}: {error}", file=sys.stderr)
        return 2
    cache = health.get("cache", {})
    hit_ratio = cache.get("hit_ratio")
    try:
        print(f"{health.get('service', 'repro-serve')} @ {base}")
        print(f"  role {health.get('role')}  status {health.get('status')}  "
              f"store v{health.get('store_version')} "
              f"(data v{health.get('data_version')})")
        print(f"  lru {cache.get('entries')}/{cache.get('capacity')} entries, "
              f"hit ratio {'n/a' if hit_ratio is None else f'{hit_ratio:.1%}'} "
              f"({cache.get('hits')} hits / {cache.get('misses')} misses / "
              f"{cache.get('evictions')} evictions)")
        if "replication" in health:
            repl = health["replication"]
            print(f"  replication: staleness {repl.get('staleness')} "
                  f"(breaker {repl.get('breaker')}, "
                  f"applied {repl.get('entries_applied')})")
        print()
        # Histograms are summarised as their _count/_sum samples; the
        # full bucket vectors stay behind --raw.
        samples = parse_exposition(text)
        width = max(len(key) for key in samples) if samples else 0
        for key in sorted(samples):
            if key.rpartition("{")[0].endswith("_bucket") \
                    or key.endswith("_bucket"):
                continue
            value = samples[key]
            shown = int(value) if value == int(value) else value
            print(f"  {key:<{width}}  {shown}")
    except BrokenPipeError:
        pass  # downstream pager/head closed the pipe; not an error
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Persistent top-list archive store and query API.")
    commands = parser.add_subparsers(dest="command", required=True)

    init = commands.add_parser(
        "init", help="simulate a scenario and persist it as a store")
    init.add_argument("--store", required=True, help="store directory to create")
    init.add_argument("--scenario", default="paper_realistic",
                      choices=sorted(profile_names()),
                      help="scenario profile to simulate (default: paper_realistic)")
    init.add_argument("--tiny", action="store_true",
                      help="fixture-sized corpus for smoke tests "
                           "(profile name gains a '+tiny' suffix; "
                           "shorthand for --scale tiny)")
    init.add_argument("--scale", default=None, choices=sorted(scale_names()),
                      help="resize the scenario to a named scale preset "
                           "(simulatable presets only; see repro.scale)")
    init.add_argument("--no-report", dest="report", action="store_false",
                      help="skip storing the scenario report document")
    init.set_defaults(func=_cmd_init)

    serve = commands.add_parser("serve", help="serve the /v1 JSON API")
    serve.add_argument("--store", required=True, help="store directory to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8098)
    serve.add_argument("--follow", default=None, metavar="URL",
                       help="run as a read-only follower tailing this "
                            "leader's /v1/replication/log (creates the "
                            "store directory if missing)")
    serve.add_argument("--poll-interval", type=float, default=1.0,
                       help="seconds between follower sync cycles "
                            "(default 1.0; --follow only)")
    serve.add_argument("--max-staleness", type=int, default=0,
                       help="versions a follower may lag and still answer "
                            "/v1/ready with 200 (default 0; --follow only)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="pre-fork N read-only worker processes plus "
                            "one writer over a shared listening socket "
                            "(POSIX only; 0 = single process, the "
                            "default; incompatible with --follow)")
    # Accepted and ignored, so scripts that still pass the former
    # opt-in keep working.
    serve.add_argument("--event-loop", action="store_true",
                       help=argparse.SUPPRESS)
    serve.add_argument("--ready-file", default=None, metavar="PATH",
                       help="write a JSON description of the pool's "
                            "ports and pids once every worker is ready "
                            "(--workers only)")
    serve.add_argument("--log-level", default="info",
                       choices=sorted(obslog.LEVELS),
                       help="structured-log threshold on stderr "
                            "(default info; debug logs every request)")
    serve.set_defaults(func=_cmd_serve)

    ingest = commands.add_parser(
        "ingest", help="append downloaded top-list CSVs to an existing store")
    ingest.add_argument("--store", default=None, help="store directory to extend")
    ingest.add_argument("--url", default=None, metavar="URL",
                        help="POST to a running leader's /v1/ingest instead "
                             "of writing a local store")
    ingest.add_argument("--retry", action="store_true",
                        help="retry transient failures with backoff "
                             "(shared repro.util.retry policy)")
    ingest.add_argument("--create", action="store_true",
                        help="create the store if it does not exist yet "
                             "(real-data stores need no init)")
    ingest.add_argument("--provider", required=True,
                        help="provider name the snapshots belong to")
    ingest.add_argument("--date", type=dt.date.fromisoformat, default=None,
                        help="snapshot date (single file only; otherwise "
                             "derived from ISO dates in the file names)")
    ingest.add_argument("--domain-column", type=int, default=1,
                        help="CSV column holding the domain (default 1; "
                             "Majestic's rank,tld,domain format uses 2)")
    ingest.add_argument("files", nargs="+", metavar="FILE",
                        help="top-list files (.csv, .csv.gz or .zip)")
    ingest.set_defaults(func=_cmd_ingest)

    balance = commands.add_parser(
        "balance", help="round-robin proxy over repro-serve backends")
    balance.add_argument("--backend", action="append", required=True,
                         metavar="URL", dest="backends",
                         help="backend base URL (repeatable), e.g. "
                              "http://127.0.0.1:8098")
    balance.add_argument("--host", default="127.0.0.1")
    balance.add_argument("--port", type=int, default=8090)
    balance.add_argument("--check-interval", type=float, default=0.25,
                         help="seconds between /v1/ready probes "
                              "(default 0.25)")
    balance.add_argument("--eject-after", type=int, default=3,
                         help="consecutive failed probes before a "
                              "backend leaves rotation (default 3)")
    balance.add_argument("--log-level", default="info",
                         choices=sorted(obslog.LEVELS))
    balance.set_defaults(func=_cmd_balance)

    query = commands.add_parser(
        "query", help="answer API requests offline (no server)")
    query.add_argument("--store", required=True, help="store directory to query")
    query.add_argument("targets", nargs="+", metavar="TARGET",
                       help="request target, e.g. '/v1/providers/alexa/stability'")
    query.set_defaults(func=_cmd_query)

    stats = commands.add_parser(
        "stats", help="pretty-print a running server's metrics snapshot")
    stats.add_argument("url", metavar="URL",
                       help="base URL of a running repro-serve, "
                            "e.g. http://127.0.0.1:8098")
    stats.add_argument("--raw", action="store_true",
                       help="dump the raw Prometheus exposition instead "
                            "of the summary")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
