"""Run ``repro-serve`` with span recorders around each layer's entry points.

Usage: ``python perfbench/traced.py --trace-dir DIR <repro-serve args>``.

The wrappers are installed in this process before the CLI runs, so the
pool's forked children inherit them.  Names are patched where callers
look them up (``repro.service.api.extend_base_id_sets`` as well as
``repro.core.cache``).  Spans stay in memory — per name, a flat array
of ``(start, duration)`` pairs on the system-wide monotonic clock — and
each process writes ``DIR/<pid>.json`` itself when it leaves: through
``atexit`` for the pool parent and the balancer, and through a wrapped
``os._exit`` for pool children, whose ``drain()`` never runs ``atexit``.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path


class Recorder:
    """Per-process span store, written once per pid."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.spans: dict[str, array] = {}
        self.local = threading.local()
        self._written = False

    def reset(self) -> None:
        """Forget the parent's spans in a freshly forked child."""
        self.spans = {}
        self._written = False

    def add(self, name: str, start: float, duration: float) -> None:
        spans = self.spans.get(name)
        if spans is None:
            spans = self.spans.setdefault(name, array("d"))
        # One C-level call, so request threads never interleave a pair.
        spans.extend((start, duration))

    def flush(self) -> None:
        if self._written:
            return
        self._written = True
        document = {"pid": os.getpid(),
                    "spans": {name: list(values)
                              for name, values in self.spans.items()}}
        path = self.out_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(tmp, path)

    def wrap(self, owner: object, attr: str, name) -> None:
        """Time every call of ``owner.attr``; ``name`` may be a function
        of ``(args, kwargs, result)`` returning a span name or ``None``."""
        original = getattr(owner, attr)
        clock = time.monotonic
        add = self.add

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            label = name(args, kwargs, result) if callable(name) else name
            if label is not None:
                add(label, start, end - start)
            return result

        setattr(owner, attr, timed)


def install(recorder: Recorder) -> None:
    import http.client

    import repro.core.cache as core_cache
    import repro.service.api as api
    from repro.service.balance import Balancer
    from repro.service.index import DomainIndex
    from repro.service.replica import StoreTailer
    from repro.service.shared_cache import SharedPayloadCache
    from repro.service.store import ArchiveStore

    local = recorder.local

    def method_of(args, kwargs, result):
        method = kwargs.get("method", args[3] if len(args) > 3 else "GET")
        return f"api.handle.{method.upper()}"

    wrap = recorder.wrap
    wrap(api.QueryService, "handle_request", method_of)
    wrap(api.QueryService, "meta_payload", "api.render.meta")
    wrap(api.QueryService, "domain_history_payload", "api.render.history")
    wrap(api.QueryService, "provider_stability_payload",
         "api.render.stability")
    wrap(api.QueryService, "compare_payload", "api.render.compare")
    wrap(api.QueryService, "ingest", "api.ingest")
    wrap(SharedPayloadCache, "get", "shared_cache.get")
    wrap(SharedPayloadCache, "put", "shared_cache.put")
    wrap(DomainIndex, "history", "index.lookup")
    wrap(DomainIndex, "longevity", "index.lookup")
    wrap(DomainIndex, "add", "index.add")
    wrap(ArchiveStore, "append", "store.append")
    wrap(ArchiveStore, "refresh", "store.refresh")
    wrap(StoreTailer, "sync_once",
         lambda args, kwargs, adopted: "replica.adopt" if adopted else None)
    wrap(core_cache, "extend_base_id_sets", "core.extend")
    api.extend_base_id_sets = core_cache.extend_base_id_sets

    # Upstream connects count only inside Balancer.handle, so the
    # balancer's own /v1/ready probes do not inflate the ratio.
    original_handle = Balancer.handle

    def handle(self, *args, **kwargs):
        local.in_handle = True
        try:
            return original_handle(self, *args, **kwargs)
        finally:
            local.in_handle = False

    Balancer.handle = handle
    wrap(Balancer, "handle", "balance.handle")
    wrap(http.client.HTTPConnection, "connect",
         lambda args, kwargs, result: ("balance.upstream_connect"
                                       if getattr(local, "in_handle", False)
                                       else None))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-dir":
        print("usage: traced.py --trace-dir DIR <repro-serve args>",
              file=sys.stderr)
        return 2
    recorder = Recorder(Path(argv[1]))
    install(recorder)
    os.register_at_fork(after_in_child=recorder.reset)
    atexit.register(recorder.flush)
    real_exit = os._exit

    def exit_after_flush(code: int) -> None:
        try:
            recorder.flush()
        finally:
            real_exit(code)

    os._exit = exit_after_flush
    from repro.service import cli

    return cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
