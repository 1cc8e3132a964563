"""The byte-for-byte oracle: re-render sampled responses in-process.

Each sampled response names the store version it was rendered at
(``X-Repro-Store-Version``).  The client opens the store read-only
while that version is the one on disk (:meth:`Oracle.pin`) — a
read-only :class:`~repro.service.store.ArchiveStore` never looks past
the manifest it opened — and after the measured phase replays every
sample, in version order, through ``QueryService.handle_request`` on
those pinned opens.  Stepping one service from version to version keeps
its archives loaded, so each step costs only the incremental catch-up.
"""

from __future__ import annotations

from pathlib import Path

from repro.service.api import QueryService
from repro.service.store import ArchiveStore


class Oracle:
    def __init__(self, store_dir: Path) -> None:
        self.store_dir = store_dir
        self.pinned: dict[int, ArchiveStore] = {}

    def pin(self) -> int:
        """Open the store at the version now on disk; returns it."""
        store = ArchiveStore(self.store_dir, create=False, read_only=True)
        self.pinned.setdefault(store.version, store)
        return store.version

    def verify(self, samples: list[tuple[str, int, bytes]]) -> list[str]:
        """Mismatch descriptions for ``(target, version, body)`` samples."""
        problems = []
        service = None
        for version in sorted({version for _, version, _ in samples}):
            store = self.pinned.get(version)
            if store is None:
                problems.append(f"no pinned store at version {version}")
                continue
            if service is None:
                service = QueryService(store, role="reader")
            else:
                service.store = store
            for target, at, body in samples:
                if at != version:
                    continue
                expected = service.handle_request(target)
                if bytes(expected.body) != body:
                    problems.append(f"{target} at v{version}: body differs "
                                    f"from the in-process render")
        return problems
