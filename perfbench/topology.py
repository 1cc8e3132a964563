"""Boot and observe the deployed topology: ``balance`` → pool → store.

Both servers run as real ``repro-serve`` processes (``python -m
repro.service.cli``), or — for a traced run — under
``perfbench/traced.py``, which installs span recorders before handing
the same argument vector to the same CLI.  Everything measured about
the servers from outside (CPU seconds, PSS, host idle time, the
control port's aggregated ``/v1/metrics``) lives here too.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.client import Connection
from repro.obs.metrics import parse_exposition

HOST = "127.0.0.1"

#: Failed ``/v1/ready`` probes before ``balance`` ejects the pool.  The
#: default of 1 ejects the pool's only backend address whenever a probe
#: lands on a reader that has not yet adopted the writer's newest
#: version (up to one tailer poll after each ingest), so reads behind
#: it answer 503 until the next probe passes.  Four probes span a
#: second, far longer than any adoption the benchmark sees.
EJECT_AFTER = 4

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def pss_mb(pid: int) -> float:
    """Proportional set size of a live process, in MB."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no Pss line for pid {pid}")


def host_cpu() -> tuple[int, int]:
    """``(idle, total)`` jiffies over all CPUs (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    return values[3] + values[4], sum(values[:8])


def tree_bytes(root: Path, skip: str) -> int:
    """Bytes of every file under ``root`` except those named ``skip``."""
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file() and path.name != skip)


@dataclass
class Deployment:
    """One pool plus one balancer in front of it."""

    root: Path                 # checkout root (holds src/ and perfbench/)
    work: Path                 # scratch directory of this deployment
    store_dir: Path
    trace_dir: Optional[Path] = None
    procs: list = field(default_factory=list)
    pool: dict = field(default_factory=dict)
    balancer_port: int = 0
    #: Every server process by name: balancer, pool parent, children.
    pids: dict = field(default_factory=dict)

    def _command(self, argv: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-u", "-m", "repro.service.cli", *argv]
        return [sys.executable, "-u",
                str(self.root / "perfbench" / "traced.py"),
                "--trace-dir", str(self.trace_dir), *argv]

    def _spawn(self, argv: list[str], name: str, **kwargs) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        log = open(self.work / f"{name}.log", "ab")
        try:
            proc = subprocess.Popen(self._command(argv), env=env, stderr=log,
                                    cwd=self.work, **kwargs)
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    def start(self, workers: int) -> None:
        ready = self.work / "pool.json"
        pool = self._spawn(
            ["serve", "--store", str(self.store_dir), "--host", HOST,
             "--port", "0", "--workers", str(workers), "--event-loop",
             "--ready-file", str(ready), "--log-level", "warning"],
            "pool", stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if pool.poll() is not None:
                raise RuntimeError(f"pool exited with {pool.returncode}; "
                                   f"see {self.work / 'pool.log'}")
            try:
                self.pool = json.loads(ready.read_text(encoding="utf-8"))
                break
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    raise TimeoutError("pool did not become ready") from None
                time.sleep(0.01)
        balancer = self._spawn(
            ["balance", "--backend", f"http://{HOST}:{self.pool['port']}",
             "--host", HOST, "--port", "0", "--log-level", "warning",
             "--eject-after", str(EJECT_AFTER)],
            "balance", stdout=subprocess.PIPE)
        line = balancer.stdout.readline().decode("utf-8", "replace")
        balancer.stdout.close()
        if not line.startswith("balancing "):
            raise RuntimeError(f"balancer did not start: {line!r}")
        self.balancer_port = int(line.split()[1].rsplit(":", 1)[1])
        self.pids = {"balancer": balancer.pid, "pool": pool.pid}
        self.pids.update({w["name"]: w["pid"] for w in self.pool["workers"]})

    # -- addresses and pids ------------------------------------------------
    @property
    def pool_port(self) -> int:
        return self.pool["port"]

    def slots(self, role: str) -> list[dict]:
        return [w for w in self.pool["workers"] if w["role"] == role]

    def metrics(self) -> dict[str, float]:
        """The control port's aggregated ``/v1/metrics`` samples."""
        conn = Connection(self.pool["control_port"])
        try:
            reply = conn.get("/v1/metrics")
        finally:
            conn.close()
        return parse_exposition(reply.body.decode("utf-8"))

    # -- teardown ------------------------------------------------------------
    def stop(self, graceful: bool = True) -> None:
        """End both servers and wait until every process has ended.

        Graceful: SIGTERM, balancer first, so the pool drains its children
        (traced children write their spans on the way out).  Otherwise
        SIGKILL every process, for set-ups whose servers are discarded.
        """
        children = [w["pid"] for w in self.pool.get("workers", [])]
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pid in children:  # a drained pool parent has reaped these
            if not graceful and _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.procs.clear()


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an exited zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")
