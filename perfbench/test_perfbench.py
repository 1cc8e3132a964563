"""Self-test of the benchmark at the ``tiny`` scale preset.

Every workload runs briefly, untraced and traced, against real pool and
balancer processes; the result must carry every metric ``BENCHMARK.json``
declares, in its declared unit, with no failed operation.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, inputs, run
from perfbench.client import Reply, etag_matches
from perfbench.oracle import Oracle
from repro.service.api import QueryService
from repro.service.store import ArchiveStore

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 0.5


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    report = bench.run(ROOT, workload, seed=3, seconds=SECONDS, trace=trace,
                       scale="tiny")
    line = run.result_line(report, run.declared_metrics(trace))
    assert line["correct"], report["phase"]
    assert line["attempted"] > 0 and line["failed"] == 0
    for name, unit in run.declared_metrics(trace).items():
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], float)
    if trace:
        assert report["metrics"]["obs.cache_count_drift"][0] == 0
        assert report["metrics"]["obs.ingest_count_drift"][0] == 0


def test_same_seed_same_inputs():
    for workload in bench.WORKLOADS:
        first = inputs.generate(workload, 5, "tiny", 6.0, probe=2)
        again = inputs.generate(workload, 5, "tiny", 6.0, probe=2)
        other = inputs.generate(workload, 6, "tiny", 6.0, probe=2)
        assert (first.targets, first.requests, first.ingests) == \
            (again.targets, again.requests, again.ingests)
        assert first.ingests != other.ingests
        for name, archive in first.archives.items():
            assert [list(s.entry_ids()) for s in archive] == \
                [list(s.entry_ids()) for s in again.archives[name]]


def test_oracle_flags_a_tampered_body(tmp_path):
    generated = inputs.generate("hot_read", 5, "tiny", 1.0)
    store_dir = tmp_path / "store"
    ArchiveStore.from_archives(store_dir, generated.archives).close()
    oracle = Oracle(store_dir)
    version = oracle.pin()
    target = generated.hot[0]
    served = QueryService(ArchiveStore(store_dir, create=False,
                                       read_only=True)).handle_request(target)
    body = bytes(served.body)
    tampered = body.replace(b"1", b"2", 1)
    assert tampered != body
    assert oracle.verify([(target, version, body)]) == []
    assert oracle.verify([(target, version, tampered)])
    assert etag_matches(Reply(200, {"etag": served.etag}, body))
    assert not etag_matches(Reply(200, {"etag": served.etag}, tampered))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
