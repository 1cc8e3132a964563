"""The fault-injection layer itself: determinism, kinds, plan plumbing.

Chaos tests are only trustworthy if the chaos is: the same seed must
fire the same faults at the same calls every run, an uninstalled plan
must be invisible, and each fault kind must surface as the documented
exception shape.
"""

import datetime as dt
import io
import time

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule, InjectedCrash, InjectedFault
from repro.providers.base import ListArchive, ListSnapshot
from repro.service.api import QueryService
from repro.service.store import ArchiveStore


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def _run_schedule(seed: int, calls: int = 40) -> list[tuple[str, int, str]]:
    plan = FaultPlan(seed, [
        FaultRule("store.shard.write", "error", probability=0.3),
        FaultRule("store.manifest.*", "crash", on_calls=(3,)),
        FaultRule("api.*", "drop", probability=0.2, max_fires=2),
    ])
    for _ in range(calls):
        for point in ("store.shard.write", "store.manifest.fsync",
                      "api.response.write"):
            try:
                plan.hit(point)
            except (InjectedFault, InjectedCrash, ConnectionResetError):
                pass
    return list(plan.fired)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        assert _run_schedule(7) == _run_schedule(7)

    def test_different_seeds_differ(self):
        assert _run_schedule(7) != _run_schedule(8)

    def test_points_are_independent_streams(self):
        """Adding a rule for one point never shifts another point's draws."""
        base = FaultPlan(11, [FaultRule("a", "error", probability=0.5)])
        extended = FaultPlan(11, [FaultRule("a", "error", probability=0.5),
                                  FaultRule("b", "error", probability=0.5)])
        for plan in (base, extended):
            for _ in range(30):
                try:
                    plan.hit("a")
                except InjectedFault:
                    pass
                try:
                    plan.hit("b")
                except InjectedFault:
                    pass
        a_base = [f for f in base.fired if f[0] == "a"]
        a_ext = [f for f in extended.fired if f[0] == "a"]
        assert a_base == a_ext


class TestKinds:
    def test_error_is_oserror(self):
        plan = FaultPlan(1, [FaultRule("p", "error")])
        with pytest.raises(OSError) as excinfo:
            plan.hit("p")
        assert excinfo.value.point == "p"

    def test_crash_is_not_exception(self):
        plan = FaultPlan(1, [FaultRule("p", "crash")])
        with pytest.raises(BaseException) as excinfo:
            plan.hit("p")
        assert not isinstance(excinfo.value, Exception)
        assert faults.is_crash(excinfo.value)

    def test_drop_is_connection_reset(self):
        plan = FaultPlan(1, [FaultRule("p", "drop")])
        with pytest.raises(ConnectionResetError):
            plan.hit("p")

    def test_slow_sleeps_and_passes(self):
        plan = FaultPlan(1, [FaultRule("p", "slow", delay=0.0)])
        plan.hit("p")  # must not raise
        assert plan.fired == [("p", 1, "slow")]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("p", "explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("p", "error", probability=1.5)


class TestTornWrites:
    def test_torn_write_keeps_prefix(self):
        plan = FaultPlan(1, [FaultRule("p", "torn", keep_bytes=3)])
        handle = io.BytesIO()
        with pytest.raises(InjectedFault):
            plan.torn_write("p", handle, b"abcdef")
        assert handle.getvalue() == b"abc"

    def test_torn_prefix_is_deterministic(self):
        def torn_len(seed):
            plan = FaultPlan(seed, [FaultRule("p", "torn")])
            handle = io.BytesIO()
            with pytest.raises(InjectedFault):
                plan.torn_write("p", handle, b"x" * 100)
            return len(handle.getvalue())

        assert torn_len(5) == torn_len(5)
        assert 0 <= torn_len(5) < 100

    def test_clean_write_passes_through(self):
        plan = FaultPlan(1, [])
        handle = io.BytesIO()
        plan.torn_write("p", handle, b"abcdef")
        assert handle.getvalue() == b"abcdef"


class TestScheduling:
    def test_on_calls_targets_exact_calls(self):
        plan = FaultPlan(1, [FaultRule("p", "error", on_calls=(2, 4))])
        outcomes = []
        for _ in range(5):
            try:
                plan.hit("p")
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "ok", "fault", "ok"]

    def test_max_fires_lets_retries_win(self):
        plan = FaultPlan(1, [FaultRule("p", "error", max_fires=2)])
        failures = 0
        for _ in range(5):
            try:
                plan.hit("p")
            except InjectedFault:
                failures += 1
        assert failures == 2
        assert plan.calls("p") == 5

    def test_pattern_matches_namespaces(self):
        plan = FaultPlan(1, [FaultRule("store.*", "error")])
        with pytest.raises(InjectedFault):
            plan.hit("store.shard.write")
        plan.hit("api.request")  # unmatched: passes

    def test_install_uninstall(self):
        assert faults.ACTIVE is None
        plan = faults.install(FaultPlan(1))
        assert faults.ACTIVE is plan
        faults.uninstall()
        assert faults.ACTIVE is None

    def test_injected_context_manager(self):
        with faults.injected(FaultPlan(3, [FaultRule("p", "error")])) as plan:
            assert faults.ACTIVE is plan
            with pytest.raises(InjectedFault):
                plan.hit("p")
        assert faults.ACTIVE is None


class TestFireCounters:
    def test_fired_counter_matches_plan_trace(self):
        # Satellite of the observability PR: every plan.fired append is
        # mirrored into repro_faults_fired_total{point,kind}, so the
        # chaos CI job can assert fire counts from /v1/metrics alone.
        from collections import Counter

        from repro.obs import metrics

        def counts():
            samples = metrics.parse_exposition(metrics.render().decode("utf-8"))
            return {key: value for key, value in samples.items()
                    if key.startswith("repro_faults_fired_total{")}

        before = counts()
        plan = FaultPlan(11, [
            FaultRule("store.shard.write", "error", probability=0.5),
            FaultRule("api.*", "drop", on_calls=(2, 3)),
            FaultRule("replica.fetch", "torn", max_fires=1),
        ])
        for _ in range(20):
            for point in ("store.shard.write", "api.response.write",
                          "replica.fetch"):
                try:
                    plan.hit(point)
                except (InjectedFault, ConnectionResetError):
                    pass
        assert plan.fired  # the schedule actually executed
        after = counts()
        expected = Counter((point, kind) for point, _, kind in plan.fired)
        deltas = {key: after.get(key, 0) - before.get(key, 0)
                  for key in set(before) | set(after)}
        for (point, kind), fires in expected.items():
            key = (f'repro_faults_fired_total{{point="{point}",'
                   f'kind="{kind}"}}')
            assert deltas.pop(key) == fires
        # No other fired-counter sample moved.
        assert not any(deltas.values())


class TestDormantOverhead:
    def test_disabled_fault_points_under_two_percent(self, tmp_path):
        # A cached read crosses one fault point (``api.request``), which
        # costs one ``faults.ACTIVE is not None`` check while no plan is
        # installed.  Same loop-minus-noop best-of-rounds method as
        # test_obs.py::TestDormantOverhead.
        store = ArchiveStore(tmp_path / "store")
        store.append_archive(ListArchive.from_snapshots([
            ListSnapshot(provider="alexa",
                         date=dt.date(2018, 1, 1) + dt.timedelta(days=day),
                         entries=("a.com", "b.com", f"day{day}.com"))
            for day in range(2)]))
        service = QueryService(store)
        target = "/v1/providers/alexa/stability"
        assert service.handle_request(target).status == 200
        rounds, requests, loops = 3, 200, 100_000

        def timed(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        def hammer():
            for _ in range(requests):
                service.handle_request(target)

        request_s = min(timed(hammer) for _ in range(rounds)) / requests

        def guard():
            for _ in range(loops):
                if faults.ACTIVE is not None:
                    raise AssertionError("no plan should be active")

        loop_s = min(timed(guard) for _ in range(rounds))
        noop_s = min(timed(lambda: [None for _ in range(loops)])
                     for _ in range(rounds))
        overhead = max(0.0, loop_s - noop_s) / loops / request_s
        assert overhead < 0.02, (
            f"dormant fault points cost {overhead:.2%} of a cached read")
