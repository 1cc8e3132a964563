"""Tests for target sets and the combined measurement harness."""

import pytest

from repro.measurement.harness import (
    TABLE5_METRICS,
    MeasurementHarness,
    MeasurementReport,
    TargetSet,
)


class TestTargetSet:
    def test_from_snapshot(self, small_run):
        snapshot = small_run.alexa[-1]
        target = TargetSet.from_snapshot(snapshot)
        assert target.name == "alexa"
        assert len(target) == len(snapshot)

    def test_from_snapshot_top_n(self, small_run):
        target = TargetSet.from_snapshot(small_run.alexa[-1], top_n=50)
        assert target.name == "alexa-50"
        assert len(target) == 50

    def test_from_zonefile_sample(self, small_run):
        target = TargetSet.from_zonefile(small_run.zonefile, sample=25, seed=1)
        assert len(target) == 25
        assert target.name == "com/net/org"

    def test_from_names(self):
        target = TargetSet.from_names(["a.com", "b.com"], name="custom")
        assert list(target) == ["a.com", "b.com"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(name="empty", domains=())


class TestHarness:
    def test_measure_all(self, harness, small_run):
        target = TargetSet.from_snapshot(small_run.alexa[-1], top_n=60)
        report = harness.measure(target)
        assert isinstance(report, MeasurementReport)
        assert report.target == "alexa-60"
        for metric in TABLE5_METRICS:
            value = report.metric(metric)
            assert value >= 0.0

    def test_metric_unknown(self, harness, small_run):
        target = TargetSet.from_snapshot(small_run.alexa[-1], top_n=10)
        report = harness.measure(target)
        with pytest.raises(KeyError):
            report.metric("latency")

    def test_dns_only_measurement(self, harness, small_run):
        target = TargetSet.from_snapshot(small_run.majestic[-1], top_n=40)
        dns = harness.measure_dns(target)
        assert dns.total == 40

    def test_consistent_with_ground_truth(self, harness, internet, small_run):
        # The measured IPv6 share must equal the ground-truth share of the
        # same target set (the measurement pipeline adds no bias itself).
        names = [d.name for d in internet.domains if d.exists][:200]
        target = TargetSet.from_names(names, name="check")
        report = harness.measure_dns(target)
        truth = 100.0 * sum(1 for n in names
                            if internet.domain_by_name(n).ipv6_enabled) / len(names)
        assert report.ipv6_share == pytest.approx(truth)

    def test_harness_constructable(self, internet):
        harness = MeasurementHarness(internet)
        assert harness.internet is internet
