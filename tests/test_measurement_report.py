"""Tests for the reporting helpers (time series and Table 5 assembly)."""

from collections import Counter

import pytest

from repro.core.bias import ComparisonTable
from repro.measurement.harness import TABLE5_ROWS, TargetSet
from repro.measurement.report import TABLE5_METRICS, build_comparison_table, daily_series
from repro.stats.summary import DeviationFlag


class TestDailySeries:
    def test_series_structure(self, harness, small_run):
        archives = {"alexa": small_run.alexa.top(200), "majestic": small_run.majestic.top(200)}
        series = daily_series(harness, archives, ("ipv6",), sample_every=7)["ipv6"]
        assert set(series) == {"alexa", "majestic"}
        for per_date in series.values():
            assert len(per_date) == len(small_run.alexa.dates()[::7])
            assert all(0 <= value <= 100 for value in per_date.values())

    def test_top_n_label(self, harness, small_run):
        archives = {"alexa": small_run.alexa}
        series = daily_series(harness, archives, ("nxdomain",), top_n=50, sample_every=14)
        assert "alexa-50" in series["nxdomain"]

    def test_population_included(self, harness, small_run):
        population = TargetSet.from_zonefile(small_run.zonefile, sample=100, seed=3)
        archives = {"majestic": small_run.majestic.top(100)}
        series = daily_series(harness, archives, ("http2",),
                              population=population, sample_every=14)["http2"]
        assert "com/net/org" in series
        assert len(set(series["com/net/org"].values())) == 1

    def test_several_metrics_measure_each_target_once_per_part(
            self, harness, small_run, monkeypatch):
        archives = {"alexa": small_run.alexa.top(50)}
        population = TargetSet.from_zonefile(small_run.zonefile, sample=50, seed=3)
        calls = Counter()
        for part in ("dns", "tls", "http2"):
            def counted(target, part=part, measure=getattr(harness, f"measure_{part}")):
                calls[part] += 1
                return measure(target)
            monkeypatch.setattr(harness, f"measure_{part}", counted)
        metrics = ("nxdomain", "ipv6", "caa", "http2")
        together = daily_series(harness, archives, metrics,
                                population=population, sample_every=7)
        targets = len(small_run.alexa.dates()[::7]) + 1
        assert calls == {"dns": targets, "http2": targets}
        for metric in metrics:
            assert together[metric] == daily_series(
                harness, archives, (metric,), population=population,
                sample_every=7)[metric]

    def test_invalid_args(self, harness, small_run):
        with pytest.raises(ValueError):
            daily_series(harness, {"alexa": small_run.alexa}, ("ipv6",), sample_every=0)
        with pytest.raises(KeyError):
            daily_series(harness, {"alexa": small_run.alexa.top(10)}, ("bogus",))



class TestOneTable5Mapping:
    """Figures 6/8 and Table 5 read a metric through the same mapping."""

    @pytest.mark.parametrize("metric", TABLE5_METRICS)
    def test_daily_series_matches_table5_value(self, harness, small_run, metric):
        archive = small_run.alexa.top(60)
        snapshot = archive.snapshots()[0]
        series = daily_series(harness, {"alexa": archive}, (metric,),
                              sample_every=len(archive.snapshots()))[metric]
        report = harness.measure(TargetSet.from_snapshot(snapshot, name="alexa"))
        assert series == {"alexa": {snapshot.date: report.metric(metric)}}

class TestComparisonTable:
    @pytest.fixture(scope="class")
    def table(self, request) -> ComparisonTable:
        small_run = request.getfixturevalue("small_run")
        harness = request.getfixturevalue("harness")
        return build_comparison_table(
            small_run, harness=harness, sample_days=(-1,), top_k=100,
            population_sample=400,
            metrics=("nxdomain", "ipv6", "caa", "cdn", "tls", "http2"))

    def test_rows_present(self, table):
        assert "IPv6-enabled" in table.characteristics()
        assert "NXDOMAIN" in table.characteristics()

    def test_targets_cover_lists_and_scopes(self, table):
        targets = set(table.targets())
        assert {"alexa-1k", "alexa-1M", "umbrella-1k", "umbrella-1M",
                "majestic-1k", "majestic-1M"} <= targets

    def test_adoption_rows_exceed_population(self, table):
        for characteristic in ("IPv6-enabled", "CAA-enabled", "HTTP2"):
            row = table[characteristic]
            assert row.flag("alexa-1k") is DeviationFlag.EXCEEDS
            assert row.flag("majestic-1k") is DeviationFlag.EXCEEDS

    def test_top1k_exaggerates_more_than_full_list(self, table):
        row = table["CAA-enabled"]
        assert row.exaggeration_factor("alexa-1k") > row.exaggeration_factor("alexa-1M")

    def test_most_cells_distort(self, table):
        summary = table.distortion_summary()
        distorting = [share for share in summary.values()]
        assert sum(distorting) / len(distorting) > 0.6

    def test_table5_metric_labels_unique(self):
        labels = [TABLE5_ROWS[metric][0] for metric in TABLE5_METRICS]
        assert len(labels) == len(set(labels))
