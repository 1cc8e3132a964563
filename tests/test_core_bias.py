"""Tests for the Table-5-style bias comparison."""

import pytest

from repro.core.bias import ComparisonTable
from repro.stats.summary import DeviationFlag, MeanStd


class TestComparisonTable:
    @pytest.fixture()
    def table(self) -> ComparisonTable:
        table = ComparisonTable(base_target="com/net/org")
        table.add_characteristic("IPv6-enabled", {
            "alexa-1k": [22.7, 22.5, 23.0],
            "alexa-1M": [12.9, 13.1],
            "com/net/org": [4.1, 4.0, 4.2],
        })
        table.add_characteristic("NXDOMAIN", {
            "alexa-1k": [0.0],
            "alexa-1M": [0.13],
            "com/net/org": [0.8],
        })
        return table

    def test_flags(self, table):
        row = table["IPv6-enabled"]
        assert row.flag("alexa-1k") is DeviationFlag.EXCEEDS
        assert row.flag("alexa-1M") is DeviationFlag.EXCEEDS
        nxdomain = table["NXDOMAIN"]
        assert nxdomain.flag("alexa-1M") is DeviationFlag.FALLS_BEHIND

    def test_exaggeration_factor(self, table):
        row = table["IPv6-enabled"]
        assert row.exaggeration_factor("alexa-1k") == pytest.approx(22.73 / 4.1, rel=0.01)

    def test_exaggeration_with_zero_base(self):
        table = ComparisonTable(base_target="base")
        row = table.add_characteristic("metric", {"x": [5.0], "base": [0.0]})
        assert row.exaggeration_factor("x") == float("inf")

    def test_distorting_targets(self, table):
        assert set(table["IPv6-enabled"].distorting_targets()) == {"alexa-1k", "alexa-1M"}

    def test_distortion_summary(self, table):
        summary = table.distortion_summary()
        assert summary["alexa-1k"] == pytest.approx(1.0)
        assert summary["alexa-1M"] == pytest.approx(1.0)

    def test_targets_and_characteristics(self, table):
        assert table.characteristics() == ["IPv6-enabled", "NXDOMAIN"]
        assert set(table.targets()) == {"alexa-1k", "alexa-1M"}
        assert len(table) == 2

    def test_render_contains_flags(self, table):
        text = table.render()
        assert "▲" in text and "▼" in text
        assert "IPv6-enabled" in text

    def test_base_target_must_be_present(self):
        table = ComparisonTable(base_target="population")
        with pytest.raises(KeyError):
            table.add_characteristic("x", {"alexa": [1.0]})

    def test_accepts_precomputed_meanstd(self):
        table = ComparisonTable(base_target="base")
        row = table.add_characteristic("x", {
            "list": MeanStd(mean=10.0, std=1.0, n=3),
            "base": MeanStd(mean=1.0, std=0.1, n=3),
        })
        assert row.flag("list") is DeviationFlag.EXCEEDS

    def test_cell_render(self, table):
        cell = table["IPv6-enabled"].cells["alexa-1k"]
        assert cell.render(1).startswith("▲ 22.7")


class TestSingleDay:
    def test_compare_single_day(self):
        # A single-day row is a one-value sample per target.
        row = ComparisonTable(base_target="base").add_characteristic(
            "TLS-capable", {"alexa-1M": [74.65], "umbrella-1M": [43.05], "base": [36.69]})
        assert row.flag("alexa-1M") is DeviationFlag.EXCEEDS
        assert row.flag("umbrella-1M") is DeviationFlag.NOT_SIGNIFICANT
