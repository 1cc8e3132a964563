"""Tests for intersection analysis (Section 5.2/5.3)."""

import datetime as dt

import pytest

from repro.core.intersection import (
    aggregate_top,
    disjunct_domains,
    intersection_matrix,
    intersection_over_time,
    jaccard_index,
)
from repro.providers.base import ListArchive, ListSnapshot


def snap(provider, entries, day=0):
    return ListSnapshot(provider=provider, entries=tuple(entries),
                        date=dt.date(2018, 4, 1) + dt.timedelta(days=day))


class TestPairwise:
    def test_counts_common_base_domains(self):
        a = snap("alexa", ["a.com", "b.com", "c.com"])
        b = snap("umbrella", ["www.a.com", "b.com", "d.com"])
        assert intersection_matrix({"alexa": a, "umbrella": b}) == {("alexa", "umbrella"): 2}

    def test_without_normalisation(self):
        a = snap("alexa", ["a.com"])
        b = snap("umbrella", ["www.a.com"])
        matrix = intersection_matrix({"alexa": a, "umbrella": b}, normalise=False)
        assert matrix == {("alexa", "umbrella"): 0}

    def test_jaccard(self):
        assert jaccard_index(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard_index([], []) == 1.0


class TestMatrix:
    def test_three_lists(self):
        snapshots = {
            "alexa": snap("alexa", ["a.com", "b.com", "c.com"]),
            "umbrella": snap("umbrella", ["b.com", "c.com", "d.com"]),
            "majestic": snap("majestic", ["c.com", "d.com", "e.com"]),
        }
        matrix = intersection_matrix(snapshots)
        assert matrix[("alexa", "umbrella")] == 2
        assert matrix[("alexa", "majestic")] == 1
        assert matrix[("majestic", "umbrella")] == 2
        assert matrix[("alexa", "majestic", "umbrella")] == 1

    def test_two_lists_no_triple_key(self):
        snapshots = {
            "alexa": snap("alexa", ["a.com"]),
            "umbrella": snap("umbrella", ["a.com"]),
        }
        matrix = intersection_matrix(snapshots)
        assert list(matrix) == [("alexa", "umbrella")]


class TestOverTime:
    def test_series_per_common_date(self, small_run):
        series = intersection_over_time(small_run.archives, top_n=50)
        assert len(series) == small_run.config.n_days
        first = next(iter(series.values()))
        assert ("alexa", "majestic") in first
        assert ("alexa", "majestic", "umbrella") in first

    def test_web_lists_agree_more_than_dns_list(self, small_run):
        series = intersection_over_time(small_run.archives)
        last = series[max(series)]
        assert last[("alexa", "majestic")] > last[("alexa", "umbrella")]
        assert last[("alexa", "majestic")] > last[("majestic", "umbrella")]
        assert last[("alexa", "majestic", "umbrella")] <= min(
            last[("alexa", "majestic")], last[("alexa", "umbrella")])

    def test_empty_input(self):
        assert intersection_over_time({}) == {}

    def test_disjoint_dates(self):
        a = ListArchive(provider="alexa")
        a.add(snap("alexa", ["a.com"], day=0))
        b = ListArchive(provider="majestic")
        b.add(snap("majestic", ["a.com"], day=5))
        assert intersection_over_time({"alexa": a, "majestic": b}) == {}


class TestDisjunct:
    def test_aggregate_top(self):
        archive = ListArchive(provider="alexa")
        archive.add(snap("alexa", ["a.com", "b.com"], day=0))
        archive.add(snap("alexa", ["a.com", "c.com"], day=1))
        assert aggregate_top(archive, top_n=2) == {"a.com", "b.com", "c.com"}
        assert aggregate_top(archive, top_n=2, last_days=1) == {"a.com", "c.com"}

    def test_disjunct_domains(self):
        sets = {
            "alexa": ["a.com", "shared.com"],
            "umbrella": ["tracker.net", "shared.com"],
            "majestic": ["old.org", "shared.com"],
        }
        disjunct = disjunct_domains(sets)
        assert disjunct["alexa"] == {"a.com"}
        assert disjunct["umbrella"] == {"tracker.net"}
        assert disjunct["majestic"] == {"old.org"}

    def test_disjunct_normalises_subdomains(self):
        sets = {"alexa": ["a.com"], "umbrella": ["www.a.com", "api.b.net"]}
        disjunct = disjunct_domains(sets)
        assert disjunct["alexa"] == set()
        assert disjunct["umbrella"] == {"b.net"}
