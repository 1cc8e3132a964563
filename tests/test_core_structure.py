"""Tests for the structure analysis (Section 5.1 / Table 2)."""

import datetime as dt

import pytest

from repro.core.structure import (
    alias_count,
    base_domain_share,
    normalise_to_base_domains,
    structure_summary,
    subdomain_depth_distribution,
    summarise_archive,
)
from repro.providers.base import ListArchive, ListSnapshot


def make_snapshot(entries, provider="test", day=0) -> ListSnapshot:
    return ListSnapshot(provider=provider, entries=tuple(entries),
                        date=dt.date(2018, 4, 1) + dt.timedelta(days=day))


class TestNormalisation:
    def test_subdomains_collapse_to_base(self):
        bases = normalise_to_base_domains(["www.a.com", "a.com", "api.b.org"])
        assert bases == {"a.com", "b.org"}

    def test_bare_suffix_kept(self):
        assert "localdomain" in normalise_to_base_domains(["localdomain"])

    def test_base_domain_share(self):
        assert base_domain_share(["a.com", "www.a.com"]) == pytest.approx(0.5)
        assert base_domain_share([]) == 0.0


class TestDepthDistribution:
    def test_shares(self):
        shares, max_depth = subdomain_depth_distribution(
            ["a.com", "www.a.com", "x.y.a.com", "b.com"])
        assert shares[0] == pytest.approx(0.5)
        assert shares[1] == pytest.approx(0.25)
        assert shares[2] == pytest.approx(0.25)
        assert max_depth == 2

    def test_empty(self):
        shares, max_depth = subdomain_depth_distribution([])
        assert shares == {} and max_depth == 0


class TestAliases:
    def test_counts_extra_tld_copies(self):
        # google.com + google.de + google.fr -> 2 aliases.
        assert alias_count(["google.com", "google.de", "google.fr", "other.com"]) == 2

    def test_zero_without_duplicates(self):
        assert alias_count(["a.com", "b.com"]) == 0

    def test_subdomains_grouped_by_sld(self):
        assert alias_count(["www.google.com", "google.de"]) == 1


class TestStructureSummary:
    def test_summary_fields(self):
        snapshot = make_snapshot(["a.com", "www.a.com", "b.de", "junk.localdomain",
                                  "a.org"])
        summary = structure_summary(snapshot)
        assert summary.size == 5
        assert summary.valid_tlds == 3  # com, de, org
        assert summary.invalid_tlds == 1
        assert summary.invalid_tld_domains == 1
        assert summary.base_domains == 4
        assert summary.max_depth == 1
        assert summary.aliases == 1  # a.com / a.org share the SLD "a"
        assert summary.base_domain_share == pytest.approx(0.8)
        assert summary.depth_shares[1] == pytest.approx(0.2)
        assert 7 not in summary.depth_shares

    def test_umbrella_style_snapshot_has_lower_base_share(self, small_run):
        alexa = structure_summary(small_run.alexa[-1])
        umbrella = structure_summary(small_run.umbrella[-1])
        assert umbrella.base_domain_share < alexa.base_domain_share
        assert umbrella.max_depth > alexa.max_depth
        assert umbrella.invalid_tld_domains > 0
        assert alexa.invalid_tld_domains == 0


class TestArchiveSummary:
    def test_aggregation(self):
        archive = ListArchive(provider="test")
        archive.add(make_snapshot(["a.com", "b.de"], day=0))
        archive.add(make_snapshot(["a.com", "c.fr"], day=1))
        summary = summarise_archive(archive)
        assert summary.days == 2
        assert summary.tld_coverage.mean == pytest.approx(2.0)
        assert summary.base_domains.mean == pytest.approx(2.0)
        assert summary.max_depth == 0

    def test_sampling(self):
        archive = ListArchive(provider="test")
        for day in range(6):
            archive.add(make_snapshot([f"d{day}.com"], day=day))
        summary = summarise_archive(archive, sample_every=3)
        assert summary.days == 2

    def test_invalid_sampling(self):
        archive = ListArchive(provider="test")
        archive.add(make_snapshot(["a.com"]))
        with pytest.raises(ValueError):
            summarise_archive(archive, sample_every=0)

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError):
            summarise_archive(ListArchive(provider="test"))
