"""Tests for the Alexa toolbar telemetry model (Section 7.1)."""

import pytest

from repro.ranking.toolbar import ANONYMISED_HOSTS, DEMOGRAPHIC_FIELDS, AlexaToolbar


class TestToolbar:
    def test_aid_stable_per_installation(self):
        toolbar = AlexaToolbar(demographics={"age": "30-39", "gender": "f"})
        assert toolbar.aid == toolbar.aid
        assert len(toolbar.aid) == 32

    def test_different_installations_different_aid(self):
        a = AlexaToolbar(demographics={"age": "30-39"})
        b = AlexaToolbar(demographics={"age": "50-59"})
        assert a.aid != b.aid

    def test_unknown_demographic_rejected(self):
        with pytest.raises(ValueError):
            AlexaToolbar(demographics={"favourite_colour": "blue"})

    def test_demographic_fields_match_paper(self):
        assert set(DEMOGRAPHIC_FIELDS) == {
            "age", "gender", "household_income", "ethnicity", "education",
            "children", "install_location"}

    def test_full_url_transmitted_for_normal_sites(self):
        toolbar = AlexaToolbar()
        record = toolbar.visit("https://shop.example.com/cart?item=4711&token=secret")
        assert record is not None
        assert not record.anonymised
        assert "token=secret" in record.url

    def test_search_engines_anonymised_to_host(self):
        toolbar = AlexaToolbar()
        record = toolbar.visit("https://www.google.com/search?q=private+query")
        assert record.anonymised
        assert record.url == "https://www.google.com/"
        assert "private" not in record.url

    def test_anonymised_hosts_cover_paper_examples(self):
        for host in ("google.com", "youtube.com", "search.yahoo.com", "jet.com",
                     "shop.rewe.de", "ocado.com", "instacart.com"):
            assert host in ANONYMISED_HOSTS or f"www.{host}" in ANONYMISED_HOSTS

    def test_failed_page_loads_not_transmitted(self):
        toolbar = AlexaToolbar()
        assert toolbar.visit("https://broken.example.com/", loaded=False) is None
        assert toolbar.telemetry == []

    def test_referer_also_anonymised(self):
        toolbar = AlexaToolbar()
        record = toolbar.visit("https://example.com/page",
                               referer="https://www.google.com/search?q=x")
        assert record.referer == "https://www.google.com/"

    def test_visited_hosts(self):
        toolbar = AlexaToolbar()
        toolbar.visit("https://a.example/1")
        toolbar.visit("https://b.example/2")
        assert toolbar.visited_hosts() == ["a.example", "b.example"]

