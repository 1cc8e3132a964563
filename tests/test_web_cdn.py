"""Tests for CDN detection from CNAME patterns."""

import pytest

from repro.dns.zone import ZoneDatabase
from repro.web.cdn import DEFAULT_CDN_RULES, CdnDetector, CdnRule


class TestCdnRule:
    def test_suffix_match(self):
        rule = CdnRule("Akamai", ("akamaiedge.net",))
        assert rule.matches("e1234.a.akamaiedge.net")
        assert rule.matches("akamaiedge.net")
        assert not rule.matches("notakamaiedge.net")

    def test_case_insensitive(self):
        rule = CdnRule("Fastly", ("fastly.net",))
        assert rule.matches("Prod.Global.FASTLY.NET.")


class TestCdnDetector:
    @pytest.fixture()
    def detector(self) -> CdnDetector:
        return CdnDetector()

    def test_default_rules_cover_paper_cdns(self, detector):
        # The providers named in Figure 7b must all be detectable.
        for provider in ("Akamai", "Google", "Fastly", "Incapsula", "Amazon",
                         "WordPress", "Facebook", "Instart", "Zenedge",
                         "Highwinds", "CHN Net", "Cloudflare"):
            assert provider in detector.providers

    def test_detect_name(self, detector):
        assert detector.detect_name("d1234.cloudfront.net") == "Amazon"
        assert detector.detect_name("shop.example.com") is None

    def test_detect_chain_first_match(self, detector):
        chain = ["www.example.com.edgekey.net", "e1.a.akamaiedge.net"]
        assert detector.detect_chain(chain) == "Akamai"

    def test_detect_chain_empty(self, detector):
        assert detector.detect_chain([]) is None

    # The Figure 7a/7b shares of the detector's verdicts are computed by
    # the DNS measurement (DnsCharacteristics), their one implementation.
    @staticmethod
    def _measure_chains(measure_zone, detector, chains):
        zone = ZoneDatabase()
        names = []
        for index, chain in enumerate(chains):
            name = previous = f"site{index}.com"
            names.append(name)
            for link in chain:
                zone.add_cname(previous, link)
                previous = link
            zone.add_address(previous, "192.0.2.1")
        return measure_zone(zone, names, cdn_detector=detector)

    def test_share_by_provider(self, detector, measure_zone):
        chains = [
            ["x.fastly.net"],
            ["y.fastly.net"],
            ["z.cloudfront.net"],
            ["plain.example.org"],
        ]
        shares = self._measure_chains(measure_zone, detector, chains).top_cdns(
            len(detector.providers))
        assert shares["Fastly"] == pytest.approx(2 / 3)
        assert shares["Amazon"] == pytest.approx(1 / 3)
        assert "plain.example.org" not in shares

    def test_share_empty(self, detector, measure_zone):
        assert self._measure_chains(measure_zone, detector, []).top_cdns() == {}

    def test_detection_ratio(self, detector, measure_zone):
        chains = [["a.fastly.net"], ["nothing.example"], []]
        measured = self._measure_chains(measure_zone, detector, chains)
        assert measured.cdn_share == pytest.approx(100 / 3)
        assert self._measure_chains(measure_zone, detector, []).cdn_share == 0.0

    def test_custom_rules(self):
        detector = CdnDetector([CdnRule("MyCDN", ("cdn.my",))])
        assert detector.detect_name("a.cdn.my") == "MyCDN"
        assert detector.detect_name("a.fastly.net") is None

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            CdnDetector([])

    def test_ruleset_nonempty(self):
        assert len(DEFAULT_CDN_RULES) >= 25
