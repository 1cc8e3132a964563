"""Tests for the TLS/HSTS prober."""

from types import SimpleNamespace

import pytest

from repro.measurement.tls_measure import TlsMeasurement
from repro.web.hsts import HstsPolicy
from repro.web.server import HostRegistry, WebHost
from repro.web.tls import TlsProber


@pytest.fixture()
def registry() -> HostRegistry:
    registry = HostRegistry()
    registry.add(WebHost(domain="secure.example", tls_enabled=True,
                         hsts_policy=HstsPolicy(max_age=31536000)))
    registry.add(WebHost(domain="tls-only.example", tls_enabled=True))
    registry.add(WebHost(domain="plain.example", tls_enabled=False))
    registry.add(WebHost(domain="zero-hsts.example", tls_enabled=True,
                         hsts_policy=HstsPolicy(max_age=0)))
    return registry


@pytest.fixture()
def prober(registry) -> TlsProber:
    return TlsProber(registry)


class TestProbe:
    def test_tls_and_hsts(self, prober):
        result = prober.probe("secure.example")
        assert result.connected and result.tls_capable and result.hsts_enabled
        assert result.tls_version == "TLSv1.2"

    def test_tls_without_hsts(self, prober):
        result = prober.probe("tls-only.example")
        assert result.tls_capable and not result.hsts_enabled

    def test_hsts_with_zero_max_age_not_enabled(self, prober):
        assert not prober.probe("zero-hsts.example").hsts_enabled

    def test_plain_http_host(self, prober):
        result = prober.probe("plain.example")
        assert result.connected and not result.tls_capable

    def test_unreachable_host(self, prober):
        result = prober.probe("unknown.example")
        assert not result.connected and not result.tls_capable

    def test_www_prefix_retry(self, registry):
        registry.add(WebHost(domain="www.only-www.example", tls_enabled=True))
        prober = TlsProber(registry)
        assert prober.probe("only-www.example").tls_capable

    def test_www_retry_can_be_disabled(self, registry):
        registry.add(WebHost(domain="www.only-www.example", tls_enabled=True))
        prober = TlsProber(registry, try_www_prefix=False)
        assert not prober.probe("only-www.example").connected


class TestAggregates:
    """Table 5's TLS and HSTS shares of the prober's verdicts.

    They are computed by the TLS measurement (TlsCharacteristics), their
    one implementation.
    """

    @staticmethod
    def _measure(registry, names):
        return TlsMeasurement(SimpleNamespace(hosts=registry)).measure(names)

    def test_probe_all(self, prober):
        results = prober.probe_all(["secure.example", "plain.example"])
        assert len(results) == 2

    def test_tls_share(self, registry):
        measured = self._measure(registry, ["secure.example", "tls-only.example",
                                            "plain.example", "unknown.example"])
        assert measured.tls_share == pytest.approx(50.0)

    def test_hsts_share_of_tls(self, registry):
        measured = self._measure(registry, ["secure.example", "tls-only.example",
                                            "plain.example"])
        assert measured.hsts_share_of_tls == pytest.approx(50.0)

    def test_empty_inputs(self, registry):
        measured = self._measure(registry, [])
        assert measured.tls_share == 0.0
        assert measured.hsts_share_of_tls == 0.0
