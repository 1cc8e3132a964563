"""Tests for the HTTP/2 prober."""

from types import SimpleNamespace

import pytest

from repro.measurement.http2_measure import Http2Measurement
from repro.web.http2 import Http2Prober
from repro.web.server import HostRegistry, WebHost


@pytest.fixture()
def registry() -> HostRegistry:
    registry = HostRegistry()
    registry.add(WebHost(domain="h2.example", tls_enabled=True, http2_enabled=True))
    registry.add(WebHost(domain="h1.example", tls_enabled=True, http2_enabled=False))
    registry.add(WebHost(domain="redirector.example", tls_enabled=True,
                         http2_enabled=False, redirect_to="h2.example"))
    registry.add(WebHost(domain="no-content.example", tls_enabled=True,
                         http2_enabled=True, serves_content=False))
    registry.add(WebHost(domain="h2-no-tls.example", tls_enabled=False, http2_enabled=True))
    registry.add(WebHost(domain="loop-a.example", tls_enabled=True, http2_enabled=True,
                         redirect_to="loop-b.example"))
    registry.add(WebHost(domain="loop-b.example", tls_enabled=True, http2_enabled=False,
                         redirect_to="loop-a.example"))
    return registry


@pytest.fixture()
def prober(registry) -> Http2Prober:
    return Http2Prober(registry)


class TestProbe:
    def test_direct_h2(self, prober):
        result = prober.probe("h2.example")
        assert result.http2_enabled
        assert result.redirects_followed == 0

    def test_h1_only(self, prober):
        assert not prober.probe("h1.example").http2_enabled

    def test_redirect_followed(self, prober):
        # The paper follows up to 10 redirects and counts the final page.
        result = prober.probe("redirector.example")
        assert result.http2_enabled
        assert result.final_domain == "h2.example"
        assert result.redirect_chain == ("h2.example",)

    def test_data_must_be_transferred(self, prober):
        # HTTP/2 negotiated but no landing-page data -> not counted.
        assert not prober.probe("no-content.example").http2_enabled

    def test_h2_requires_tls(self, prober):
        assert not prober.probe("h2-no-tls.example").http2_enabled

    def test_unreachable(self, prober):
        result = prober.probe("missing.example")
        assert not result.connected and not result.http2_enabled

    def test_redirect_loop_terminates(self, prober):
        result = prober.probe("loop-a.example")
        assert result.connected
        assert result.redirects_followed <= 2

    def test_redirect_limit(self, registry):
        prober = Http2Prober(registry, max_redirects=0)
        assert not prober.probe("redirector.example").http2_enabled

    def test_negative_redirect_limit_rejected(self, registry):
        with pytest.raises(ValueError):
            Http2Prober(registry, max_redirects=-1)


class TestAggregates:
    """The Figure 8 / Table 5 HTTP/2 share of the prober's verdicts.

    It is computed by the HTTP/2 measurement (Http2Characteristics), its
    one implementation.
    """

    @staticmethod
    def _measure(registry, names):
        return Http2Measurement(SimpleNamespace(hosts=registry)).measure(names)

    def test_adoption_share(self, registry):
        measured = self._measure(registry, ["h2.example", "h1.example", "redirector.example",
                                            "missing.example"])
        assert measured.adoption_share == pytest.approx(50.0)

    def test_empty(self, registry):
        assert self._measure(registry, []).adoption_share == 0.0

    def test_probe_all(self, prober):
        assert len(prober.probe_all(["h2.example", "h1.example"])) == 2
