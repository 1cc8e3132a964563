"""TLS/HSTS prober (zgrab-style).

Section 8.2: "we instruct zgrab to visit each domain via HTTPS"; a domain
counts as TLS-capable when the handshake succeeds, and as HSTS-enabled
when it additionally serves a valid HSTS header with ``max-age > 0``.
This prober implements the same decision logic against the synthetic
:class:`~repro.web.server.HostRegistry`; like the paper, it retries with a
``www.`` prefix when the bare name has no web host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.web.hsts import HstsPolicy, parse_hsts_header
from repro.web.server import HostRegistry


@dataclass(frozen=True)
class TlsProbeResult:
    """Outcome of probing a single domain over HTTPS."""

    domain: str
    connected: bool
    tls_capable: bool
    tls_version: Optional[str]
    hsts_policy: Optional[HstsPolicy]

    @property
    def hsts_enabled(self) -> bool:
        """Valid HSTS header with positive max-age (the paper's criterion)."""
        return self.hsts_policy is not None and self.hsts_policy.enabled


class TlsProber:
    """Probe domains for TLS and HSTS support."""

    def __init__(self, registry: HostRegistry, try_www_prefix: bool = True) -> None:
        self._registry = registry
        self._try_www = try_www_prefix

    def probe(self, domain: str) -> TlsProbeResult:
        """Probe one domain; a missing host yields a failed connection."""
        domain = domain.strip().lower().rstrip(".")
        host = self._registry.lookup(domain)
        if host is None and self._try_www and not domain.startswith("www."):
            host = self._registry.lookup("www." + domain)
        if host is None:
            return TlsProbeResult(domain=domain, connected=False, tls_capable=False,
                                  tls_version=None, hsts_policy=None)
        if not host.tls_enabled:
            return TlsProbeResult(domain=domain, connected=True, tls_capable=False,
                                  tls_version=None, hsts_policy=None)
        policy = parse_hsts_header(host.hsts_header)
        return TlsProbeResult(domain=domain, connected=True, tls_capable=True,
                              tls_version=host.tls_version, hsts_policy=policy)

    def probe_all(self, domains: Iterable[str]) -> list[TlsProbeResult]:
        """Probe every domain in ``domains``."""
        return [self.probe(domain) for domain in domains]
