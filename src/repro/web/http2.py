"""HTTP/2 prober (nghttp2-style).

Section 8.3: the paper fetches each domain's landing page with the
nghttp2 library, follows up to 10 redirects, and counts the domain as
HTTP/2-enabled only when landing-page data is actually transferred over
HTTP/2.  The prober reproduces that logic over the synthetic host
registry, including redirect chasing and the "data actually transferred"
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.web.server import HostRegistry

#: The paper follows "up to 10 redirects".
MAX_REDIRECTS = 10


@dataclass(frozen=True)
class Http2ProbeResult:
    """Outcome of probing a single domain for HTTP/2 support."""

    domain: str
    connected: bool
    http2_enabled: bool
    final_domain: Optional[str] = None
    redirects_followed: int = 0
    redirect_chain: tuple[str, ...] = field(default_factory=tuple)


class Http2Prober:
    """Probe domains for effective HTTP/2 support, following redirects."""

    def __init__(self, registry: HostRegistry, max_redirects: int = MAX_REDIRECTS,
                 try_www_prefix: bool = True) -> None:
        if max_redirects < 0:
            raise ValueError("max_redirects must be non-negative")
        self._registry = registry
        self._max_redirects = max_redirects
        self._try_www = try_www_prefix

    def probe(self, domain: str) -> Http2ProbeResult:
        """Probe one domain, following redirects up to the limit."""
        start = domain.strip().lower().rstrip(".")
        current = start
        host = self._registry.lookup(current)
        if host is None and self._try_www and not current.startswith("www."):
            host = self._registry.lookup("www." + current)
        if host is None:
            return Http2ProbeResult(domain=start, connected=False, http2_enabled=False)
        chain: list[str] = []
        redirects = 0
        visited = {host.domain}
        while host.redirect_to and redirects < self._max_redirects:
            target = host.redirect_to.strip().lower().rstrip(".")
            next_host = self._registry.lookup(target)
            if next_host is None or next_host.domain in visited:
                break
            chain.append(target)
            visited.add(next_host.domain)
            host = next_host
            redirects += 1
        enabled = bool(host.http2_enabled and host.tls_enabled and host.serves_content)
        return Http2ProbeResult(domain=start, connected=True, http2_enabled=enabled,
                                final_domain=host.domain, redirects_followed=redirects,
                                redirect_chain=tuple(chain))

    def probe_all(self, domains: Iterable[str]) -> list[Http2ProbeResult]:
        """Probe every domain in ``domains``."""
        return [self.probe(domain) for domain in domains]
