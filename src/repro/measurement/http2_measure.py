"""HTTP/2 adoption measurements over a target set (Section 8.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.population.internet import SyntheticInternet
from repro.stats.summary import share
from repro.web.http2 import Http2Prober


@dataclass(frozen=True)
class Http2Characteristics:
    """Aggregated HTTP/2 adoption of one target set."""

    target: str
    total: int
    http2_enabled: int

    @property
    def adoption_share(self) -> float:
        """Percentage of targets serving their landing page over HTTP/2."""
        return share(self.http2_enabled, self.total)


class Http2Measurement:
    """nghttp2-style HTTP/2 probing against the synthetic web hosts."""

    def __init__(self, internet: SyntheticInternet, prober: Optional[Http2Prober] = None) -> None:
        self.internet = internet
        self.prober = prober or Http2Prober(internet.hosts)

    def measure(self, names: Iterable[str], target: str = "targets") -> Http2Characteristics:
        """Probe every name; redirects are followed, data must flow over h2."""
        names = list(names)
        enabled = sum(1 for name in names if self.prober.probe(name).http2_enabled)
        return Http2Characteristics(target=target, total=len(names), http2_enabled=enabled)
