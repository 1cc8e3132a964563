"""TLS and HSTS measurements over a target set (Section 8.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.population.internet import SyntheticInternet
from repro.stats.summary import share
from repro.web.tls import TlsProber


@dataclass(frozen=True)
class TlsCharacteristics:
    """Aggregated TLS/HSTS characteristics of one target set."""

    target: str
    total: int
    tls_capable: int
    hsts_enabled: int

    @property
    def tls_share(self) -> float:
        """Percentage of targets with a successful TLS handshake."""
        return share(self.tls_capable, self.total)

    @property
    def hsts_share_of_tls(self) -> float:
        """Percentage of TLS-capable targets serving a valid HSTS header.

        Matches Table 5, which reports HSTS "out of the TLS-enabled
        domains".
        """
        return share(self.hsts_enabled, self.tls_capable)


class TlsMeasurement:
    """zgrab-style TLS/HSTS measurement against the synthetic web hosts."""

    def __init__(self, internet: SyntheticInternet, prober: Optional[TlsProber] = None) -> None:
        self.internet = internet
        self.prober = prober or TlsProber(internet.hosts)

    def measure(self, names: Iterable[str], target: str = "targets") -> TlsCharacteristics:
        """Probe every name for TLS and (over TLS) HSTS support."""
        names = list(names)
        tls_capable = 0
        hsts_enabled = 0
        for name in names:
            result = self.prober.probe(name)
            if result.tls_capable:
                tls_capable += 1
                if result.hsts_enabled:
                    hsts_enabled += 1
        return TlsCharacteristics(target=target, total=len(names),
                                  tls_capable=tls_capable, hsts_enabled=hsts_enabled)
