"""DNS measurements over a target set (Section 8.1).

For every target name the measurement resolves A and AAAA records
(following CNAME chains of up to 10 links, like the paper), checks CAA on
the base domain, detects CDN use from the CNAME chain of the raw and
www-prefixed name, and maps resolved IPv4/IPv6 addresses to their origin
AS.  The aggregate result carries every DNS-derived number appearing in
Table 5 and Figures 6 and 7.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.dns.records import RecordType
from repro.dns.resolver import CachingResolver, Resolution
from repro.domain.name import DomainName
from repro.domain.psl import PublicSuffixList
from repro.population.internet import SyntheticInternet
from repro.routing.asdb import AsDatabase, AsInfo
from repro.stats.summary import share
from repro.web.cdn import CdnDetector


@dataclass
class DnsCharacteristics:
    """Aggregated DNS characteristics of one target set on one day."""

    target: str
    total: int
    nxdomain: int = 0
    ipv6_enabled: int = 0
    caa_enabled: int = 0
    cname: int = 0
    cdn: int = 0
    cdn_providers: Counter = field(default_factory=Counter)
    as_counts_v4: Counter = field(default_factory=Counter)
    as_counts_v6: Counter = field(default_factory=Counter)

    def share(self, attribute: str) -> float:
        """Percentage share of ``attribute`` (e.g. ``"nxdomain"``) of the total."""
        return share(getattr(self, attribute), self.total)

    @property
    def nxdomain_share(self) -> float:
        return self.share("nxdomain")

    @property
    def ipv6_share(self) -> float:
        return self.share("ipv6_enabled")

    @property
    def caa_share(self) -> float:
        return self.share("caa_enabled")

    @property
    def cname_share(self) -> float:
        return self.share("cname")

    @property
    def cdn_share(self) -> float:
        return self.share("cdn")

    @property
    def unique_as_v4(self) -> int:
        return len(self.as_counts_v4)

    @property
    def unique_as_v6(self) -> int:
        return len(self.as_counts_v6)

    def top_as_share(self, top_n: int = 5) -> float:
        """Share (percent of mapped names) of the ``top_n`` IPv4 origin ASes."""
        top = sum(count for _, count in self.as_counts_v4.most_common(top_n))
        return share(top, sum(self.as_counts_v4.values()))

    def top_as(self, top_n: int = 5) -> Mapping[AsInfo, float]:
        """The ``top_n`` IPv4 origin ASes and their shares (fraction)."""
        total = sum(self.as_counts_v4.values())
        if total == 0:
            return {}
        return {info: count / total
                for info, count in self.as_counts_v4.most_common(top_n)}

    def top_cdns(self, top_n: int = 5) -> Mapping[str, float]:
        """The ``top_n`` CDN providers and their share of CDN-hosted names."""
        total = sum(self.cdn_providers.values())
        if total == 0:
            return {}
        return {provider: count / total
                for provider, count in self.cdn_providers.most_common(top_n)}


class DnsMeasurement:
    """Measure DNS characteristics of target names against a zone/AS database."""

    def __init__(self, internet: SyntheticInternet,
                 cdn_detector: Optional[CdnDetector] = None,
                 psl: Optional[PublicSuffixList] = None) -> None:
        self.internet = internet
        self.resolver = CachingResolver(internet.zone, enable_cache=False)
        self.asdb: AsDatabase = internet.asdb
        self.cdn_detector = cdn_detector or CdnDetector()
        self.psl = psl or internet.psl

    def _resolve(self, name: str, rtype: RecordType) -> Resolution:
        return self.resolver.resolve(name, rtype)

    def measure(self, names: Iterable[str], target: str = "targets") -> DnsCharacteristics:
        """Measure all ``names``; the name list defines the denominator."""
        names = list(names)
        result = DnsCharacteristics(target=target, total=len(names))
        for name in names:
            self._measure_one(name, result)
        return result

    def _measure_one(self, name: str, result: DnsCharacteristics) -> None:
        parsed = DomainName.parse(name, psl=self.psl)
        a_resolution = self._resolve(name, RecordType.A)
        if a_resolution.is_nxdomain:
            result.nxdomain += 1
            return
        aaaa_resolution = self._resolve(name, RecordType.AAAA)
        routed_v6 = [addr for addr in aaaa_resolution.addresses
                     if self.asdb.is_routed(addr)]
        if routed_v6:
            result.ipv6_enabled += 1
        # CAA is checked on the base domain, as CAs do (Section 8.1.1).
        caa_target = parsed.base or parsed.name
        caa_resolution = self._resolve(caa_target, RecordType.CAA)
        if any(r.rtype is RecordType.CAA and r.rdata.caa_tag in ("issue", "issuewild")
               for r in caa_resolution.records):
            result.caa_enabled += 1
        # CNAME / CDN detection on the raw and the www-prefixed name.
        chain = list(a_resolution.cname_chain)
        if parsed.depth == 0:
            www_resolution = self._resolve(f"www.{parsed.name}", RecordType.A)
            chain.extend(www_resolution.cname_chain)
        if chain:
            result.cname += 1
            provider = self.cdn_detector.detect_chain(chain)
            if provider is not None:
                result.cdn += 1
                result.cdn_providers[provider] += 1
        # Origin-AS mapping of the first resolved address of each family.
        if a_resolution.addresses:
            origin = self.asdb.origin(a_resolution.addresses[0])
            if origin is not None:
                result.as_counts_v4[origin] += 1
        if routed_v6:
            origin_v6 = self.asdb.origin(routed_v6[0])
            if origin_v6 is not None:
                result.as_counts_v6[origin_v6] += 1
