"""Measurement harness: target sets and the combined per-target measurement.

A :class:`TargetSet` is the unit the paper measures: a top list (or its
Top-1k head) downloaded on a given day, or the general population of
com/net/org domains.  The :class:`MeasurementHarness` runs all DNS, TLS
and HTTP/2 measurements of Section 8 against a target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.measurement.dns_measure import DnsCharacteristics, DnsMeasurement
from repro.measurement.http2_measure import Http2Characteristics, Http2Measurement
from repro.measurement.tls_measure import TlsCharacteristics, TlsMeasurement
from repro.population.internet import SyntheticInternet
from repro.population.zonefile import ZoneFile
from repro.providers.base import ListSnapshot


@dataclass(frozen=True)
class TargetSet:
    """A named set of domains to measure."""

    name: str
    domains: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError("target set must not be empty")

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    @classmethod
    def from_snapshot(cls, snapshot: ListSnapshot, top_n: Optional[int] = None,
                      name: Optional[str] = None) -> "TargetSet":
        """Build a target set from a list snapshot (optionally its head)."""
        entries = snapshot.entries if top_n is None else snapshot.entries[:top_n]
        label = name or (f"{snapshot.provider}-{top_n}" if top_n else snapshot.provider)
        return cls(name=label, domains=tuple(entries))

    @classmethod
    def from_zonefile(cls, zonefile: ZoneFile, sample: Optional[int] = None,
                      seed: Optional[int] = 0, name: str = "com/net/org") -> "TargetSet":
        """Build the general-population target (optionally subsampled)."""
        names = zonefile.sample(sample, seed=seed) if sample else zonefile.names
        return cls(name=name, domains=tuple(names))

    @classmethod
    def from_names(cls, names: Iterable[str], name: str = "targets") -> "TargetSet":
        """Build a target set from an arbitrary collection of names."""
        return cls(name=name, domains=tuple(names))


#: Table 5's rows in paper order: metric name -> (row label, the
#: :class:`MeasurementReport` field the metric reads, its value from that
#: field).  The field name also names the harness's partial measurement
#: (``measure_dns`` ...), so daily time series measure only what they read.
TABLE5_ROWS: dict[str, tuple[str, str, Callable[[Any], float]]] = {
    "nxdomain": ("NXDOMAIN", "dns", lambda dns: dns.nxdomain_share),
    "ipv6": ("IPv6-enabled", "dns", lambda dns: dns.ipv6_share),
    "caa": ("CAA-enabled", "dns", lambda dns: dns.caa_share),
    "cname": ("CNAMEs", "dns", lambda dns: dns.cname_share),
    "cdn": ("CDNs (via CNAME)", "dns", lambda dns: dns.cdn_share),
    "unique_as_v4": ("Unique AS IPv4", "dns", lambda dns: float(dns.unique_as_v4)),
    "unique_as_v6": ("Unique AS IPv6", "dns", lambda dns: float(dns.unique_as_v6)),
    "top5_as": ("Top 5 AS (Share)", "dns", lambda dns: dns.top_as_share(5)),
    "tls": ("TLS-capable", "tls", lambda tls: tls.tls_share),
    "hsts": ("HSTS-enabled HTTPS", "tls", lambda tls: tls.hsts_share_of_tls),
    "http2": ("HTTP2", "http2", lambda http2: http2.adoption_share),
}

#: The Table 5 metric names, in row order.
TABLE5_METRICS: tuple[str, ...] = tuple(TABLE5_ROWS)


@dataclass
class MeasurementReport:
    """All Section-8 measurements of one target set."""

    target: str
    dns: DnsCharacteristics
    tls: TlsCharacteristics
    http2: Http2Characteristics

    def metric(self, name: str) -> float:
        """Look up a metric by its Table 5 name (a key of :data:`TABLE5_ROWS`)."""
        _, part, value = TABLE5_ROWS[name]
        return value(getattr(self, part))


class MeasurementHarness:
    """Runs the Section-8 measurement suite against target sets."""

    def __init__(self, internet: SyntheticInternet) -> None:
        self.internet = internet
        self.dns = DnsMeasurement(internet)
        self.tls = TlsMeasurement(internet)
        self.http2 = Http2Measurement(internet)

    def measure_dns(self, target: TargetSet) -> DnsCharacteristics:
        """DNS-only measurement (cheaper; used for daily time series)."""
        return self.dns.measure(target.domains, target=target.name)

    def measure_tls(self, target: TargetSet) -> TlsCharacteristics:
        """TLS/HSTS-only measurement."""
        return self.tls.measure(target.domains, target=target.name)

    def measure_http2(self, target: TargetSet) -> Http2Characteristics:
        """HTTP/2-only measurement."""
        return self.http2.measure(target.domains, target=target.name)

    def measure(self, target: TargetSet) -> MeasurementReport:
        """Run every measurement against ``target``."""
        return MeasurementReport(
            target=target.name,
            dns=self.measure_dns(target),
            tls=self.measure_tls(target),
            http2=self.measure_http2(target),
        )
