"""Measurement harness (Section 8).

Runs the paper's measurements — DNS record types (NXDOMAIN, IPv6, CAA),
hosting infrastructure (CNAME/CDN, origin AS), TLS/HSTS, and HTTP/2 —
against a *target set* (a top list, a Top-1k head, or the general
population) over the synthetic Internet, and assembles the Table-5-style
comparison of lists against the general population.  Every Table 5
metric is read through one mapping,
:data:`repro.measurement.harness.TABLE5_ROWS`, which the Figure 6/8 time
series share.
"""

from repro.measurement.classify import BlacklistService, MobileTrafficMonitor, classify_disjunct
from repro.measurement.dns_measure import DnsCharacteristics, DnsMeasurement
from repro.measurement.harness import MeasurementHarness, TargetSet
from repro.measurement.http2_measure import Http2Measurement
from repro.measurement.report import build_comparison_table, daily_series
from repro.measurement.tls_measure import TlsCharacteristics, TlsMeasurement

__all__ = [
    "BlacklistService",
    "DnsCharacteristics",
    "DnsMeasurement",
    "Http2Measurement",
    "MeasurementHarness",
    "MobileTrafficMonitor",
    "TargetSet",
    "TlsCharacteristics",
    "TlsMeasurement",
    "build_comparison_table",
    "classify_disjunct",
    "daily_series",
]
