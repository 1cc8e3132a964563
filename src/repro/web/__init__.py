"""Web-layer substrate.

Models the server-side behaviour the paper measures over HTTP(S): TLS
support, HSTS headers, HTTP/2 support, redirects, and CDN usage detectable
through CNAME patterns.  The probers mirror the tools the paper used
(zgrab for TLS, the nghttp2 library for HTTP/2) but talk to the synthetic
:class:`~repro.web.server.WebHost` registry instead of the live Internet.
The probers and the CDN detector decide per name; the per-list shares
(Figure 7, Figure 8, Table 5) are aggregated from their verdicts by
:mod:`repro.measurement`.
"""

from repro.web.cdn import CdnDetector, CdnRule, DEFAULT_CDN_RULES
from repro.web.hsts import HstsPolicy, parse_hsts_header
from repro.web.http2 import Http2ProbeResult, Http2Prober
from repro.web.server import HostRegistry, WebHost
from repro.web.tls import TlsProbeResult, TlsProber

__all__ = [
    "CdnDetector",
    "CdnRule",
    "DEFAULT_CDN_RULES",
    "HostRegistry",
    "HstsPolicy",
    "Http2ProbeResult",
    "Http2Prober",
    "TlsProbeResult",
    "TlsProber",
    "WebHost",
    "parse_hsts_header",
]
