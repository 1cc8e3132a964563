"""CDN detection from CNAME patterns.

The paper identifies CDN use by matching the CNAME records observed during
DNS resolution against a list of CNAME suffix patterns for 77 CDNs (the
WebPagetest ``cdn.h`` ruleset).  This module ships an equivalent ruleset
covering the CDNs the paper's Figure 7b/c names (Akamai, Google, Fastly,
Incapsula, Amazon/CloudFront, WordPress, Facebook, Instart, Zenedge,
Highwinds, ChinaNetCenter) plus further common providers, and a detector
that classifies a CNAME chain.  The Figure 7 shares built from the
detector's verdicts live in
:class:`~repro.measurement.dns_measure.DnsCharacteristics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class CdnRule:
    """A CNAME-suffix rule identifying one CDN provider."""

    provider: str
    suffixes: tuple[str, ...]

    def matches(self, name: str) -> bool:
        """Return whether ``name`` ends with one of the rule's suffixes."""
        name = name.lower().rstrip(".")
        return any(name == s or name.endswith("." + s) for s in self.suffixes)


#: WebPagetest-cdn.h-style ruleset (suffix -> provider), covering the CDNs
#: named in the paper's evaluation plus other widespread providers.
DEFAULT_CDN_RULES: tuple[CdnRule, ...] = (
    CdnRule("Akamai", ("akamaiedge.net", "akamai.net", "akamaized.net",
                       "edgesuite.net", "edgekey.net", "akadns.net")),
    CdnRule("Google", ("googlehosted.com", "googleusercontent.com",
                       "ghs.google.com", "ghs.googlehosted.com",
                       "googlesyndication.com", "gvt1.com", "appspot.com")),
    CdnRule("Fastly", ("fastly.net", "fastlylb.net")),
    CdnRule("Incapsula", ("incapdns.net",)),
    CdnRule("Amazon", ("cloudfront.net", "awsglobalaccelerator.com",
                       "elasticbeanstalk.com", "amazonaws.com")),
    CdnRule("WordPress", ("wordpress.com", "wp.com")),
    CdnRule("Facebook", ("fbcdn.net", "facebook.com.edgekey.net")),
    CdnRule("Instart", ("insnw.net", "instartlogic.com")),
    CdnRule("Zenedge", ("zenedge.net",)),
    CdnRule("Highwinds", ("hwcdn.net",)),
    CdnRule("CHN Net", ("wscdns.com", "chinanetcenter.com", "wswebcdn.com")),
    CdnRule("Cloudflare", ("cloudflare.net", "cdn.cloudflare.net")),
    CdnRule("Microsoft Azure", ("azureedge.net", "azurewebsites.net",
                                "msedge.net", "trafficmanager.net")),
    CdnRule("CDN77", ("cdn77.net", "cdn77.org")),
    CdnRule("KeyCDN", ("kxcdn.com",)),
    CdnRule("StackPath", ("stackpathdns.com", "netdna-cdn.com")),
    CdnRule("Limelight", ("llnwd.net",)),
    CdnRule("EdgeCast", ("edgecastcdn.net", "systemcdn.net")),
    CdnRule("CDNetworks", ("cdngc.net", "gccdn.net")),
    CdnRule("Sucuri", ("sucuri.net",)),
    CdnRule("BunnyCDN", ("b-cdn.net",)),
    CdnRule("jsDelivr", ("jsdelivr.net",)),
    CdnRule("Alibaba", ("alikunlun.com", "kunlunca.com", "alicdn.com")),
    CdnRule("Tencent", ("cdntip.com", "qcloudcdn.com")),
    CdnRule("Automattic", ("pressdns.com",)),
    CdnRule("Netlify", ("netlify.com", "netlify.app")),
    CdnRule("GitHub Pages", ("github.io", "githubusercontent.com")),
    CdnRule("Vercel", ("vercel-dns.com", "zeit.world")),
)


class CdnDetector:
    """Classify CNAME chains into CDN providers."""

    def __init__(self, rules: Optional[Iterable[CdnRule]] = None) -> None:
        self._rules: tuple[CdnRule, ...] = tuple(rules) if rules is not None else DEFAULT_CDN_RULES
        if not self._rules:
            raise ValueError("at least one CDN rule is required")

    @property
    def providers(self) -> list[str]:
        """Names of all providers known to the detector."""
        return [rule.provider for rule in self._rules]

    def detect_name(self, name: str) -> Optional[str]:
        """Return the provider whose suffix matches ``name``, if any."""
        for rule in self._rules:
            if rule.matches(name):
                return rule.provider
        return None

    def detect_chain(self, cname_chain: Sequence[str]) -> Optional[str]:
        """Return the first provider matched anywhere in a CNAME chain."""
        for name in cname_chain:
            provider = self.detect_name(name)
            if provider is not None:
                return provider
        return None
