"""Routing substrate: prefix matching and origin-AS mapping.

Section 8.1.2 of the paper maps every resolved A record to the Autonomous
System announcing it in BGP (using Route Views data), then studies AS
diversity and the share of the top-5 ASes per list.  This package
provides a longest-prefix-match trie over IPv4/IPv6 prefixes and an AS
database assembled from announced prefixes; the per-list AS counts and
shares themselves are aggregated by
:class:`~repro.measurement.dns_measure.DnsCharacteristics`.
"""

from repro.routing.asdb import AsDatabase, AsInfo
from repro.routing.prefix_trie import IpPrefix, PrefixTrie

__all__ = ["AsDatabase", "AsInfo", "IpPrefix", "PrefixTrie"]
