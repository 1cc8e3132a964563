"""DNS substrate.

The paper's measurement pipeline (Section 8.1) resolves every domain in a
top list daily: A/AAAA lookups with CNAME chasing (up to 10 links), CAA
lookups on base domains, and NXDOMAIN accounting as a list-quality proxy.
(The Umbrella-style list is ranked from simulated resolver traffic,
:mod:`repro.population.traffic`, not through this package.)  This
package provides the measurement side:

* record and response-code models (:mod:`repro.dns.records`),
* an authoritative zone database (:mod:`repro.dns.zone`),
* a caching, CNAME-chasing stub resolver (:mod:`repro.dns.resolver`).
"""

from repro.dns.errors import DnsError, ResolutionLoopError
from repro.dns.records import RData, Rcode, RecordType, ResourceRecord
from repro.dns.resolver import CachingResolver, Resolution
from repro.dns.zone import ZoneDatabase

__all__ = [
    "CachingResolver",
    "DnsError",
    "RData",
    "Rcode",
    "RecordType",
    "Resolution",
    "ResolutionLoopError",
    "ResourceRecord",
    "ZoneDatabase",
]
