"""Caching, CNAME-chasing resolver.

The measurement harness (Section 8.1) resolves A/AAAA/CAA for every
domain in a target set, following CNAME chains up to 10 links, exactly
as the paper describes for its IPv6-adoption measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.errors import ResolutionLoopError
from repro.dns.records import DnsResponse, Rcode, RecordType, ResourceRecord
from repro.dns.zone import ZoneDatabase

#: The paper follows chains "of up to 10 CNAMEs".
MAX_CNAME_CHAIN = 10


@dataclass
class Resolution:
    """Result of resolving a name with CNAME chasing."""

    qname: str
    qtype: RecordType
    rcode: Rcode
    addresses: list[str] = field(default_factory=list)
    cname_chain: list[str] = field(default_factory=list)
    records: list[ResourceRecord] = field(default_factory=list)

    @property
    def is_nxdomain(self) -> bool:
        return self.rcode is Rcode.NXDOMAIN

    @property
    def resolved(self) -> bool:
        """True when at least one address of the queried type was found."""
        return bool(self.addresses)


@dataclass
class _CacheEntry:
    response: DnsResponse
    expires_at: float


class CachingResolver:
    """Stub resolver over a :class:`ZoneDatabase` with a TTL-bound cache."""

    def __init__(
        self,
        zone: ZoneDatabase,
        enable_cache: bool = True,
        max_chain: int = MAX_CNAME_CHAIN,
    ) -> None:
        self._zone = zone
        self._cache: dict[tuple[str, RecordType], _CacheEntry] = {}
        self._enable_cache = enable_cache
        self._max_chain = max_chain
        self._clock: float = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock

    def advance_clock(self, seconds: float) -> None:
        """Advance the simulated clock (expires cache entries lazily)."""
        if seconds < 0:
            raise ValueError("cannot move the clock backwards")
        self._clock += seconds

    def flush_cache(self) -> None:
        """Drop all cached responses."""
        self._cache.clear()

    # -- resolution ------------------------------------------------------
    def query(self, qname: str, qtype: RecordType) -> DnsResponse:
        """Answer a single query, consulting the cache first."""
        qname = qname.strip().lower().rstrip(".")
        key = (qname, qtype)
        entry = self._cache.get(key) if self._enable_cache else None
        if entry is not None and entry.expires_at > self._clock:
            self.cache_hits += 1
            return entry.response
        self.cache_misses += 1
        response = self._zone.query(qname, qtype)
        if self._enable_cache:
            ttl = min((r.ttl for r in response.answers), default=60)
            self._cache[key] = _CacheEntry(response=response, expires_at=self._clock + ttl)
        return response

    def resolve(self, qname: str, qtype: RecordType = RecordType.A) -> Resolution:
        """Resolve ``qname`` following CNAME chains up to the configured limit.

        Raises
        ------
        ResolutionLoopError
            If the CNAME chain exceeds the limit (loops included).
        """
        current = qname.strip().lower().rstrip(".")
        chain: list[str] = []
        all_records: list[ResourceRecord] = []
        rcode = Rcode.NOERROR
        addresses: list[str] = []
        seen: set[str] = set()
        for _ in range(self._max_chain + 1):
            response = self.query(current, qtype)
            rcode = response.rcode
            all_records.extend(response.answers)
            if response.rcode is not Rcode.NOERROR:
                break
            cnames = [r for r in response.answers if r.rtype is RecordType.CNAME]
            if cnames and qtype is not RecordType.CNAME:
                target = cnames[0].rdata.target or ""
                if target in seen or target == current:
                    raise ResolutionLoopError(f"CNAME loop at {target}")
                seen.add(current)
                chain.append(target)
                current = target
                continue
            addresses = [r.rdata.address for r in response.answers
                         if r.rtype is qtype and r.rdata.address]
            break
        else:
            raise ResolutionLoopError(
                f"CNAME chain for {qname!r} exceeds {self._max_chain} links")
        return Resolution(qname=qname.strip().lower().rstrip("."), qtype=qtype,
                          rcode=rcode, addresses=addresses, cname_chain=chain,
                          records=all_records)
