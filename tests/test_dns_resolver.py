"""Tests for the caching, CNAME-chasing resolver."""

import pytest

from repro.dns.errors import ResolutionLoopError
from repro.dns.records import RecordType
from repro.dns.resolver import CachingResolver
from repro.dns.zone import ZoneDatabase


@pytest.fixture()
def zone() -> ZoneDatabase:
    db = ZoneDatabase()
    db.add_address("direct.example", "192.0.2.1")
    db.add_address("direct.example", "2001:db8::1")
    db.add_cname("www.site.example", "edge.cdn.example")
    db.add_cname("edge.cdn.example", "pop.cdn.example")
    db.add_address("pop.cdn.example", "198.51.100.7", ttl=60)
    # A CNAME loop.
    db.add_cname("loop-a.example", "loop-b.example")
    db.add_cname("loop-b.example", "loop-a.example")
    return db


class TestResolve:
    def test_direct_a(self, zone):
        resolver = CachingResolver(zone)
        resolution = resolver.resolve("direct.example", RecordType.A)
        assert resolution.resolved
        assert resolution.addresses == ["192.0.2.1"]
        assert resolution.cname_chain == []

    def test_aaaa(self, zone):
        resolver = CachingResolver(zone)
        resolution = resolver.resolve("direct.example", RecordType.AAAA)
        assert resolution.addresses == ["2001:db8::1"]

    def test_cname_chain_followed(self, zone):
        resolver = CachingResolver(zone)
        resolution = resolver.resolve("www.site.example", RecordType.A)
        assert resolution.addresses == ["198.51.100.7"]
        assert resolution.cname_chain == ["edge.cdn.example", "pop.cdn.example"]

    def test_nxdomain(self, zone):
        resolver = CachingResolver(zone)
        resolution = resolver.resolve("missing.example", RecordType.A)
        assert resolution.is_nxdomain
        assert not resolution.resolved

    def test_cname_loop_raises(self, zone):
        resolver = CachingResolver(zone)
        with pytest.raises(ResolutionLoopError):
            resolver.resolve("loop-a.example", RecordType.A)

    def test_chain_limit(self, zone):
        # A chain of 3 links with a limit of 1 must be rejected.
        resolver = CachingResolver(zone, max_chain=1)
        with pytest.raises(ResolutionLoopError):
            resolver.resolve("www.site.example", RecordType.A)


class TestCache:
    def test_cache_hit_counted(self, zone):
        resolver = CachingResolver(zone)
        resolver.query("direct.example", RecordType.A)
        resolver.query("direct.example", RecordType.A)
        assert resolver.cache_hits == 1
        assert resolver.cache_misses == 1

    def test_cache_expires_with_ttl(self, zone):
        resolver = CachingResolver(zone)
        resolver.query("pop.cdn.example", RecordType.A)
        resolver.advance_clock(61)  # TTL of that record is 60 seconds
        resolver.query("pop.cdn.example", RecordType.A)
        assert resolver.cache_misses == 2

    def test_cache_disabled(self, zone):
        resolver = CachingResolver(zone, enable_cache=False)
        resolver.query("direct.example", RecordType.A)
        resolver.query("direct.example", RecordType.A)
        assert resolver.cache_hits == 0

    def test_flush_cache(self, zone):
        resolver = CachingResolver(zone)
        resolver.query("direct.example", RecordType.A)
        resolver.flush_cache()
        resolver.query("direct.example", RecordType.A)
        assert resolver.cache_misses == 2

    def test_clock_cannot_move_backwards(self, zone):
        resolver = CachingResolver(zone)
        with pytest.raises(ValueError):
            resolver.advance_clock(-1)

