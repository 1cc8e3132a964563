"""Tests for the origin-AS database."""

import pytest

from repro.dns.zone import ZoneDatabase
from repro.routing.asdb import AsDatabase, AsInfo


@pytest.fixture()
def asdb() -> AsDatabase:
    db = AsDatabase()
    db.announce("23.0.0.0/12", 20940, "Akamai")
    db.announce("104.16.0.0/12", 13335, "Cloudflare")
    db.announce("172.217.0.0/16", 15169, "Google")
    db.announce("2607:f8b0::/32", 15169, "Google")
    db.announce("160.153.0.0/16", 26496, "GoDaddy")
    return db


class TestAsInfo:
    def test_positive_asn_required(self):
        with pytest.raises(ValueError):
            AsInfo(asn=0, name="x")

    def test_str(self):
        assert str(AsInfo(asn=13335, name="Cloudflare")) == "Cloudflare (13335)"


class TestAnnouncements:
    def test_origin_lookup(self, asdb):
        assert asdb.origin("104.16.1.1").asn == 13335
        assert asdb.origin("172.217.5.9").name == "Google"

    def test_ipv6_origin(self, asdb):
        assert asdb.origin("2607:f8b0::1234").asn == 15169

    def test_unannounced_space(self, asdb):
        assert asdb.origin("203.0.113.1") is None
        assert not asdb.is_routed("203.0.113.1")

    def test_is_routed(self, asdb):
        assert asdb.is_routed("23.1.2.3")

    def test_len_counts_prefixes(self, asdb):
        assert len(asdb) == 5

    def test_autonomous_systems_sorted(self, asdb):
        asns = [info.asn for info in asdb.autonomous_systems]
        assert asns == sorted(asns)
        assert 15169 in asns

    def test_name_upgrade(self):
        db = AsDatabase()
        db.announce("10.0.0.0/8", 65000)
        assert db.origin("10.0.0.1").name == "AS65000"
        db.announce("11.0.0.0/8", 65000, "Named")
        assert db.origin("11.0.0.1").name == "Named"

    def test_bulk_announce(self):
        db = AsDatabase()
        count = db.bulk_announce([("10.0.0.0/8", 1, "A"), ("11.0.0.0/8", 2, "B")])
        assert count == 2
        assert db.origin("11.1.1.1").name == "B"


class TestAggregates:
    """The Figure 7d / Table 5 AS statistics over this database's routes.

    They are counted by the DNS measurement (DnsCharacteristics), their
    one implementation: one name per address, mapped to its origin AS.
    """

    @staticmethod
    def _measure(measure_zone, asdb, addresses):
        zone = ZoneDatabase()
        names = [f"site{index}.com" for index in range(len(addresses))]
        for name, address in zip(names, addresses):
            zone.add_address(name, address)
        return measure_zone(zone, names, asdb=asdb)

    def test_origin_counts(self, asdb, measure_zone):
        counts = self._measure(measure_zone, asdb, ["23.0.0.1", "23.0.0.2", "104.16.0.1",
                                                    "203.0.113.1"]).as_counts_v4
        by_name = {info.name: count for info, count in counts.items()}
        assert by_name == {"Akamai": 2, "Cloudflare": 1}

    def test_unique_as_count(self, asdb, measure_zone):
        measured = self._measure(measure_zone, asdb, ["23.0.0.1", "104.16.0.1", "172.217.0.1"])
        assert measured.unique_as_v4 == 3

    def test_top_as_share(self, asdb, measure_zone):
        addresses = ["23.0.0.1"] * 6 + ["104.16.0.1"] * 3 + ["172.217.0.1"]
        measured = self._measure(measure_zone, asdb, addresses)
        shares = measured.top_as(2)
        names = [info.name for info in shares]
        assert names == ["Akamai", "Cloudflare"]
        assert shares[list(shares)[0]] == pytest.approx(0.6)
        assert measured.top_as_share(2) == pytest.approx(90.0)

    def test_top_as_share_empty(self, asdb, measure_zone):
        assert self._measure(measure_zone, asdb, []).top_as() == {}
