"""Tests for the interned-domain columnar core (:mod:`repro.interning`).

Three groups:

* property-based round trips through the interner (domain ↔ id must be a
  bijection, stable under re-interning and arbitrary interleaving);
* the PSL-version-stamped base-id column (parity with the string
  normalisation rule, invalidation on ``add_rule``);
* id-lane vs string-lane parity of the set operations on real scenario
  archives (the columnar fast paths must count exactly what the string
  pipeline counts).
"""

from __future__ import annotations

import datetime as dt
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import archive_base_id_sets, snapshot_base_ids
from repro.core.intersection import intersection_over_time
from repro.core.structure import normalise_to_base_domains
from repro.domain.psl import PublicSuffixList
from repro.interning import DomainInterner, base_of, default_interner
from repro.providers.base import ListArchive, ListSnapshot

START = dt.date(2018, 4, 1)

_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                 min_size=1, max_size=8).filter(
    lambda s: not s.startswith("-") and not s.endswith("-"))
_DOMAIN = st.builds(".".join, st.lists(_LABEL, min_size=1, max_size=4))


class TestInternerRoundTrip:
    @given(st.lists(_DOMAIN, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_domain_id_bijection(self, names):
        interner = DomainInterner()
        ids = [interner.intern(name) for name in names]
        # Same string -> same id; different string -> different id.
        for name, domain_id in zip(names, ids):
            assert interner.intern(name) == domain_id
            assert interner.domain(domain_id) == name
            assert interner.id_of(name) == domain_id
        assert len({interner.intern(n) for n in set(names)}) == len(set(names))
        # intern_many round-trips the full (ordered, possibly repeating) list.
        column = interner.intern_many(names)
        assert list(column) == ids
        assert interner.domains(column) == tuple(names)

    @given(st.lists(_DOMAIN, min_size=1, max_size=30),
           st.lists(_DOMAIN, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_ids_stable_under_interleaving(self, first, second):
        # Interning more names never changes ids handed out earlier.
        interner = DomainInterner()
        before = {name: interner.intern(name) for name in first}
        interner.intern_many(second)
        for name, domain_id in before.items():
            assert interner.intern(name) == domain_id

    def test_ids_are_dense_and_boxed_ints_shared(self):
        interner = DomainInterner()
        ids = [interner.intern(f"d{i}.com") for i in range(100)]
        assert ids == list(range(100))
        assert len(interner) == 100
        id_set_a = interner.id_set(interner.intern_many(["d3.com", "d7.com"]))
        id_set_b = interner.id_set(interner.intern_many(["d3.com", "d99.com"]))
        (shared,) = id_set_a & id_set_b
        # The boxed int object is the interner's shared one, not a fresh box.
        assert any(member is interner.boxed[3] for member in id_set_a)
        assert shared == 3

    def test_unknown_lookups(self):
        interner = DomainInterner()
        assert interner.id_of("never-seen.example") is None
        assert "never-seen.example" not in interner
        with pytest.raises(IndexError):
            interner.domain(12345)


class TestBaseIdColumn:
    @given(st.lists(_DOMAIN, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_parity_with_string_normalisation(self, names):
        interner = DomainInterner()
        psl = PublicSuffixList()
        column = interner.base_column(psl)
        for name in names:
            domain_id = interner.intern(name)
            assert interner.domain(column.base_id(domain_id)) == base_of(name, psl)

    def test_matches_pipeline_rule(self):
        interner = DomainInterner()
        psl = PublicSuffixList()
        column = interner.base_column(psl)
        for name, expected in [("www.net.in.tum.de", "tum.de"),
                               ("a.b.blogspot.com", "b.blogspot.com"),
                               ("co.uk", "co.uk"),       # bare suffix maps to itself
                               ("example.co.uk", "example.co.uk")]:
            assert interner.domain(column.base_id(interner.intern(name))) == expected

    def test_psl_bump_invalidates_column(self):
        interner = DomainInterner()
        psl = PublicSuffixList(["com"])
        domain_id = interner.intern("a.faketld.zz")
        before = interner.base_column(psl)
        assert interner.domain(before.base_id(domain_id)) == "faketld.zz"
        psl.add_rule("faketld.zz")
        after = interner.base_column(psl)
        # New rule-set version => new column object, recomputed answer,
        # and the superseded generation is evicted rather than retained.
        assert after is not before
        assert after.psl_key == psl.cache_key
        assert interner.domain(after.base_id(domain_id)) == "a.faketld.zz"
        assert list(interner._base_columns) == [psl.cache_key]

    def test_seed_installs_only_unresolved(self):
        interner = DomainInterner()
        psl = PublicSuffixList()
        column = interner.base_column(psl)
        name_id = interner.intern("www.seeded.com")
        base_id = interner.intern("seeded.com")
        column.seed(name_id, base_id)
        assert column.base_id(name_id) == base_id
        # A second seed with a wrong value must not override.
        column.seed(name_id, name_id)
        assert column.base_id(name_id) == base_id

    def test_malformed_names_resolved_lazily(self):
        # Interning must accept any string; only resolving its base may
        # raise (and only when an analysis actually asks).
        interner = DomainInterner()
        psl = PublicSuffixList()
        bad_id = interner.intern("bad..name")
        column = interner.base_column(psl)
        ok_id = interner.intern("fine.com")
        assert column.base_id(ok_id) == ok_id
        with pytest.raises(ValueError):
            column.base_id(bad_id)


class TestColumnarSnapshot:
    def test_from_ids_is_stringless_until_asked(self):
        interner = default_interner()
        ids = interner.intern_many(["lazy-a.com", "lazy-b.com", "lazy-c.com"])
        snapshot = ListSnapshot.from_ids("alexa", START, ids)
        assert "_entries" not in snapshot.__dict__
        assert len(snapshot) == 3
        assert list(snapshot.entry_ids()) == list(ids)
        # Materialisation on demand, then cached.
        assert snapshot.entries == ("lazy-a.com", "lazy-b.com", "lazy-c.com")
        assert snapshot.entries is snapshot.entries

    def test_equality_and_hash_match_string_identity(self):
        a = ListSnapshot("alexa", START, ("x.com", "y.com"))
        b = ListSnapshot.from_ids(
            "alexa", START, default_interner().intern_many(["x.com", "y.com"]))
        c = ListSnapshot("alexa", START, ("y.com", "x.com"))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_top_slices_share_id_column_prefix(self):
        snapshot = ListSnapshot("alexa", START, tuple(f"t{i}.com" for i in range(10)))
        head = snapshot.top(4)
        assert list(head.entry_ids()) == list(snapshot.entry_ids()[:4])
        assert head.rank_of("t2.com") == 3
        assert head.rank_of("t9.com") is None

    def test_immutability(self):
        snapshot = ListSnapshot("alexa", START, ("x.com",))
        with pytest.raises(AttributeError):
            snapshot.provider = "other"
        with pytest.raises(AttributeError):
            del snapshot.date

    def test_pickle_round_trip_re_interns(self):
        snapshot = ListSnapshot("alexa", START, ("p.com", "q.net", "www.r.co.uk"))
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot
        assert clone.entries == snapshot.entries
        assert clone.rank_of("q.net") == 2


class TestIdStringSetOpParity:
    """Id-based vs string-based set operations on scenario archives."""

    @pytest.fixture(scope="class")
    def archives(self, small_run):
        return small_run.archives

    def test_snapshot_sets_biject(self, archives):
        interner = default_interner()
        for archive in archives.values():
            for snapshot in list(archive)[:3]:
                assert frozenset(interner.domains(snapshot.id_set())) == \
                    snapshot.domain_set()
                assert frozenset(interner.domains(snapshot_base_ids(snapshot))) == \
                    frozenset(normalise_to_base_domains(snapshot.entries))

    @pytest.mark.parametrize("top_n", [None, 60])
    def test_archive_base_sets_biject(self, archives, top_n):
        interner = default_interner()
        archive = archives["alexa"]
        id_sets = archive_base_id_sets(archive, top_n=top_n)
        assert list(id_sets) == archive.dates()
        for snapshot in archive:
            head = snapshot.top(top_n) if top_n else snapshot
            assert frozenset(interner.domains(id_sets[snapshot.date])) == \
                frozenset(normalise_to_base_domains(head.entries))

    @pytest.mark.parametrize("normalise", [True, False])
    def test_intersection_counts_match_string_reference(self, archives, normalise):
        # The id lane's counts must equal intersecting the string sets.
        series = intersection_over_time(archives, top_n=80, normalise=normalise)
        for date, matrix in list(series.items())[:5]:
            for names, count in matrix.items():
                sets = []
                for name in names:
                    head = archives[name][date].top(80)
                    sets.append(normalise_to_base_domains(head.entries)
                                if normalise else head.domain_set())
                expected = set.intersection(*(set(s) for s in sets))
                assert count == len(expected), (date, names)
