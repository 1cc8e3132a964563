"""The scale-preset test matrix: one oracle suite, run at named sizes.

Every test here is written against a :class:`~repro.scale.ScaleConfig`
and parameterised over presets, so the *same* store/index/API oracles
that run on fixture-sized corpora in tier-1 also run — behind the
``scale`` marker (``make test-scale``) — on the 100k-entry
``paper_bench`` corpus, where chunk-granularity and accidental
O(day)-materialisation bugs actually surface.  The unparameterised
classes at the bottom pin the preset registry itself: the values the
CLI's ``--tiny`` historically meant, the synthetic generator's
determinism, and the refusal to *simulate* synthetic-only scales.
"""

import gc
import random
import statistics
import time
import tracemalloc
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.intersection import intersection_over_time
from repro.core.stability import (cumulative_unique_domains, days_in_list,
                                  mean_daily_change, new_domains_per_day)
from repro.interning import default_interner
from repro.scale import (ScaleConfig, ScaleError, get_scale, scale_names,
                         synthetic_archive, synthetic_archives, universe_ids)
from repro.scenarios.profiles import get_profile
from repro.service.api import QueryService
from repro.service.index import DomainIndex
from repro.service.store import ArchiveStore

PRESETS = ["tiny", pytest.param("paper_bench", marks=pytest.mark.scale)]


@pytest.fixture(scope="module", params=PRESETS)
def corpus(request, tmp_path_factory):
    """A preset's synthetic corpus, persisted once per module."""
    scale = get_scale(request.param)
    archives = synthetic_archives(scale)
    root = tmp_path_factory.mktemp(f"matrix-{scale.name}") / "store"
    store = ArchiveStore.from_archives(root, archives)
    yield SimpleNamespace(scale=scale, archives=archives, store=store,
                          root=root)
    store.close()


def _index_from_store(store: ArchiveStore) -> DomainIndex:
    """One ``DomainIndex.add`` per stored provider's loaded archive."""
    index = DomainIndex()
    for provider in store.providers():
        index.add(store.load_archive(provider))
    return index


class TestStoreOracles:
    def test_every_day_round_trips_byte_exact(self, corpus):
        for provider, archive in corpus.archives.items():
            assert corpus.store.dates(provider) == [s.date for s in archive]
            for snapshot in archive:
                loaded = corpus.store.load_snapshot(provider, snapshot.date)
                assert bytes(loaded.entry_ids()) == bytes(snapshot.entry_ids())


class TestIndexOracles:
    def test_index_from_store_matches_brute_archive_scan(self, corpus):
        index = _index_from_store(corpus.store)
        interner = default_interner()
        rng = random.Random(f"matrix:{corpus.scale.name}")
        for provider, archive in corpus.archives.items():
            assert index.dates(provider) == [s.date for s in archive]
            last = archive[len(archive) - 1]
            first = archive[0]
            # Sampled present domains plus one dropped on day 0 (if the
            # scale churns at all, day 0's head start loses members).
            probes = {last.entry_ids()[rng.randrange(len(last))]
                      for _ in range(5)}
            dropped = set(interner.id_set(first.entry_ids())) - \
                set(interner.id_set(last.entry_ids()))
            if dropped:
                probes.add(min(dropped))
            for gid in probes:
                name = interner.domain(gid)
                expected = []
                for snapshot in archive:
                    column = array_of(snapshot.entry_ids())
                    try:
                        expected.append(
                            (snapshot.date, column.index(gid) + 1))
                    except ValueError:
                        pass
                assert index.history(name, provider) == expected
                assert index.longevity(name, provider).days_listed == \
                    len(expected)


def array_of(ids):
    """A concrete uint32 array copy of an id column (memoryview-safe)."""
    return array("I", ids)


class TestApiOracles:
    ROUTES = ("/v1/meta",)

    def _routes(self, corpus):
        interner = default_interner()
        first_provider = sorted(corpus.archives)[0]
        last = corpus.archives[first_provider][
            len(corpus.archives[first_provider]) - 1]
        name = interner.domain(last.entry_ids()[0])
        routes = ["/v1/meta", f"/v1/domains/{name}/history"]
        routes += [f"/v1/providers/{p}/stability"
                   for p in sorted(corpus.archives)]
        return routes

    def test_payloads_identical_across_store_reopen(self, corpus):
        """A reopened store serves byte-identical API payloads.

        This is the end-to-end laziness check: everything the first
        service answered from in-memory archives, the second answers
        from chunked shards replayed off disk.
        """
        service = QueryService(corpus.store)
        with ArchiveStore(corpus.root) as reopened:
            cold = QueryService(reopened)
            for route in self._routes(corpus):
                warm_response = service.handle_request(route)
                cold_response = cold.handle_request(route)
                assert warm_response.status == 200, route
                assert cold_response.status == 200, route
                assert warm_response.body == cold_response.body, route


class TestMemoryCeilings:
    """tracemalloc ceilings at preset scale (the budget in the config).

    The budgets are generous against healthy behaviour (paper_bench's
    battery peaks ~35 MB against a 512 MB budget) but catch the failure
    modes this PR is about: an index build or analysis battery that
    materialises day-sized Python structures per snapshot blows through
    them immediately.
    """

    def test_index_build_stays_under_budget(self, corpus):
        with ArchiveStore(corpus.root) as reopened:
            tracemalloc.start()
            try:
                index = _index_from_store(reopened)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert index.providers() == tuple(sorted(corpus.archives))
        assert peak < corpus.scale.memory_budget_bytes, \
            f"index build peaked at {peak / 1e6:.1f} MB"

    def test_stability_battery_stays_under_budget(self, corpus):
        with ArchiveStore(corpus.root) as reopened:
            service = QueryService(reopened)
            tracemalloc.start()
            try:
                for provider in sorted(corpus.archives):
                    response = service.handle_request(
                        f"/v1/providers/{provider}/stability")
                    assert response.status == 200
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < corpus.scale.memory_budget_bytes, \
            f"stability battery peaked at {peak / 1e6:.1f} MB"


def _traced_peak(fn):
    """``(fn(), tracemalloc peak bytes)``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module", params=[
    pytest.param("paper_bench", marks=pytest.mark.scale),
    pytest.param("full_1m", marks=pytest.mark.scale)])
def ingested(request, tmp_path_factory):
    """A preset's corpus appended day by day into a chunked store.

    Records each append's wall time and the size of the first
    provider's last day loaded back whole.
    """
    scale = get_scale(request.param)
    archives = synthetic_archives(scale)
    root = tmp_path_factory.mktemp(f"ingest-{scale.name}") / "store"
    append_seconds = []
    with ArchiveStore(root) as store:
        for provider in sorted(archives):
            for snapshot in archives[provider]:
                start = time.perf_counter()
                store.append(snapshot)
                append_seconds.append(time.perf_counter() - start)
        provider = scale.providers[0]
        full_size = len(store.load_snapshot(provider,
                                            store.dates(provider)[-1]))
    yield SimpleNamespace(scale=scale, archives=archives,
                          append_seconds=append_seconds, full_size=full_size)


@pytest.fixture(scope="module")
def battery(ingested):
    """The analysis battery over the preset's corpus, with its traced peak."""
    scale, archives = ingested.scale, ingested.archives
    top_k = scale.analysis_top_k
    first = archives[scale.providers[0]]

    def run():
        for archive in archives.values():
            mean_daily_change(archive, top_n=top_k)
            new_domains_per_day(archive, top_n=top_k)
        cumulative_unique_domains(first, top_n=top_k)
        days_in_list(first, top_n=top_k)
        intersection_over_time(archives, top_n=top_k, normalise=False)
        # Full-width churn runs on a window: day-level set analyses never
        # need the whole period of full-size sets resident at once.
        dates = first.dates()
        window = first.period(dates[0], dates[min(7, scale.n_days) - 1])
        return mean_daily_change(window)

    full_width_change, peak = _traced_peak(run)
    return SimpleNamespace(full_width_change=full_width_change, peak=peak)


class TestNativeScaleGates:
    """Time and memory floors of ingest and the analyses, plus a full-day load."""

    def test_steady_state_append_under_one_second(self, ingested):
        # The first append bootstraps the store's table with every name;
        # later days add only their churned names.
        median = statistics.median(ingested.append_seconds[1:])
        assert median < 1.0, (
            f"steady-state append of a {ingested.scale.list_size:,}-entry "
            f"day took {median:.2f}s")

    def test_full_day_query_answers(self, ingested):
        assert ingested.full_size == ingested.scale.list_size

    def test_analysis_battery_under_memory_budget(self, ingested, battery):
        budget = ingested.scale.memory_budget_bytes
        assert battery.peak < budget, (
            f"battery peaked at {battery.peak / 1e6:.0f} MB, "
            f"budget {budget / 1e6:.0f} MB")

    def test_full_width_daily_change_is_the_configured_churn(self, ingested,
                                                             battery):
        assert battery.full_width_change == ingested.scale.churn_per_day


class TestPresetRegistry:
    def test_registry_names_and_lookup(self):
        assert scale_names() == ("tiny", "paper_bench", "full_1m")
        tiny = get_scale("tiny")
        assert get_scale(tiny) is tiny
        with pytest.raises(KeyError, match="known:"):
            get_scale("gigantic")

    def test_tiny_preset_means_what_the_cli_tiny_flag_meant(self):
        """``--tiny`` must keep producing the historical fixture scale."""
        profile = get_profile("paper_realistic").at_scale("tiny")
        assert profile.name == "paper_realistic+tiny"
        config = profile.config
        assert (config.n_domains, config.list_size, config.n_days,
                config.top_k) == (1_500, 400, 8, 50)
        assert (config.alexa_panel_users, config.umbrella_clients,
                config.majestic_linking_subnets) == (8_000, 6_000, 150_000)
        assert (config.alexa_window_days, config.majestic_window_days,
                config.new_domains_per_day) == (5, 5, 10)

    def test_synthetic_only_scales_refuse_simulation(self):
        profile = get_profile("paper_realistic")
        for name in ("paper_bench", "full_1m"):
            with pytest.raises(ScaleError, match="synthetic-only"):
                profile.at_scale(name)

    def test_validation_rejects_nonsense_configs(self):
        good = dict(name="x", description="d", list_size=10, n_days=2,
                    analysis_top_k=5)
        ScaleConfig(**good)
        for bad in (dict(list_size=0), dict(n_days=0),
                    dict(analysis_top_k=11), dict(analysis_top_k=0),
                    dict(churn_fraction=1.0), dict(name="a b"),
                    dict(providers=())):
            with pytest.raises(ValueError):
                ScaleConfig(**{**good, **bad})

    def test_derived_sizes(self):
        tiny = get_scale("tiny")
        assert tiny.churn_per_day == 8  # 2% of 400
        assert tiny.universe_size == 400 + 7 * 8
        one_day = replace(tiny, name="oneday", n_days=1)
        assert one_day.churn_per_day == 0
        assert one_day.universe_size == one_day.list_size


class TestSyntheticGenerator:
    def test_deterministic_and_shares_one_universe(self):
        solo = synthetic_archive("alexa", "tiny")
        again = synthetic_archive("alexa", "tiny")
        grouped = synthetic_archives("tiny")["alexa"]
        for day in range(len(solo)):
            reference = bytes(solo[day].entry_ids())
            assert bytes(again[day].entry_ids()) == reference
            assert bytes(grouped[day].entry_ids()) == reference

    def test_providers_diverge_but_overlap(self):
        archives = synthetic_archives("tiny")
        interner = default_interner()
        last = {p: set(interner.id_set(a[len(a) - 1].entry_ids()))
                for p, a in archives.items()}
        alexa, majestic = last["alexa"], last["majestic"]
        assert alexa != majestic  # per-provider churn streams differ
        overlap = len(alexa & majestic) / len(alexa)
        assert overlap > 0.8  # but membership stays heavily shared

    def test_daily_change_rate_is_exactly_the_configured_churn(self):
        scale = get_scale("tiny")
        archive = synthetic_archive("umbrella", scale)
        assert len(archive) == scale.n_days
        for day in range(scale.n_days):
            assert len(archive[day]) == scale.list_size
        assert mean_daily_change(archive) == scale.churn_per_day

    def test_short_universe_is_rejected(self):
        scale = get_scale("tiny")
        with pytest.raises(ValueError, match="universe holds"):
            synthetic_archive("alexa", scale,
                              universe=universe_ids(scale.list_size))
