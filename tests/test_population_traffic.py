"""Tests for the traffic simulation."""

import numpy as np
import pytest

from repro.population.config import SimulationConfig
from repro.population.internet import SyntheticInternet
from repro.population.traffic import InjectedQueries, TrafficSimulator


@pytest.fixture(scope="module")
def simulator() -> TrafficSimulator:
    config = SimulationConfig.small(n_domains=1_500, list_size=400, top_k=50,
                                    new_domains_per_day=10, n_days=10)
    internet = SyntheticInternet(config)
    return TrafficSimulator(internet, config)


class TestWebTraffic:
    def test_shapes(self, simulator):
        web = simulator.web_day(0)
        assert len(web.visits) == len(simulator.internet.domains)
        assert len(web.unique_visitors) == len(simulator.internet.domains)

    def test_deterministic_per_day(self, simulator):
        a = simulator.web_day(3)
        b = simulator.web_day(3)
        assert np.array_equal(a.visits, b.visits)

    def test_days_differ(self, simulator):
        assert not np.array_equal(simulator.web_day(0).visits, simulator.web_day(1).visits)

    def test_popular_domains_get_more_visits(self, simulator):
        web = simulator.web_day(0)
        weights = np.array([d.base_weight for d in simulator.internet.domains])
        top = np.argsort(-weights)[:10]
        bottom = np.argsort(-weights)[-500:]
        assert web.visits[top].sum() > web.visits[bottom].sum()

    def test_unborn_domains_get_no_traffic(self, simulator):
        web = simulator.web_day(0)
        births = np.array([d.birth_day for d in simulator.internet.domains])
        unborn = births > 0
        assert web.visits[unborn].sum() == 0

    def test_nonexistent_domains_get_no_web_traffic(self, simulator):
        web = simulator.web_day(2)
        missing = ~np.array([d.exists for d in simulator.internet.domains])
        assert web.visits[missing].sum() == 0

    def test_weekend_shifts_leisure_traffic(self, simulator):
        config = simulator.config
        weekend_day = next(d for d in range(config.n_days) if config.is_weekend(d))
        weekday = next(d for d in range(config.n_days) if not config.is_weekend(d))
        weekend_factors = np.array([d.weekend_factor for d in simulator.internet.domains])
        leisure = weekend_factors > 1.4
        office = weekend_factors < 0.6
        web_weekend = simulator.web_day(weekend_day)
        web_weekday = simulator.web_day(weekday)
        total_weekend = web_weekend.visits.sum()
        total_weekday = web_weekday.visits.sum()
        leisure_share_weekend = web_weekend.visits[leisure].sum() / total_weekend
        leisure_share_weekday = web_weekday.visits[leisure].sum() / total_weekday
        office_share_weekend = web_weekend.visits[office].sum() / total_weekend
        office_share_weekday = web_weekday.visits[office].sum() / total_weekday
        assert leisure_share_weekend > leisure_share_weekday
        assert office_share_weekend < office_share_weekday

    def test_score_combines_views_and_visitors(self, simulator):
        web = simulator.web_day(0)
        assert (web.score() >= web.unique_visitors).all()

    def test_negative_day_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.web_day(-1)


class TestDnsTraffic:
    def test_shapes(self, simulator):
        dns = simulator.dns_day(0)
        assert len(dns.unique_clients) == len(simulator.internet.fqdns)
        assert len(dns.queries) == len(simulator.internet.fqdns)

    def test_unique_clients_bounded_by_client_base(self, simulator):
        dns = simulator.dns_day(1)
        assert dns.unique_clients.max() <= simulator.config.umbrella_clients

    def test_deterministic(self, simulator):
        assert np.array_equal(simulator.dns_day(2).unique_clients,
                              simulator.dns_day(2).unique_clients)

    def test_junk_names_receive_queries(self, simulator):
        dns = simulator.dns_day(0)
        junk_indices = [i for i, f in enumerate(simulator.internet.fqdns) if f.domain_index < 0]
        assert dns.unique_clients[junk_indices].sum() > 0

    def test_injection_counts(self, simulator):
        injection = InjectedQueries(fqdn="test.example-measurement.org", n_clients=500,
                                    queries_per_client=10)
        dns = simulator.dns_day(0, injected=[injection])
        unique, queries = dns.injected["test.example-measurement.org"]
        assert 0 < unique <= 500
        assert queries > 0

    def test_injection_zero_traffic(self, simulator):
        injection = InjectedQueries(fqdn="idle.example.org", n_clients=0, queries_per_client=0)
        dns = simulator.dns_day(0, injected=[injection])
        assert dns.injected["idle.example.org"] == (0, 0)
        assert "never-injected.example" not in dns.injected

    def test_more_probes_more_unique_clients(self, simulator):
        few = InjectedQueries(fqdn="a.test", n_clients=100, queries_per_client=100)
        many = InjectedQueries(fqdn="b.test", n_clients=5_000, queries_per_client=1)
        dns = simulator.dns_day(0, injected=[few, many])
        assert dns.injected["b.test"][0] > dns.injected["a.test"][0]

    def test_invalid_injection_rejected(self):
        with pytest.raises(ValueError):
            InjectedQueries(fqdn="x", n_clients=-1, queries_per_client=1)
        with pytest.raises(ValueError):
            InjectedQueries(fqdn="x", n_clients=1, queries_per_client=-1)


class TestBacklinks:
    def test_shapes_and_types(self, simulator):
        links = simulator.backlinks_day(0)
        assert len(links.linking_subnets) == len(simulator.internet.domains)
        assert links.linking_subnets.dtype.kind == "i"

    def test_counts_stable_day_to_day(self, simulator):
        day0 = simulator.backlinks_day(0).linking_subnets.astype(float)
        day1 = simulator.backlinks_day(1).linking_subnets.astype(float)
        mask = day0 > 50
        relative_change = np.abs(day1[mask] - day0[mask]) / day0[mask]
        assert np.median(relative_change) < 0.05

    def test_dead_domains_keep_links(self, simulator):
        links = simulator.backlinks_day(0)
        dead = np.array([d.dead for d in simulator.internet.domains])
        if dead.any():
            assert links.linking_subnets[dead].sum() > 0

    def test_newborn_ramp(self, simulator):
        internet = simulator.internet
        newborn = [d for d in internet.domains if d.birth_day == 1]
        if not newborn:
            pytest.skip("no domain born on day 1 in this configuration")
        index = newborn[0].index
        early = simulator.backlinks_day(1).linking_subnets[index]
        late = simulator.backlinks_day(simulator.config.n_days - 1).linking_subnets[index]
        assert late >= early

    def test_deterministic(self, simulator):
        assert np.array_equal(simulator.backlinks_day(4).linking_subnets,
                              simulator.backlinks_day(4).linking_subnets)
