"""Traffic simulation: the raw signals top lists are built from.

For every simulated day the :class:`TrafficSimulator` produces

* :class:`WebTraffic` — page visits and unique visitors observed by a
  browser-toolbar panel (what Alexa ranks on),
* :class:`DnsTraffic` — unique resolver clients and query counts per FQDN
  (what Umbrella ranks on), optionally with injected measurement traffic
  (the Section 7.2 RIPE-Atlas experiment),
* :class:`BacklinkSnapshot` — the number of /24 subnets linking to each
  domain (what Majestic ranks on).

All sampling is vectorised with numpy and seeded per ``(seed, day,
stream)`` so that any day can be regenerated independently and
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.population.categories import CATEGORY_PROFILES
from repro.population.config import SimulationConfig
from repro.population.internet import SyntheticInternet

#: Fraction of an injected client's daily queries that reach the ranked
#: resolver (cache hits and anycast spread make it less than 1).
QUERY_CAPTURE_RATE = 0.55

#: Weight of page views against unique visitors in the Alexa-style day
#: score, ``unique visitors + PAGE_VIEW_WEIGHT * page views``.
PAGE_VIEW_WEIGHT = 0.2


@dataclass(frozen=True)
class InjectedQueries:
    """Synthetic measurement traffic towards one DNS name (Section 7.2).

    ``n_clients`` distinct sources each issue ``queries_per_client``
    queries per day for ``fqdn``; ``ttl`` is carried so the TTL-sweep
    experiment can assert it has (almost) no effect on the resulting rank.
    """

    fqdn: str
    n_clients: int
    queries_per_client: float
    ttl: int = 300

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise ValueError("n_clients must be non-negative")
        if self.queries_per_client < 0:
            raise ValueError("queries_per_client must be non-negative")


@dataclass
class WebTraffic:
    """Panel-observed web activity for one day (per base domain index)."""

    day: int
    visits: np.ndarray
    unique_visitors: np.ndarray

    def score(self) -> np.ndarray:
        """Alexa-style day score: combines page views and unique visitors."""
        return self.unique_visitors.astype(float) + PAGE_VIEW_WEIGHT * self.visits.astype(float)


@dataclass
class DnsTraffic:
    """Resolver-observed DNS activity for one day (per FQDN catalogue index)."""

    day: int
    unique_clients: np.ndarray
    queries: np.ndarray
    injected: Mapping[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class BacklinkSnapshot:
    """Crawler-observed inbound links for one day (per base domain index)."""

    day: int
    linking_subnets: np.ndarray

    def score(self) -> np.ndarray:
        """Majestic-style day score: the /24-subnet count itself."""
        return self.linking_subnets.astype(float)


class TrafficSimulator:
    """Generates daily web, DNS and backlink signals for a synthetic Internet."""

    def __init__(self, internet: SyntheticInternet, config: SimulationConfig | None = None) -> None:
        self.internet = internet
        self.config = config or internet.config
        self._prepare_domain_arrays()
        self._prepare_fqdn_arrays()

    # ------------------------------------------------------------------
    # Precomputed arrays
    # ------------------------------------------------------------------
    def _prepare_domain_arrays(self) -> None:
        domains = self.internet.domains
        n = len(domains)
        self._dom_birth = np.array([d.birth_day for d in domains])
        self._dom_exists = np.array([d.exists for d in domains], dtype=bool)
        self._dom_dead = np.array([d.dead for d in domains], dtype=bool)
        self._dom_weekend = np.array([d.weekend_factor for d in domains])
        web = np.empty(n)
        backlink = np.empty(n)
        for i, domain in enumerate(domains):
            profile = CATEGORY_PROFILES[domain.category]
            web[i] = domain.base_weight * profile.web_factor
            backlink[i] = domain.base_weight * profile.backlink_factor
        # Only resolving domains attract human web visits; dead domains keep
        # their backlinks (Majestic reacts slowly to domain closure).
        self._dom_web_weight = web * self._dom_exists
        # Link counts are flatter than visit counts: even the last listed
        # domain has a few dozen referring subnets, which is what makes a
        # backlink-based list stable.  A sub-linear transform models that.
        backlink_weight = (backlink ** 0.6) * (self._dom_exists | self._dom_dead)
        total = backlink_weight.sum()
        scale = self.config.majestic_linking_subnets / total if total > 0 else 0.0
        self._dom_backlinks_base = backlink_weight * scale
        #: Per-day cumulative log-drift of the backlink random walk.
        self._backlink_walks: dict[int, np.ndarray] = {}

    def _prepare_fqdn_arrays(self) -> None:
        fqdns = self.internet.fqdns
        self._fqdn_weight = self.internet.fqdn_weights()
        parent = np.array([f.domain_index for f in fqdns])
        self._fqdn_parent = parent
        weekend = np.ones(len(fqdns))
        birth = np.zeros(len(fqdns), dtype=int)
        has_parent = parent >= 0
        weekend[has_parent] = self._dom_weekend[parent[has_parent]]
        birth[has_parent] = self._dom_birth[parent[has_parent]]
        self._fqdn_weekend = weekend
        self._fqdn_birth = birth

    def _rng(self, day: int, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.config.seed, day, stream])

    def _day_factor(self, day: int, weekend_factors: np.ndarray) -> np.ndarray:
        """Per-entity traffic multiplier for ``day`` (weekend modulation).

        ``weekend_amplitude`` scales each domain's deviation from a flat
        week; at the default 1.0 the factors are used exactly as
        configured (the branch keeps that path bit-identical).
        """
        amplitude = self.config.weekend_amplitude
        if self.config.is_weekend(day):
            if amplitude == 1.0:
                return weekend_factors
            return (1.0 + amplitude * (weekend_factors - 1.0)).clip(0.0, None)
        # Weekdays carry a mild complementary boost for office-like domains
        # so that total traffic stays roughly constant across the week.
        return 1.0 + 0.25 * (amplitude * (1.0 - weekend_factors)).clip(-1.0, 1.0)

    def _damp_noise(self, sampled: np.ndarray, expected: np.ndarray) -> np.ndarray:
        """Shrink ``sampled`` towards ``expected`` by ``sampling_noise_scale``.

        The random draw itself is unchanged (so the default scale of 1.0
        reproduces the historical streams exactly); only the deviation
        from the expectation is rescaled, then rounded back to counts.
        """
        scale = self.config.sampling_noise_scale
        if scale == 1.0:
            return sampled
        blended = expected + scale * (sampled.astype(float) - expected)
        return np.rint(blended).clip(0.0, None).astype(np.int64)

    # ------------------------------------------------------------------
    # Daily signals
    # ------------------------------------------------------------------
    def web_day(self, day: int) -> WebTraffic:
        """Simulate one day of panel-observed web traffic."""
        self._check_day(day)
        rng = self._rng(day, stream=1)
        active = self._dom_birth <= day
        factor = self._day_factor(day, self._dom_weekend)
        intensity = self._dom_web_weight * factor * active
        total = intensity.sum()
        if total <= 0:
            zeros = np.zeros(len(intensity), dtype=np.int64)
            return WebTraffic(day=day, visits=zeros, unique_visitors=zeros.copy())
        p = intensity / total
        panel = self.config.alexa_panel_users
        expected_visits = panel * self.config.alexa_visits_per_user * p
        visits = rng.poisson(expected_visits)
        # A panel member visiting a domain at least once counts as a unique
        # visitor; the per-user visit intensity is expected_visits / panel.
        per_user = expected_visits / max(panel, 1)
        hit_probability = 1.0 - np.exp(-per_user)
        unique = rng.binomial(panel, hit_probability)
        visits = self._damp_noise(visits, expected_visits)
        unique = self._damp_noise(unique, panel * hit_probability)
        return WebTraffic(day=day, visits=visits, unique_visitors=unique)

    def dns_day(self, day: int, injected: Sequence[InjectedQueries] = ()) -> DnsTraffic:
        """Simulate one day of resolver-observed DNS traffic."""
        self._check_day(day)
        rng = self._rng(day, stream=2)
        active = self._fqdn_birth <= day
        factor = self._day_factor(day, self._fqdn_weekend)
        intensity = self._fqdn_weight * factor * active
        total = intensity.sum()
        clients = self.config.umbrella_clients
        if total <= 0 or clients <= 0:
            zeros = np.zeros(len(intensity), dtype=np.int64)
            return DnsTraffic(day=day, unique_clients=zeros, queries=zeros.copy())
        p = intensity / total
        expected_queries = clients * self.config.umbrella_queries_per_client * p
        per_client = expected_queries / clients
        hit_probability = 1.0 - np.exp(-per_client)
        unique = rng.binomial(clients, hit_probability)
        queries = rng.poisson(expected_queries)
        unique = self._damp_noise(unique, clients * hit_probability)
        queries = self._damp_noise(queries, expected_queries)
        injected_counts: dict[str, tuple[int, int]] = {}
        for injection in injected:
            if injection.n_clients == 0 or injection.queries_per_client == 0:
                injected_counts[injection.fqdn.lower()] = (0, 0)
                continue
            capture = 1.0 - (1.0 - QUERY_CAPTURE_RATE) ** injection.queries_per_client
            inj_unique = int(rng.binomial(injection.n_clients, capture))
            inj_queries = int(rng.poisson(
                injection.n_clients * injection.queries_per_client * QUERY_CAPTURE_RATE))
            injected_counts[injection.fqdn.lower()] = (inj_unique, inj_queries)
        return DnsTraffic(day=day, unique_clients=unique, queries=queries,
                          injected=injected_counts)

    def _backlink_walk(self, day: int) -> np.ndarray:
        """Cumulative log-drift of the backlink counts up to ``day``.

        Link counts evolve as a slow multiplicative random walk: the count
        for a domain on consecutive days shares almost all of its
        underlying crawl data (Majestic uses ~90 days of crawls), so
        day-over-day changes are tiny and *persistent*, unlike the
        independent sampling noise of panel- or resolver-based signals.
        """
        if day in self._backlink_walks:
            return self._backlink_walks[day]
        if day == 0:
            walk = np.zeros(len(self._dom_backlinks_base))
        else:
            previous = self._backlink_walk(day - 1)
            step = self._rng(day, stream=3).normal(0.0, self.config.backlink_walk_sigma,
                                                   size=previous.shape)
            walk = previous + step
        self._backlink_walks[day] = walk
        return walk

    def backlinks_day(self, day: int) -> BacklinkSnapshot:
        """Simulate one day of crawler-observed backlink counts."""
        self._check_day(day)
        base = self._dom_backlinks_base.copy()
        # Newly created domains accumulate links over the crawler's window.
        age = day - self._dom_birth
        ramp = np.clip(age / max(1, self.config.majestic_window_days), 0.0, 1.0)
        ramp[self._dom_birth == 0] = 1.0
        base *= ramp
        # Dead domains slowly lose links as pages get updated.
        base[self._dom_dead] *= 0.995 ** max(0, day)
        counts = np.floor(base * np.exp(self._backlink_walk(day))).astype(np.int64)
        return BacklinkSnapshot(day=day, linking_subnets=counts)

    def _check_day(self, day: int) -> None:
        if day < 0:
            raise ValueError("day must be non-negative")
