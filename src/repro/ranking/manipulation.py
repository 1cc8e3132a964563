"""Rank-manipulation experiments (Section 7.2/7.3, Figure 5).

Three experiments:

* :class:`UmbrellaInjectionExperiment` — sweep probe count x query
  frequency and record the Umbrella rank a test domain reaches (Figure 5),
  including the "disappears within days after stopping" check.
* :class:`UmbrellaTtlExperiment` — query test names with different TTLs
  and verify the resulting ranks stay within a small band (the paper finds
  TTL has no significant effect because the ranking is unique-client
  driven).
* :class:`MajesticBacklinkExperiment` — purchase-style backlink injection:
  how many referring /24 subnets are needed to reach a target Majestic
  rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.population.traffic import PAGE_VIEW_WEIGHT, InjectedQueries
from repro.providers.alexa import AlexaProvider
from repro.providers.majestic import MajesticProvider
from repro.providers.umbrella import UmbrellaProvider
from repro.ranking.atlas import ProbeMeasurement


@dataclass(frozen=True)
class InjectionOutcome:
    """Result of one (probe count, query frequency) grid cell."""

    n_probes: int
    queries_per_day: float
    rank: Optional[int]

    @property
    def listed(self) -> bool:
        """Whether the test domain made it into the list at all."""
        return self.rank is not None


class UmbrellaInjectionExperiment:
    """Probe-count x query-frequency sweep against the Umbrella ranking."""

    def __init__(self, provider: UmbrellaProvider,
                 test_domain: str = "rank-injection-test.example-measurement.org") -> None:
        self.provider = provider
        self.test_domain = test_domain.lower()

    def run_cell(self, day: int, n_probes: int, queries_per_day: float) -> InjectionOutcome:
        """Run one grid cell on ``day`` and return the achieved rank."""
        measurement = ProbeMeasurement(target_fqdn=self.test_domain,
                                       n_probes=n_probes,
                                       queries_per_day=queries_per_day)
        ranks = self.provider.rank_with_injection(day, [measurement.to_injection()])
        return InjectionOutcome(n_probes=n_probes, queries_per_day=queries_per_day,
                                rank=ranks[self.test_domain])

    def run_grid(self, day: int,
                 probe_counts: Sequence[int] = (100, 1_000, 5_000, 10_000),
                 query_frequencies: Sequence[float] = (1, 10, 50, 100)
                 ) -> dict[tuple[int, float], InjectionOutcome]:
        """Run the full Figure 5 grid on ``day``."""
        outcomes: dict[tuple[int, float], InjectionOutcome] = {}
        for probes in probe_counts:
            for freq in query_frequencies:
                outcomes[(probes, freq)] = self.run_cell(day, probes, freq)
        return outcomes

    def probes_vs_volume_effect(self, day: int) -> dict[str, Optional[int]]:
        """The paper's headline comparison: many probes with few queries
        beats few probes with many queries despite a 10x smaller total
        query volume."""
        many_probes = self.run_cell(day, n_probes=10_000, queries_per_day=1)
        many_queries = self.run_cell(day, n_probes=1_000, queries_per_day=100)
        return {"10k-probes-1q": many_probes.rank, "1k-probes-100q": many_queries.rank}

    def rank_after_stopping(self, day: int) -> Optional[int]:
        """Rank on a day with *no* injected traffic: the domain should have
        disappeared from the list (the paper observes removal in 1-2 days)."""
        ranks = self.provider.rank_with_injection(
            day, [InjectedQueries(fqdn=self.test_domain, n_clients=0, queries_per_client=0)])
        return ranks[self.test_domain]


class UmbrellaTtlExperiment:
    """TTL sweep: five test names with different TTLs, same probe setup."""

    def __init__(self, provider: UmbrellaProvider,
                 ttls: Sequence[int] = (60, 300, 900, 3600, 86400),
                 n_probes: int = 1_000,
                 queries_per_day: float = 96.0,
                 name_template: str = "ttl-{ttl}.example-measurement.org") -> None:
        self.provider = provider
        self.ttls = tuple(ttls)
        self.n_probes = n_probes
        self.queries_per_day = queries_per_day
        self.name_template = name_template

    def run(self, day: int) -> dict[int, Optional[int]]:
        """Rank achieved by each TTL variant on ``day``."""
        injections = [
            InjectedQueries(fqdn=self.name_template.format(ttl=ttl),
                            n_clients=self.n_probes,
                            queries_per_client=self.queries_per_day,
                            ttl=ttl)
            for ttl in self.ttls
        ]
        ranks = self.provider.rank_with_injection(day, injections)
        return {ttl: ranks[self.name_template.format(ttl=ttl)] for ttl in self.ttls}

    def max_rank_spread(self, day: int) -> Optional[int]:
        """Largest rank difference between the TTL variants (paper: < 1k)."""
        ranks = [rank for rank in self.run(day).values() if rank is not None]
        if not ranks:
            return None
        return max(ranks) - min(ranks)


class AlexaPanelInjectionExperiment:
    """Panel-telemetry injection against the Alexa-style ranking.

    Section 7.1 explains that the Alexa rank is computed from toolbar
    telemetry (visitors and page views); the paper refrains from injecting
    synthetic telemetry for ethical reasons but notes that le Pochat et
    al. succeeded in doing so.  This experiment quantifies the required
    effort on the simulated list: how many distinct panel installations
    (each generating a few page views per day) place a test site at a
    given rank.
    """

    def __init__(self, provider: AlexaProvider,
                 page_views_per_installation: float = 3.0) -> None:
        if page_views_per_installation < 0:
            raise ValueError("page_views_per_installation must be non-negative")
        self.provider = provider
        self.page_views_per_installation = page_views_per_installation

    def _injected_score(self, installations: int) -> float:
        # The WebTraffic.score() formula for one day of panel telemetry.
        views = installations * self.page_views_per_installation
        return float(installations) + PAGE_VIEW_WEIGHT * views

    def rank_for_installations(self, day: int, installations: int) -> Optional[int]:
        """Rank a test site reaches with ``installations`` daily visitors."""
        if installations < 0:
            raise ValueError("installations must be non-negative")
        if installations == 0:
            return None
        organic = self.provider.windowed_score(day)
        order = np.sort(organic[organic > 0])[::-1]
        score = self._injected_score(installations)
        higher = int(np.searchsorted(-order, -score, side="left"))
        rank = higher + 1
        return rank if rank <= self.provider.list_size else None

    def installations_for_rank(self, day: int, target_rank: int) -> int:
        """Minimum daily panel installations needed to reach ``target_rank``."""
        if target_rank <= 0:
            raise ValueError("target_rank must be positive")
        organic = self.provider.windowed_score(day)
        order = np.sort(organic[organic > 0])[::-1]
        if target_rank > len(order):
            return 1
        needed_score = float(order[target_rank - 1])
        per_installation = 1.0 + PAGE_VIEW_WEIGHT * self.page_views_per_installation
        return int(np.ceil(needed_score / per_installation)) + 1

    def sweep(self, day: int, installation_counts: Sequence[int]) -> Mapping[int, Optional[int]]:
        """Rank achieved for each installation count."""
        return {count: self.rank_for_installations(day, count)
                for count in installation_counts}


class MajesticBacklinkExperiment:
    """Backlink purchasing against the Majestic-style ranking.

    The paper notes a domain's Majestic rank can only realistically be
    influenced by acquiring links from many distinct /24 subnets
    (referral/link-selling services); this experiment asks how many
    referring subnets place a new domain at a given rank.
    """

    def __init__(self, provider: MajesticProvider) -> None:
        self.provider = provider

    def rank_for_backlinks(self, day: int, referring_subnets: int) -> Optional[int]:
        """Rank a new domain with ``referring_subnets`` links would obtain."""
        if referring_subnets < 0:
            raise ValueError("referring_subnets must be non-negative")
        if referring_subnets == 0:
            return None
        scores = self.provider.windowed_score(day)
        order = np.sort(scores[scores > 0])[::-1]
        higher = int(np.searchsorted(-order, -float(referring_subnets), side="left"))
        rank = higher + 1
        return rank if rank <= self.provider.list_size else None

    def backlinks_for_rank(self, day: int, target_rank: int) -> int:
        """Minimum referring subnets needed to reach ``target_rank``."""
        if target_rank <= 0:
            raise ValueError("target_rank must be positive")
        scores = self.provider.windowed_score(day)
        order = np.sort(scores[scores > 0])[::-1]
        if target_rank > len(order):
            return 1
        return int(np.ceil(order[target_rank - 1])) + 1

    def sweep(self, day: int, subnet_counts: Sequence[int]) -> Mapping[int, Optional[int]]:
        """Rank achieved for each backlink count in ``subnet_counts``."""
        return {count: self.rank_for_backlinks(day, count) for count in subnet_counts}
