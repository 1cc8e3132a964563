"""Alexa-style top list provider.

Alexa ranks web sites from visitor and page-view statistics collected by
a browser-toolbar panel, aggregated over a sliding window (historically
three months; shortened drastically in January 2018, which the paper
shows made the list far more volatile and introduced a weekly pattern).

This provider reproduces the mechanism: the day score of a base domain is
the panel's unique visitors plus a page-view component, averaged over the
last ``window_days`` days; from ``change_day`` on, the window collapses
to a single day.  Only base domains of existing (web-serving) sites are
ranked — the Alexa list contains almost exclusively base domains
(Table 2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.population.config import SimulationConfig
from repro.population.internet import SyntheticInternet
from repro.population.traffic import PAGE_VIEW_WEIGHT, TrafficSimulator
from repro.providers.base import ListProvider, ListSnapshot


class AlexaProvider(ListProvider):
    """Panel-based web-activity ranking with a configurable sliding window."""

    name = "alexa"

    #: Sentinel: take the structural-change day from the simulation config.
    USE_CONFIG_CHANGE_DAY = "config"

    def __init__(
        self,
        internet: SyntheticInternet,
        traffic: TrafficSimulator,
        list_size: Optional[int] = None,
        window_days: Optional[int] = None,
        change_day: "Optional[int] | str" = USE_CONFIG_CHANGE_DAY,
        post_change_panel_factor: float = 0.15,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        if not 0 < post_change_panel_factor <= 1:
            raise ValueError("post_change_panel_factor must be in (0, 1]")
        self.internet = internet
        self.traffic = traffic
        self.config = config or internet.config
        self.list_size = list_size or self.config.list_size
        self.window_days = window_days or self.config.alexa_window_days
        if change_day == self.USE_CONFIG_CHANGE_DAY:
            self.change_day: Optional[int] = self.config.alexa_change_day
        else:
            self.change_day = change_day  # explicit day, or None to disable
        #: After the structural change, the list is computed from a much
        #: smaller slice of the panel (the paper observes a sharp volatility
        #: increase and a new weekly pattern): only this fraction of the
        #: panel's observations is used.
        self.post_change_panel_factor = post_change_panel_factor
        self._day_scores: dict[tuple[int, bool], np.ndarray] = {}
        self._names = np.array([d.name for d in internet.domains])

    def effective_window(self, day: int) -> int:
        """Window length in effect on ``day`` (1 after the structural change)."""
        if self._changed(day):
            return 1
        return self.window_days

    def _changed(self, day: int) -> bool:
        return self.change_day is not None and day >= self.change_day

    def _score_for_day(self, day: int, thinned: bool) -> np.ndarray:
        key = (day, thinned)
        if key not in self._day_scores:
            web = self.traffic.web_day(day)
            if thinned:
                rng = np.random.default_rng([self.config.seed, day, 11])
                visits = rng.binomial(web.visits, self.post_change_panel_factor)
                unique = rng.binomial(web.unique_visitors, self.post_change_panel_factor)
                score = unique.astype(float) + PAGE_VIEW_WEIGHT * visits.astype(float)
            else:
                score = web.score()
            self._day_scores[key] = score
        return self._day_scores[key]

    def windowed_score(self, day: int) -> np.ndarray:
        """Average day score over the window ending on ``day``."""
        window = self.effective_window(day)
        first = max(0, day - window + 1)
        days = range(first, day + 1)
        thinned = self._changed(day)
        total = np.zeros(len(self.internet.domains))
        for d in days:
            total += self._score_for_day(d, thinned)
        return total / len(list(days))

    def snapshot(self, day: int) -> ListSnapshot:
        """The Alexa-style list published on simulation day ``day``."""
        scores = self.windowed_score(day)
        # Deterministic tie-breaking by index keeps snapshots reproducible.
        order = np.lexsort((np.arange(len(scores)), -scores))
        top = [int(i) for i in order[: self.list_size * 2]]
        entries: list[str] = []
        for idx in top:
            if scores[idx] <= 0:
                break
            entries.append(str(self._names[idx]))
            if len(entries) >= self.list_size:
                break
        return ListSnapshot(provider=self.name, date=self.config.date_of(day),
                            entries=tuple(entries))
