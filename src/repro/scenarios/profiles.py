"""Named, frozen simulation profiles.

The paper's central finding is that the three top lists live in wildly
different stability regimes: Majestic churns ~1% of its entries per day,
pre-change Alexa a few percent, Umbrella tens of percent, and post-change
Alexa up to ~50%.  A :class:`SimulationProfile` freezes one such regime —
a complete :class:`~repro.population.config.SimulationConfig` plus any
scenario-level inputs (injected measurement traffic) — under a stable
name, so analyses, benchmarks, goldens and docs all refer to the same
reproducible dataset.

The built-in presets:

``paper_realistic``
    The paper's steady-state regime: ~1% mean daily churn across the
    three lists (large well-aggregated panels, smoothed resolver window,
    slow backlink drift, damped weekly modulation).
``high_churn_stress``
    A deliberately noisy regime (short windows, full sampling noise,
    fast population turnover) that stress-tests the delta engines.
``alexa_change_2018``
    The January-2018 event: Alexa switches from a 10-day to a 1-day
    window mid-period, splitting the archive into a calm and a volatile
    half.
``weekend_heavy``
    Exaggerated weekday/weekend modulation, for the Section 6.2 weekly
    pattern analyses.
``manipulated``
    The Section 7.2 rank-manipulation setting: measurement traffic is
    injected against the resolver-based ranking mid-period.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Optional

from repro.population.config import SimulationConfig


@dataclass(frozen=True)
class InjectionSpec:
    """One injected-traffic measurement a scenario runs (Section 7.2).

    ``day`` is the simulation day on which the injection is active; the
    runner feeds the spec through
    :class:`~repro.ranking.manipulation.UmbrellaInjectionExperiment`, so
    scoring stays in one place.
    """

    fqdn: str
    n_clients: int
    queries_per_client: float
    day: int

    def __post_init__(self) -> None:
        if self.day < 0:
            raise ValueError("day must be non-negative")
        if self.n_clients < 0:
            raise ValueError("n_clients must be non-negative")
        if self.queries_per_client < 0:
            raise ValueError("queries_per_client must be non-negative")


@dataclass(frozen=True)
class SimulationProfile:
    """A named, frozen scenario: configuration plus scenario-level inputs."""

    name: str
    description: str
    config: SimulationConfig
    #: Head size used by the head-sensitive analyses; ``None`` falls back
    #: to ``config.top_k``.
    analysis_top_k: Optional[int] = None
    #: Measurement traffic injected against the resolver-based ranking.
    injections: tuple[InjectionSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError("profile name must be a non-empty token")
        if self.analysis_top_k is not None and self.analysis_top_k <= 0:
            raise ValueError("analysis_top_k must be positive")
        for spec in self.injections:
            if spec.day >= self.config.n_days:
                raise ValueError(
                    f"injection day {spec.day} outside the {self.config.n_days}-day period")

    @property
    def top_k(self) -> int:
        """Effective head size of the scenario's head-level analyses."""
        return self.analysis_top_k or self.config.top_k

    def with_config(self, **overrides: object) -> "SimulationProfile":
        """A copy of the profile with configuration fields overridden.

        The copy is given a derived name (``<name>+custom``) so it never
        collides with the frozen preset in per-profile caches.
        """
        return replace(self, name=f"{self.name}+custom",
                       config=replace(self.config, **overrides))  # type: ignore[arg-type]

    def at_scale(self, scale: object) -> "SimulationProfile":
        """A copy of the profile resized to a named scale preset.

        ``profile.at_scale("tiny")`` is how the CLI's ``--tiny``/``--scale``
        flags and the scale test matrix resize a scenario: the copy's name
        gains a ``+<scale>`` suffix and its configuration takes the
        preset's overrides.  Synthetic-only presets (``full_1m``) raise
        :class:`repro.scale.ScaleError` — see :mod:`repro.scale`.
        """
        from repro.scale import scaled_profile  # local: scale imports providers

        return scaled_profile(self, scale)  # type: ignore[arg-type]


#: Scale shared by all presets: small enough that every scenario simulates
#: in a few seconds, large enough that head/tail effects are visible.
_SCENARIO_SCALE: dict[str, object] = dict(
    n_domains=3_000, new_domains_per_day=20, n_days=21,
    list_size=800, top_k=100,
    alexa_panel_users=25_000, alexa_visits_per_user=25.0,
    umbrella_clients=20_000, umbrella_queries_per_client=40.0,
    majestic_linking_subnets=400_000,
    alexa_window_days=10, majestic_window_days=7,
)


def _scenario_config(**overrides: object) -> SimulationConfig:
    params = dict(_SCENARIO_SCALE)
    params.update(overrides)
    return SimulationConfig(**params)  # type: ignore[arg-type]


def _build_presets() -> dict[str, SimulationProfile]:
    presets = [
        SimulationProfile(
            name="paper_realistic",
            description=("Steady-state regime of the paper: ~1% mean daily churn "
                         "(damped sampling noise, smoothed resolver window, slow "
                         "population turnover)."),
            config=_scenario_config(
                new_domains_per_day=5,
                sampling_noise_scale=0.2,
                weekend_amplitude=0.5,
                umbrella_window_days=3,
            ),
        ),
        SimulationProfile(
            name="high_churn_stress",
            description=("Deliberately volatile regime (1-day windows, full "
                         "sampling noise, fast population turnover) that "
                         "stress-tests the incremental delta engines."),
            config=_scenario_config(
                n_days=14,
                new_domains_per_day=40,
                alexa_window_days=2,
                sampling_noise_scale=1.0,
            ),
        ),
        SimulationProfile(
            name="alexa_change_2018",
            description=("The January-2018 event: Alexa collapses its ranking "
                         "window from 10 days to 1 mid-period, turning a calm "
                         "list volatile overnight."),
            config=_scenario_config(alexa_change_day=10),
        ),
        SimulationProfile(
            name="weekend_heavy",
            description=("Exaggerated weekday/weekend modulation for the weekly "
                         "pattern analyses (leisure domains surge on weekends, "
                         "office platforms drain)."),
            config=_scenario_config(
                weekend_amplitude=2.5,
                sampling_noise_scale=0.3,
            ),
        ),
        SimulationProfile(
            name="manipulated",
            description=("Section 7.2 rank manipulation: measurement traffic is "
                         "injected against the resolver ranking mid-period, from "
                         "many-probes-few-queries to few-probes-many-queries."),
            config=_scenario_config(n_days=14),
            injections=(
                InjectionSpec(fqdn="rank-injection-a.example-measurement.org",
                              n_clients=10_000, queries_per_client=1.0, day=7),
                InjectionSpec(fqdn="rank-injection-b.example-measurement.org",
                              n_clients=1_000, queries_per_client=100.0, day=7),
                InjectionSpec(fqdn="rank-injection-c.example-measurement.org",
                              n_clients=100, queries_per_client=10.0, day=7),
            ),
        ),
    ]
    return {profile.name: profile for profile in presets}


#: The frozen built-in presets, by name.
PROFILES: Mapping[str, SimulationProfile] = MappingProxyType(_build_presets())


def profile_names() -> tuple[str, ...]:
    """Names of the built-in scenario profiles, in registry order."""
    return tuple(PROFILES)


def get_profile(name: str) -> SimulationProfile:
    """Look up a built-in profile by name (with a helpful error)."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(PROFILES)
        raise KeyError(f"unknown scenario profile {name!r} (known: {known})") from None
