"""Scale presets: one named knob for how big a corpus is.

The paper works on *Top-1M* lists; the repo's simulations, tests and
benchmarks work on scaled-down versions of them.  Before this module the
scale of everything was smeared across ad-hoc dicts (``--tiny`` in the
CLI, ``_SCENARIO_SCALE`` in the profiles, hand-picked sizes in each
benchmark).  A :class:`ScaleConfig` freezes one size regime under a
stable name so tests, benchmarks and the CLI all mean the same thing by
"tiny" or "full_1m":

``tiny``
    Fixture-sized (400-entry lists, 8 days).  Simulatable in seconds;
    the scale behind ``repro-serve init --tiny`` and the tier-1 test
    matrix.
``paper_bench``
    A 100k-entry, 10-day corpus — large enough that accidental O(day)
    materialisation or chunk-granularity bugs show up in memory/time
    ceilings, small enough for a CI job.  Synthetic-only.
``full_1m``
    The paper's native regime: 1M-entry lists over 30 days.  Far too
    large to *simulate* (the traffic model is per-user), so corpora at
    this scale come from :func:`synthetic_archive`, which writes churn
    and rank movement directly into id columns at array speed.

Synthetic corpora are deterministic (seeded), share one interned name
universe across providers, and exhibit the paper's headline behaviours
at configurable rates: daily churn (drops + re-entries + genuinely new
names) and block rank movement.  They are *performance* corpora — the
statistical analyses run on them, but their regime constants are not
calibrated to the paper's findings the way the simulation profiles are.
"""

from __future__ import annotations

import datetime as dt
import random
from array import array
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.interning import default_interner
from repro.providers.base import ListArchive, ListSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scenarios.profiles import SimulationProfile

#: Provider names every preset's corpus carries, mirroring the paper's
#: three lists.
DEFAULT_PROVIDERS: tuple[str, ...] = ("alexa", "majestic", "umbrella")


class ScaleError(ValueError):
    """A scale preset was used in a mode it does not support."""


@dataclass(frozen=True)
class ScaleConfig:
    """One frozen size regime for corpora, tests and benchmarks.

    Attributes
    ----------
    list_size:
        Entries per daily list (the "1M" of Top-1M).
    n_days:
        Days in the observation period.
    analysis_top_k:
        Head size the head-sensitive analyses use at this scale (the
        paper's Top-1k against its Top-1M lists).
    churn_fraction:
        Fraction of list slots replaced per synthetic day.  The paper's
        steady-state lists sit near 1%.
    simulation_overrides:
        :class:`~repro.population.config.SimulationConfig` field
        overrides when this scale is small enough to run the per-user
        traffic simulation; ``None`` marks a synthetic-only scale.
    memory_budget_bytes:
        Ceiling the scale's analysis battery must stay under
        (tracemalloc peak); enforced by the ``scale`` test tier
        (``make test-scale``).
    """

    name: str
    description: str
    list_size: int
    n_days: int
    analysis_top_k: int
    churn_fraction: float = 0.01
    providers: tuple[str, ...] = DEFAULT_PROVIDERS
    simulation_overrides: Optional[Mapping[str, object]] = None
    memory_budget_bytes: int = 2 * 1024**3

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError("scale name must be a non-empty token")
        if self.list_size <= 0:
            raise ValueError("list_size must be positive")
        if self.n_days <= 0:
            raise ValueError("n_days must be positive")
        if not 0 < self.analysis_top_k <= self.list_size:
            raise ValueError("analysis_top_k must be positive and at most list_size")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise ValueError("churn_fraction must be in [0, 1)")
        if not self.providers:
            raise ValueError("providers must be non-empty")

    @property
    def simulatable(self) -> bool:
        """Whether the per-user traffic simulation can run at this scale."""
        return self.simulation_overrides is not None

    @property
    def churn_per_day(self) -> int:
        """Slots replaced per synthetic day (at least 1 once churning)."""
        if self.n_days == 1 or self.churn_fraction == 0.0:
            return 0
        return max(1, int(self.list_size * self.churn_fraction))

    @property
    def universe_size(self) -> int:
        """Distinct names a synthetic archive can need at this scale."""
        return self.list_size + (self.n_days - 1) * self.churn_per_day


def _build_scales() -> dict[str, ScaleConfig]:
    scales = [
        ScaleConfig(
            name="tiny",
            description=("Fixture-sized corpus (seconds to simulate, kilobytes "
                         "on disk) for CI smoke jobs and local poking."),
            list_size=400,
            n_days=8,
            analysis_top_k=50,
            churn_fraction=0.02,
            memory_budget_bytes=64 * 1024**2,
            simulation_overrides=MappingProxyType(dict(
                n_domains=1_500, new_domains_per_day=10, n_days=8,
                list_size=400, top_k=50,
                alexa_panel_users=8_000, umbrella_clients=6_000,
                majestic_linking_subnets=150_000,
                alexa_window_days=5, majestic_window_days=5,
            )),
        ),
        ScaleConfig(
            name="paper_bench",
            description=("100k-entry, 10-day synthetic corpus: big enough that "
                         "O(day) materialisation and chunk-granularity bugs "
                         "trip the memory/time ceilings, small enough for a "
                         "CI job."),
            list_size=100_000,
            n_days=10,
            analysis_top_k=1_000,
            memory_budget_bytes=512 * 1024**2,
        ),
        ScaleConfig(
            name="full_1m",
            description=("The paper's native regime: 1M-entry lists over 30 "
                         "days, three providers.  Synthetic-only; exercised "
                         "by the scale test tier (make test-scale)."),
            list_size=1_000_000,
            n_days=30,
            analysis_top_k=1_000,
            memory_budget_bytes=2 * 1024**3,
        ),
    ]
    return {scale.name: scale for scale in scales}


#: The frozen built-in scale presets, by name.
SCALES: Mapping[str, ScaleConfig] = MappingProxyType(_build_scales())


def scale_names() -> tuple[str, ...]:
    """Names of the built-in scale presets, in registry order."""
    return tuple(SCALES)


def get_scale(scale: str | ScaleConfig) -> ScaleConfig:
    """Resolve a preset name (or pass a config through) with a helpful error."""
    if isinstance(scale, ScaleConfig):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        known = ", ".join(SCALES)
        raise KeyError(f"unknown scale preset {scale!r} (known: {known})") from None


def scaled_profile(profile: "SimulationProfile",
                   scale: str | ScaleConfig) -> "SimulationProfile":
    """A copy of ``profile`` resized to a simulatable scale preset.

    The copy's name gains a ``+<scale>`` suffix (``paper_realistic+tiny``)
    so per-profile caches and stored reports never collide with the
    full-size preset.  Synthetic-only scales raise :class:`ScaleError`:
    the per-user traffic simulation cannot run at 1M-list size, so
    corpora at those scales come from :func:`synthetic_archives` instead.
    """
    scale = get_scale(scale)
    if not scale.simulatable:
        raise ScaleError(
            f"scale preset {scale.name!r} is synthetic-only: simulating "
            f"{scale.list_size:,}-entry lists per-user is not feasible; "
            "build corpora with repro.scale.synthetic_archives() instead")
    config = replace(profile.config, **scale.simulation_overrides)  # type: ignore[arg-type]
    return replace(profile, name=f"{profile.name}+{scale.name}", config=config)


def universe_ids(size: int) -> array:
    """Interned ids of the synthetic name universe, in canonical order.

    Names are valid wire domains (``s0000000.scale.example``) so synthetic
    days survive the serving layer's wire validation, and deterministic so
    every generator call shares the same interner rows.
    """
    width = max(7, len(str(max(size - 1, 1))))
    return default_interner().intern_many(
        f"s{i:0{width}d}.scale.example" for i in range(size))


def synthetic_archive(provider: str, scale: str | ScaleConfig, *,
                      seed: int = 20181031,
                      start_date: dt.date = dt.date(2018, 1, 1),
                      universe: Optional[array] = None) -> ListArchive:
    """Deterministic synthetic archive for one provider at a scale.

    Day 0 is the leading ``list_size`` window of the shared name
    universe; each later day replaces ``churn_per_day`` slots (three
    quarters genuinely new names, a quarter re-entries of previously
    dropped ones — the paper's observed drop/re-entry mix) and swaps two
    disjoint rank blocks so rank-sensitive analyses see movement.  All
    mutation happens on uint32 id arrays, so a 1M-entry day costs one
    4 MB array copy plus ``churn_per_day`` slot writes — no per-day
    Python string structures at all.

    ``universe`` lets callers share one interned universe across
    providers (see :func:`synthetic_archives`); per-provider RNG streams
    are derived from ``seed`` and the provider name, so each provider's
    churn positions and rank movement differ while membership stays
    heavily overlapping, as with the real lists.
    """
    scale = get_scale(scale)
    rng = random.Random(f"{seed}:{provider}")
    if universe is None:
        universe = universe_ids(scale.universe_size)
    elif len(universe) < scale.universe_size:
        raise ValueError(
            f"universe holds {len(universe)} ids but scale {scale.name!r} "
            f"can need {scale.universe_size}")
    list_size = scale.list_size
    churn = scale.churn_per_day
    current = array("I", universe[:list_size])
    fresh_at = list_size  # next never-seen universe id
    dropped: list[int] = []  # ids dropped earlier and not currently listed
    snapshots = [ListSnapshot.from_ids(provider=provider, date=start_date,
                                       ids=array("I", current))]
    for day in range(1, scale.n_days):
        ids = array("I", current)
        if churn:
            # Today's drops only join the re-entry pool tomorrow: a
            # same-day drop-and-re-entry would be invisible to the daily
            # change analyses, and real lists re-admit names after an
            # absence, so each day removes exactly `churn` members.
            today: list[int] = []
            for pos in rng.sample(range(list_size), min(churn, list_size)):
                today.append(ids[pos])
                if dropped and rng.random() < 0.25:
                    ids[pos] = dropped.pop(rng.randrange(len(dropped)))
                else:
                    ids[pos] = universe[fresh_at]
                    fresh_at += 1
            dropped.extend(today)
        if list_size >= 8:
            # Swap two disjoint rank blocks: membership-preserving rank
            # movement for the correlation/head analyses.
            w = max(1, min(list_size // 8, 1_024))
            a = rng.randrange(0, list_size - 2 * w + 1)
            b = rng.randrange(a + w, list_size - w + 1)
            ids[a:a + w], ids[b:b + w] = ids[b:b + w], ids[a:a + w]
        snapshots.append(ListSnapshot.from_ids(
            provider=provider, date=start_date + dt.timedelta(days=day),
            ids=ids))
        current = ids
    return ListArchive.from_snapshots(snapshots, provider=provider)


def synthetic_archives(scale: str | ScaleConfig, *,
                       seed: int = 20181031,
                       start_date: dt.date = dt.date(2018, 1, 1),
                       providers: Optional[Iterable[str]] = None
                       ) -> dict[str, ListArchive]:
    """Synthetic archives for every provider of a scale, sharing one universe.

    The interned universe is built once and reused, so three 1M-entry
    providers cost one set of name strings; per-provider divergence comes
    from the seeded RNG streams inside :func:`synthetic_archive`.
    """
    scale = get_scale(scale)
    universe = universe_ids(scale.universe_size)
    names = tuple(providers) if providers is not None else scale.providers
    return {provider: synthetic_archive(provider, scale, seed=seed,
                                        start_date=start_date,
                                        universe=universe)
            for provider in names}
