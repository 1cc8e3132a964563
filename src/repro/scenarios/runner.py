"""Scenario runner: one call from a profile to a serialisable report.

:class:`ScenarioRunner` composes a
:class:`~repro.scenarios.profiles.SimulationProfile` with the full
analysis battery — intersection, rank dynamics, weekly patterns,
stability, and the Section 9 recommendation checks — and condenses the
results into a :class:`ScenarioReport`: a plain-data, deterministically
serialisable summary of everything the scenario shows.

Reports are reproducible end to end: the same profile (and therefore the
same seed) produces byte-identical JSON, which is what the golden-run
regression harness (:mod:`repro.scenarios.golden`) asserts against the
fingerprints committed under ``tests/goldens/``.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.core.intersection import intersection_over_time
from repro.core.rank_dynamics import (
    churn_by_rank,
    kendall_tau_series,
    rank_variation,
    strong_correlation_share,
)
from repro.core.recommendations import StudyPlan, StudyPurpose, evaluate_study_plan
from repro.core.stability import (
    cumulative_unique_domains,
    daily_changes,
    days_in_list,
    intersection_with_reference,
    mean_daily_change,
    new_domains_per_day,
)
from repro.core.weekly import sld_group_dynamics, weekday_weekend_ks
from repro.providers.base import ListArchive
from repro.providers.simulation import SimulationRun, run_profile
from repro.ranking.manipulation import UmbrellaInjectionExperiment
from repro.scenarios.profiles import SimulationProfile, get_profile
from repro.util import canonical_json

#: Bump when the report layout changes incompatibly (goldens must then be
#: regenerated intentionally via ``make goldens``).
SCHEMA_VERSION = 1

#: Seeded example domains whose rank variation every scenario tracks
#: (the spread of Table 4: a head domain, two mid-list, one boundary).
_PROBE_DOMAINS = ("google.com", "netflix.com", "office.com", "jetblue.com")

#: Decimal places kept for every float in a report: far beyond analysis
#: noise, short of platform-dependent last-ulp differences.
_FLOAT_DECIMALS = 10


def canonical_float(value: float) -> float:
    """Canonical float for serialisation (see :data:`_FLOAT_DECIMALS`).

    Shared by every layer that serialises analysis numbers (reports,
    goldens, the :mod:`repro.service` query API), so "the same number"
    is byte-identical everywhere it appears.
    """
    return round(float(value), _FLOAT_DECIMALS)


_f = canonical_float


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _config_dict(profile: SimulationProfile) -> dict[str, Any]:
    """The profile's configuration as JSON-clean data."""
    raw = dataclasses.asdict(profile.config)
    clean: dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, dt.date):
            clean[key] = value.isoformat()
        elif isinstance(value, tuple):
            clean[key] = list(value)
        else:
            clean[key] = value
    return clean


def _tau_summary(taus: list[float]) -> dict[str, Any]:
    if not taus:
        return {"n": 0, "mean": 0.0, "min": 0.0, "strong_share": 0.0}
    return {
        "n": len(taus),
        "mean": _f(sum(taus) / len(taus)),
        "min": _f(min(taus)),
        "strong_share": _f(strong_correlation_share(taus)),
    }


def _head_sample(archive: ListArchive, top_k: int, index: int) -> dict[str, Any]:
    snapshot = archive[index].top(top_k)
    return {
        "date": snapshot.date.isoformat(),
        "sha256": _sha256("\n".join(snapshot.entries)),
        "top10": list(snapshot.entries[:10]),
    }


@dataclass
class ScenarioReport:
    """Serialisable summary of one scenario's full analysis battery."""

    profile: str
    description: str
    config: dict[str, Any]
    top_k: int
    providers: dict[str, Any]
    intersection: dict[str, Any]
    recommendations: dict[str, Any]
    manipulation: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (JSON-clean, reconstructible)."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, stable layout, byte-reproducible."""
        return canonical_json.dumps(self.to_dict())

    def to_bytes(self) -> bytes:
        """The canonical JSON document as UTF-8 bytes.

        These are the exact bytes the archive store persists and the
        query API serves, so "stored report" and "freshly computed
        report" are indistinguishable on the wire.
        """
        return self.to_json().encode("utf-8")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioReport":
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioReport":
        return cls.from_dict(json.loads(text))

    # -- regression fingerprint -------------------------------------------
    def fingerprint(self) -> dict[str, Any]:
        """Compact deterministic digest used by the golden-run harness.

        Contains the scenario-level invariants a refactor must preserve:
        churn rates, tau/KS summaries, top-k head hashes, intersection
        means, recommendation severities and manipulation outcomes — not
        the full per-day series, so goldens stay small and reviewable.
        """
        providers: dict[str, Any] = {}
        for name, section in sorted(self.providers.items()):
            stability = section["stability"]
            dynamics = section["rank_dynamics"]
            weekly = section["weekly"]
            decay = stability["reference_decay"]
            providers[name] = {
                "churn_fraction": stability["churn_fraction"],
                "mean_daily_change": stability["mean_daily_change"],
                "cumulative_unique": stability["cumulative_unique"],
                "always_listed_share": stability["always_listed_share"],
                "reference_decay_final": (
                    decay[str(max(int(offset) for offset in decay))] if decay else None),
                "tau_day_to_day": dynamics["tau_day_to_day"],
                "churn_by_rank": dynamics["churn_by_rank"],
                "ks_mean": weekly["ks_mean"],
                "ks_disjoint_share": weekly["disjoint_share"],
                "sld_groups": sorted(weekly["sld_groups"]),
                "head_hashes": {position: sample["sha256"]
                                for position, sample in section["head_sample"].items()},
            }
        return {
            "schema_version": self.schema_version,
            "profile": self.profile,
            "config_digest": _sha256(json.dumps(self.config, sort_keys=True)),
            "top_k": self.top_k,
            "providers": providers,
            "intersection": {pair: stats["mean"]
                             for pair, stats in sorted(self.intersection["pairs"].items())},
            "recommendations": {
                name: {severity: section[severity]
                       for severity in ("critical", "warning", "info")}
                for name, section in sorted(self.recommendations.items())
            },
            "manipulation": {fqdn: outcome["rank"]
                             for fqdn, outcome in sorted(self.manipulation.items())},
        }


class ScenarioRunner:
    """Runs a scenario profile through the full analysis battery."""

    def __init__(self, profile: Union[str, SimulationProfile],
                 use_cache: bool = True) -> None:
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.use_cache = use_cache

    # -- pipeline ---------------------------------------------------------
    def simulate(self) -> SimulationRun:
        """The scenario's (per-profile cached) simulation run."""
        return run_profile(self.profile, use_cache=self.use_cache)

    def run(self) -> ScenarioReport:
        """Simulate the scenario and compute the full report."""
        profile = self.profile
        run = self.simulate()
        top_k = profile.top_k
        providers = {name: self._provider_section(archive, top_k)
                     for name, archive in run.archives.items()}
        return ScenarioReport(
            profile=profile.name,
            description=profile.description,
            config=_config_dict(profile),
            top_k=top_k,
            providers=providers,
            intersection=self._intersection_section(run, top_k),
            recommendations=self._recommendations_section(run),
            manipulation=self._manipulation_section(run),
        )

    # -- sections ---------------------------------------------------------
    def _provider_section(self, archive: ListArchive, top_k: int) -> dict[str, Any]:
        list_size = len(archive[0]) if len(archive) else 0
        changes = daily_changes(archive)
        mean_change = mean_daily_change(archive)
        new_counts = new_domains_per_day(archive)
        cumulative = cumulative_unique_domains(archive)
        counts = days_in_list(archive)
        always = (sum(1 for v in counts.values() if v == len(archive)) / len(counts)
                  if counts else 0.0)
        decay = intersection_with_reference(archive, reference_days=range(7))

        sizes = sorted({max(1, top_k // 2), top_k,
                        max(1, list_size // 2), max(1, list_size)})
        churn_sizes = churn_by_rank(archive, sizes)
        variation = rank_variation(archive, _PROBE_DOMAINS)

        ks = weekday_weekend_ks(archive, top_n=top_k)
        disjoint = (sum(1 for v in ks.values() if v >= 0.999) / len(ks)) if ks else 0.0
        groups = sld_group_dynamics(archive, top_n=top_k)

        middle = len(archive) // 2
        return {
            "days": len(archive),
            "list_size": list_size,
            "stability": {
                "mean_daily_change": _f(mean_change),
                "churn_fraction": _f(mean_change / max(1, list_size)),
                "daily_changes": {date.isoformat(): count
                                  for date, count in sorted(changes.items())},
                "new_per_day_mean": _f(sum(new_counts.values()) / max(1, len(new_counts))),
                "cumulative_unique": (list(cumulative.values())[-1] if cumulative else 0),
                "always_listed_share": _f(always),
                "reference_decay": {str(offset): _f(value)
                                    for offset, value in sorted(decay.items())},
            },
            "rank_dynamics": {
                "churn_by_rank": {str(size): _f(share)
                                  for size, share in sorted(churn_sizes.items())},
                "tau_day_to_day": _tau_summary(
                    kendall_tau_series(archive, top_n=top_k, mode="day-to-day")),
                "tau_vs_first": _tau_summary(
                    kendall_tau_series(archive, top_n=top_k, mode="vs-first")),
                "rank_variation": {
                    domain: {
                        "highest": var.highest,
                        "median": None if var.median is None else _f(var.median),
                        "lowest": var.lowest,
                        "days_listed": var.days_listed,
                    }
                    for domain, var in sorted(variation.items())
                },
            },
            "weekly": {
                "ks_domains": len(ks),
                "ks_mean": _f(sum(ks.values()) / len(ks)) if ks else 0.0,
                "disjoint_share": _f(disjoint),
                "sld_groups": {
                    group: {"weekday_mean": _f(dyn.weekday_mean),
                            "weekend_mean": _f(dyn.weekend_mean)}
                    for group, dyn in sorted(groups.items())
                },
            },
            "head_sample": {
                "first": _head_sample(archive, top_k, 0),
                "middle": _head_sample(archive, top_k, middle),
                "last": _head_sample(archive, top_k, len(archive) - 1),
            },
        }

    def _intersection_section(self, run: SimulationRun, top_k: int) -> dict[str, Any]:
        series = intersection_over_time(run.archives, top_n=top_k)
        per_pair: dict[str, list[int]] = {}
        for matrix in series.values():
            for pair, count in matrix.items():
                per_pair.setdefault("&".join(pair), []).append(count)
        return {
            "days": len(series),
            "top_n": top_k,
            "pairs": {
                pair: {"mean": _f(sum(counts) / len(counts)),
                       "min": min(counts), "max": max(counts)}
                for pair, counts in sorted(per_pair.items())
            },
        }

    def _recommendations_section(self, run: SimulationRun) -> dict[str, Any]:
        sections: dict[str, Any] = {}
        for name, archive in run.archives.items():
            plan = StudyPlan(purpose=StudyPurpose.PROTOCOL_ADOPTION,
                             lists_used=(name,),
                             measurement_days=len(archive),
                             documents_list_date=True,
                             documents_measurement_date=True,
                             publishes_list_copy=True)
            report = evaluate_study_plan(plan, archives={name: archive},
                                         weekend=run.config.weekend_days)
            sections[name] = {
                "critical": len(report.critical),
                "warning": len(report.warnings),
                "info": len(report.findings) - len(report.critical) - len(report.warnings),
                "passes": report.passes,
                "checks": sorted(f"{finding.severity.value}:{finding.check}"
                                 for finding in report.findings),
            }
        return sections

    def _manipulation_section(self, run: SimulationRun) -> dict[str, Any]:
        if not self.profile.injections:
            return {}
        outcomes: dict[str, Any] = {}
        for spec in self.profile.injections:
            experiment = UmbrellaInjectionExperiment(run.providers["umbrella"],
                                                     test_domain=spec.fqdn)
            cell = experiment.run_cell(spec.day, n_probes=spec.n_clients,
                                       queries_per_day=spec.queries_per_client)
            outcomes[spec.fqdn] = {
                "day": spec.day,
                "n_clients": spec.n_clients,
                "queries_per_client": _f(spec.queries_per_client),
                "rank": cell.rank,
            }
        return outcomes


def run_scenario(profile: Union[str, SimulationProfile],
                 use_cache: bool = True) -> ScenarioReport:
    """Convenience wrapper: build a runner for ``profile`` and run it."""
    return ScenarioRunner(profile, use_cache=use_cache).run()
