"""Scenario profiles and the golden-run regression harness.

This package turns the simulation into a catalogue of named, frozen
regimes and makes "run the whole paper on regime X" a single call:

* :mod:`repro.scenarios.profiles` — :class:`SimulationProfile` presets
  (``paper_realistic``, ``high_churn_stress``, ``alexa_change_2018``,
  ``weekend_heavy``, ``manipulated``).
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner` composes a
  profile with the full analysis battery (intersection, rank dynamics,
  weekly patterns, stability, recommendations) into a reproducible,
  serialisable :class:`ScenarioReport`.
* :mod:`repro.scenarios.golden` — compact deterministic fingerprints per
  scenario, committed under ``tests/goldens/`` and compared on every test
  run, so refactors of the cached fast paths are caught by scenario-level
  parity.

Typical use::

    from repro.scenarios import run_scenario

    report = run_scenario("paper_realistic")
    print(report.providers["alexa"]["stability"]["churn_fraction"])
"""

from repro.scenarios.golden import (
    check_against_golden,
    diff_fingerprints,
    golden_path,
    load_golden,
    refresh_goldens,
    write_golden,
)
from repro.scenarios.profiles import (
    PROFILES,
    InjectionSpec,
    SimulationProfile,
    get_profile,
    profile_names,
)
from repro.scenarios.runner import (
    SCHEMA_VERSION,
    ScenarioReport,
    ScenarioRunner,
    canonical_float,
    run_scenario,
)

__all__ = [
    "InjectionSpec",
    "PROFILES",
    "SCHEMA_VERSION",
    "ScenarioReport",
    "ScenarioRunner",
    "SimulationProfile",
    "canonical_float",
    "check_against_golden",
    "diff_fingerprints",
    "get_profile",
    "golden_path",
    "load_golden",
    "profile_names",
    "refresh_goldens",
    "run_scenario",
    "write_golden",
]
