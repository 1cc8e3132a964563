"""Golden-run regression harness for the scenario pipeline.

Each scenario's :meth:`~repro.scenarios.runner.ScenarioReport.fingerprint`
— churn rates, tau/KS summaries, intersection means, top-k head hashes —
is committed as a small JSON file (``tests/goldens/<profile>.json``).
The golden test re-runs every scenario and compares the live fingerprint
against the committed one, so a refactor of any cached fast path is
checked by *scenario-level parity*, not just unit tests: if the delta
engine, the PSL trie, or a provider drifts by a single entry anywhere in
the battery, a head hash or a churn rate moves and the diff names it.

Goldens are refreshed intentionally with ``make goldens`` (or
``python scripts/refresh_goldens.py``) when an algorithm change is
*supposed* to alter results; the diff in review then documents exactly
which scenario statistics moved.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Union

from repro.scenarios.profiles import SimulationProfile, get_profile, profile_names
from repro.scenarios.runner import ScenarioReport, run_scenario
from repro.util import canonical_json


def golden_path(directory: Union[str, Path], profile_name: str) -> Path:
    """Path of the golden fingerprint file for ``profile_name``."""
    return Path(directory) / f"{profile_name}.json"


def fingerprint_to_json(fingerprint: Mapping[str, Any]) -> str:
    """Canonical JSON serialisation of a fingerprint (sorted, newline-terminated)."""
    return canonical_json.dumps(fingerprint)


def write_golden(report: ScenarioReport, directory: Union[str, Path]) -> Path:
    """Write ``report``'s fingerprint as the committed golden file."""
    path = golden_path(directory, report.profile)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fingerprint_to_json(report.fingerprint()), encoding="utf-8")
    return path


def load_golden(directory: Union[str, Path], profile_name: str) -> dict[str, Any]:
    """Load the committed golden fingerprint for ``profile_name``."""
    return json.loads(golden_path(directory, profile_name).read_text(encoding="utf-8"))


def diff_fingerprints(live: Mapping[str, Any], golden: Mapping[str, Any],
                      _prefix: str = "") -> list[str]:
    """Human-readable differences between two fingerprints (empty = equal).

    Walks both structures and reports every leaf that was added, removed
    or changed, as ``path: golden -> live`` lines — so a failing golden
    test names the exact statistic that moved.
    """
    differences: list[str] = []
    keys = sorted(set(live) | set(golden))
    for key in keys:
        path = f"{_prefix}{key}"
        if key not in golden:
            differences.append(f"{path}: missing from golden (live={live[key]!r})")
        elif key not in live:
            differences.append(f"{path}: missing from live run (golden={golden[key]!r})")
        else:
            a, b = live[key], golden[key]
            if isinstance(a, Mapping) and isinstance(b, Mapping):
                differences.extend(diff_fingerprints(a, b, _prefix=f"{path}."))
            elif a != b:
                differences.append(f"{path}: {b!r} -> {a!r}")
    return differences


def check_against_golden(report: ScenarioReport,
                         directory: Union[str, Path]) -> list[str]:
    """Differences between ``report`` and its committed golden (empty = pass)."""
    path = golden_path(directory, report.profile)
    if not path.exists():
        return [f"no golden committed at {path} (run `make goldens` to create it)"]
    return diff_fingerprints(report.fingerprint(), load_golden(directory, report.profile))


def refresh_goldens(directory: Union[str, Path],
                    profiles: Optional[Iterable[Union[str, SimulationProfile]]] = None
                    ) -> list[Path]:
    """Re-run the scenarios and (re)write their golden fingerprints.

    This is the *intentional* update path: call it (via ``make goldens``)
    when an algorithm change is supposed to move scenario statistics, and
    commit the resulting diff.
    """
    selected = list(profiles) if profiles is not None else list(profile_names())
    paths: list[Path] = []
    for entry in selected:
        profile = get_profile(entry) if isinstance(entry, str) else entry
        report = run_scenario(profile)
        paths.append(write_golden(report, directory))
    return paths
