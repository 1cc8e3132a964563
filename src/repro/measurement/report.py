"""Reporting helpers: time series (Figures 6 and 8) and Table 5 assembly.

Both read a metric through the one Table 5 mapping,
:data:`repro.measurement.harness.TABLE5_ROWS`.
"""

from __future__ import annotations

import datetime as dt
from typing import Mapping, Optional, Sequence

from repro.core.bias import ComparisonTable
from repro.measurement.harness import (
    TABLE5_METRICS,
    TABLE5_ROWS,
    MeasurementHarness,
    TargetSet,
)
from repro.providers.base import ListArchive
from repro.providers.simulation import SimulationRun


def daily_series(harness: MeasurementHarness,
                 archives: Mapping[str, ListArchive],
                 metrics: Sequence[str],
                 top_n: Optional[int] = None,
                 population: Optional[TargetSet] = None,
                 sample_every: int = 1) -> dict[str, dict[str, dict[dt.date, float]]]:
    """Measure ``metrics`` for every archive day (Figures 6 and 8).

    Returns ``{metric: {target name: {date: value}}}``, measuring each
    target once per Table 5 part (DNS, TLS or HTTP/2) the metrics read.
    With ``top_n`` the Top-n head of each snapshot is measured instead
    of the full list.  The general population, when given, is measured
    once and reported for every sampled date (the paper probes the
    com/net/org zone weekly).
    """
    if sample_every <= 0:
        raise ValueError("sample_every must be positive")
    rows = {metric: TABLE5_ROWS[metric] for metric in metrics}
    measures = {part: getattr(harness, f"measure_{part}") for _, part, _ in rows.values()}
    series: dict[str, dict[str, dict[dt.date, float]]] = {metric: {} for metric in rows}

    def record(target: TargetSet, dates: Sequence[dt.date]) -> None:
        results = {part: measure(target) for part, measure in measures.items()}
        for metric, (_, part, value) in rows.items():
            series[metric].setdefault(target.name, {}).update(
                dict.fromkeys(dates, value(results[part])))

    sampled: set[dt.date] = set()
    for name, archive in archives.items():
        label = f"{name}-{top_n}" if top_n else name
        for snapshot in archive.snapshots()[::sample_every]:
            record(TargetSet.from_snapshot(snapshot, top_n=top_n, name=label), [snapshot.date])
            sampled.add(snapshot.date)
    if population is not None:
        record(population, sorted(sampled))
    return series


def build_comparison_table(run: SimulationRun,
                           harness: Optional[MeasurementHarness] = None,
                           sample_days: Sequence[int] = (-5, -3, -1),
                           top_k: Optional[int] = None,
                           population_sample: Optional[int] = None,
                           metrics: Optional[Sequence[str]] = None) -> ComparisonTable:
    """Assemble the Table-5-style comparison for a simulation run.

    For each provider the full list ("1M" analogue) and its Top-k head
    ("1k" analogue) are measured on the snapshots selected by
    ``sample_days`` (negative indices count from the end of the archive);
    the com/net/org population is the comparison base.
    """
    harness = harness or MeasurementHarness(run.internet)
    top_k = top_k or run.config.top_k
    metrics = list(metrics) if metrics is not None else list(TABLE5_METRICS)
    population = TargetSet.from_zonefile(run.zonefile, sample=population_sample)

    # Collect per-day samples per target.
    samples: dict[str, dict[str, list[float]]] = {m: {} for m in metrics}
    for provider, archive in run.archives.items():
        snapshots = archive.snapshots()
        for scope, top_n in ((f"{provider}-1k", top_k), (f"{provider}-1M", None)):
            for day in sample_days:
                snapshot = snapshots[day]
                target = TargetSet.from_snapshot(snapshot, top_n=top_n, name=scope)
                report = harness.measure(target)
                for metric in metrics:
                    samples[metric].setdefault(scope, []).append(report.metric(metric))
    population_report = harness.measure(population)

    table = ComparisonTable(base_target=population.name)
    for metric in metrics:
        values: dict[str, list[float]] = dict(samples[metric])
        values[population.name] = [population_report.metric(metric)]
        table.add_characteristic(TABLE5_ROWS[metric][0], values)
    return table
