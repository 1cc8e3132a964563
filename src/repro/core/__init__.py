"""Core analysis library.

This package is the paper's primary contribution re-implemented as a
reusable toolkit: given one or more top-list archives (simulated or real),
it computes every structural, stability, rank-dynamics, weekly-pattern and
result-bias statistic the paper reports.

Modules map to the paper's sections:

* :mod:`repro.core.structure` — Section 5.1 (TLD coverage, subdomain
  depth, base domains, aliases) and the Table 2 structure columns.
* :mod:`repro.core.intersection` — Section 5.2/5.3 (list intersections,
  disjunct domains).
* :mod:`repro.core.stability` — Section 6.1 (daily changes, new domains,
  cumulative growth, decay against a reference day, days-in-list CDF).
* :mod:`repro.core.rank_dynamics` — Section 6.1/6.3 (churn by rank
  subset, Kendall's tau, per-domain rank variation).
* :mod:`repro.core.weekly` — Section 6.2 (weekday/weekend KS distances,
  SLD-group dynamics).
* :mod:`repro.core.bias` — Section 8 (top list vs general population
  comparison with the paper's significance marking).
"""

from repro.core.bias import CharacteristicComparison, ComparisonCell, ComparisonTable
from repro.core.cache import (
    archive_base_id_sets,
    archive_id_sets,
    archive_rank_partition_ids,
    archive_rank_series_ids,
    archive_sld_count_events,
    snapshot_base_ids,
)
from repro.core.recommendations import (
    Finding,
    RecommendationReport,
    Severity,
    StudyPlan,
    StudyPurpose,
    evaluate_study_plan,
)
from repro.core.intersection import (
    aggregate_top,
    disjunct_domains,
    intersection_matrix,
    intersection_over_time,
    pairwise_intersection,
)
from repro.core.rank_dynamics import (
    RankVariation,
    churn_by_rank,
    kendall_tau_series,
    rank_variation,
)
from repro.core.stability import (
    cumulative_unique_domains,
    daily_changes,
    days_in_list,
    intersection_with_reference,
    mean_daily_change,
    new_domains_per_day,
)
from repro.core.structure import (
    StructureSummary,
    alias_count,
    base_domain_share,
    normalise_to_base_domains,
    structure_summary,
    subdomain_depth_distribution,
    summarise_archive,
)
from repro.core.weekly import (
    sld_group_dynamics,
    weekday_weekend_ks,
    within_group_ks,
)
from repro.interning import BaseIdColumn, DomainInterner, default_interner

__all__ = [
    "BaseIdColumn",
    "CharacteristicComparison",
    "ComparisonCell",
    "ComparisonTable",
    "DomainInterner",
    "Finding",
    "RankVariation",
    "RecommendationReport",
    "Severity",
    "StructureSummary",
    "StudyPlan",
    "StudyPurpose",
    "aggregate_top",
    "alias_count",
    "archive_base_id_sets",
    "archive_id_sets",
    "archive_rank_partition_ids",
    "archive_rank_series_ids",
    "archive_sld_count_events",
    "base_domain_share",
    "churn_by_rank",
    "cumulative_unique_domains",
    "daily_changes",
    "days_in_list",
    "default_interner",
    "disjunct_domains",
    "evaluate_study_plan",
    "intersection_matrix",
    "intersection_over_time",
    "intersection_with_reference",
    "kendall_tau_series",
    "mean_daily_change",
    "new_domains_per_day",
    "normalise_to_base_domains",
    "pairwise_intersection",
    "rank_variation",
    "sld_group_dynamics",
    "snapshot_base_ids",
    "structure_summary",
    "subdomain_depth_distribution",
    "summarise_archive",
    "weekday_weekend_ks",
    "within_group_ks",
]
