"""Statistics substrate used throughout the analysis library.

Implements the statistical tools the paper relies on: Kendall's tau rank
correlation (Section 6.3), the two-sample Kolmogorov-Smirnov distance
(Section 6.2), empirical CDFs (Figures 2c and 4), Zipf weights and
sampling (the synthetic population draws its power-law popularity in
:mod:`repro.population.internet`, not through these), percentage shares
(every Table 5 percentage) and the significance-deviation marking rule used
in Table 5.
"""

from repro.stats.distributions import (
    EmpiricalCDF,
    ZipfSampler,
    empirical_cdf_points,
    zipf_weights,
)
from repro.stats.kendall import kendall_tau, kendall_tau_ranked_lists
from repro.stats.ks import ks_distance
from repro.stats.summary import (
    DeviationFlag,
    MeanStd,
    classify_deviation,
    mean_std,
    median,
    share,
)

__all__ = [
    "DeviationFlag",
    "EmpiricalCDF",
    "MeanStd",
    "ZipfSampler",
    "classify_deviation",
    "empirical_cdf_points",
    "kendall_tau",
    "kendall_tau_ranked_lists",
    "ks_distance",
    "mean_std",
    "median",
    "share",
    "zipf_weights",
]
