"""Figure 6: DNS characteristics of the lists and the population over time.

Reproduces the NXDOMAIN, IPv6-adoption and CAA-adoption time series for
the three Top-1M lists and the com/net/org general population (measured
weekly, like the paper's zone scans).
"""

import numpy as np
import pytest

from bench_utils import emit
from repro.measurement.harness import TargetSet
from repro.measurement.report import daily_series


@pytest.mark.bench
def test_fig6_dns_characteristics_over_time(benchmark, bench_run, bench_harness, bench_config):
    population = TargetSet.from_zonefile(bench_run.zonefile)

    def compute():
        return daily_series(bench_harness, bench_run.archives, ("nxdomain", "ipv6", "caa"),
                            population=population, sample_every=7)

    series = benchmark.pedantic(compute, rounds=1, iterations=1)

    lines = []
    for metric, per_target in series.items():
        lines.append(f"-- {metric} (% of list entries) --")
        dates = sorted(next(iter(per_target.values())))
        lines.append(f"{'target':<14}" + "".join(f"{d.isoformat():>13}" for d in dates))
        for target, values in per_target.items():
            lines.append(f"{target:<14}" + "".join(f"{values[d]:>12.2f}%" for d in dates))
    emit("Figure 6: DNS characteristics over time", lines)

    def mean_of(metric, target):
        return float(np.mean(list(series[metric][target].values())))

    # Figure 6a: NXDOMAIN share — Umbrella and Majestic exceed the general
    # population, Alexa is essentially free of unresolvable names.
    assert mean_of("nxdomain", "umbrella") > mean_of("nxdomain", "com/net/org")
    assert mean_of("nxdomain", "majestic") > mean_of("nxdomain", "com/net/org")
    assert mean_of("nxdomain", "alexa") < mean_of("nxdomain", "com/net/org")

    # Figure 6b/6c: IPv6 and CAA adoption — every list exceeds the
    # population significantly.
    for metric in ("ipv6", "caa"):
        for target in ("alexa", "umbrella", "majestic"):
            assert mean_of(metric, target) > 1.5 * mean_of(metric, "com/net/org"), (metric, target)

    # Stability over time: the population's values barely move, while the
    # volatile lists' values change from day to day (the paper's
    # "results depend on the day the list was downloaded").
    for metric in ("ipv6", "caa"):
        population_values = list(series[metric]["com/net/org"].values())
        assert max(population_values) - min(population_values) < 1e-9

    benchmark.extra_info["means"] = {
        metric: {target: round(mean_of(metric, target), 2) for target in per_target}
        for metric, per_target in series.items()}
