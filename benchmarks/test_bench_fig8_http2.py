"""Figure 8: HTTP/2 adoption over time per list and for the population.

Reproduces the HTTP/2 adoption time series for the Top-1k and Top-1M
scopes of every list and the com/net/org population: adoption in top lists
(especially the Top-1k heads) far exceeds the general population, and the
volatile lists' curves move with the weekday.
"""

import numpy as np
import pytest

from bench_utils import emit
from repro.measurement.harness import TargetSet
from repro.measurement.report import daily_series


@pytest.mark.bench
def test_fig8_http2_adoption_over_time(benchmark, bench_run, bench_harness, bench_config):
    top_k = bench_config.top_k
    population = TargetSet.from_zonefile(bench_run.zonefile)

    def compute():
        full = daily_series(bench_harness, bench_run.archives, ("http2",),
                            population=population, sample_every=4)
        heads = daily_series(bench_harness, bench_run.archives, ("http2",),
                             top_n=top_k, sample_every=4)
        return {**full["http2"], **heads["http2"]}

    series = benchmark.pedantic(compute, rounds=1, iterations=1)

    dates = sorted(series["com/net/org"])
    lines = [f"{'target':<16}" + "".join(f"{d.isoformat():>13}" for d in dates)]
    for target, values in series.items():
        lines.append(f"{target:<16}"
                     + "".join(f"{values.get(d, float('nan')):>12.1f}%" for d in dates))
    emit("Figure 8: HTTP/2 adoption over time", lines)

    def mean_of(target):
        return float(np.mean(list(series[target].values())))

    population_mean = mean_of("com/net/org")
    # Paper shape: ~8% adoption in the population, up to ~27% for Top-1M
    # lists and ~35-48% for Top-1k lists.
    for name in ("alexa", "umbrella", "majestic"):
        assert mean_of(name) > 1.5 * population_mean
        assert mean_of(f"{name}-{top_k}") > mean_of(name)
    assert population_mean < 15.0

    benchmark.extra_info["mean_adoption"] = {
        target: round(mean_of(target), 1) for target in series}
