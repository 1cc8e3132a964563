"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper on the
``SimulationConfig.benchmark()`` dataset (scaled-down Top-1M lists over a
4-week JOINT period with an Alexa structural change on day 18).  The
simulation and the measurement harness are built once per session.
"""

from __future__ import annotations

import pytest

from repro.measurement.harness import MeasurementHarness
from repro.population.config import SimulationConfig
from repro.providers.simulation import SimulationRun, run_simulation


def pytest_configure(config):  # noqa: D103 - pytest hook
    config.addinivalue_line("markers", "bench: paper table/figure reproduction benchmark")


@pytest.fixture(scope="session")
def bench_config() -> SimulationConfig:
    """The benchmark-scale simulation configuration."""
    return SimulationConfig.benchmark()


@pytest.fixture(scope="session")
def bench_run(bench_config: SimulationConfig) -> SimulationRun:
    """The simulated JOINT dataset used by every benchmark."""
    return run_simulation(bench_config)


@pytest.fixture(scope="session")
def bench_harness(bench_run: SimulationRun) -> MeasurementHarness:
    """Measurement harness bound to the benchmark Internet."""
    return MeasurementHarness(bench_run.internet)
