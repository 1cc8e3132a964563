"""Shared fixtures.

The expensive artefacts (synthetic Internet, simulation run, measurement
harness) are session-scoped and reused by every analysis/integration
test, so the suite stays fast despite exercising the full pipeline.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.domain.psl import default_list
from repro.measurement.dns_measure import DnsMeasurement
from repro.measurement.harness import MeasurementHarness
from repro.population.config import SimulationConfig
from repro.population.internet import SyntheticInternet
from repro.population.traffic import TrafficSimulator
from repro.providers.simulation import SimulationRun, run_simulation
from repro.routing.asdb import AsDatabase


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-scale", action="store_true", default=False,
        help="run scale-tier tests (marked 'scale'; 100k- and 1M-entry "
             "corpora and timing floors — see `make test-scale`)")


def pytest_collection_modifyitems(config: pytest.Config, items) -> None:
    """Tier-1 skips ``scale``-marked tests unless explicitly enabled.

    The tier builds 100k- and 1M-entry corpora and holds timing floors
    a busy machine could trip; it belongs in its own CI job (and
    ``make test-scale``), not on every local run.
    """
    if config.getoption("--run-scale"):
        return
    skip = pytest.mark.skip(reason="scale tier; enable with --run-scale")
    for item in items:
        if "scale" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def small_config() -> SimulationConfig:
    """The small simulation configuration used across the test suite.

    Includes an Alexa structural change on day 9 so both regimes are
    exercised.
    """
    return SimulationConfig.small(alexa_change_day=9)


@pytest.fixture(scope="session")
def small_run(small_config: SimulationConfig) -> SimulationRun:
    """A fully simulated observation period (archives for all providers)."""
    return run_simulation(small_config)


@pytest.fixture(scope="session")
def bench_run() -> SimulationRun:
    """The 30-day benchmark-scale run behind the ``scale`` speed floors."""
    return run_simulation(SimulationConfig.benchmark(n_days=30))


@pytest.fixture(scope="session")
def internet(small_run: SimulationRun) -> SyntheticInternet:
    """The synthetic Internet behind the small run."""
    return small_run.internet


@pytest.fixture(scope="session")
def traffic(small_run: SimulationRun) -> TrafficSimulator:
    """The traffic simulator behind the small run."""
    return small_run.traffic


@pytest.fixture(scope="session")
def harness(small_run: SimulationRun) -> MeasurementHarness:
    """A measurement harness bound to the small run's Internet."""
    return MeasurementHarness(small_run.internet)


@pytest.fixture()
def measure_zone():
    """Run the Section-8.1 DNS measurement over a hand-built zone.

    Returns ``measure(zone, names, asdb=None, cdn_detector=None)``, the
    :class:`~repro.measurement.dns_measure.DnsCharacteristics` that
    Figure 7 and Table 5 read, for small hand-checkable inputs.
    """
    def measure(zone, names, asdb=None, cdn_detector=None):
        internet = SimpleNamespace(zone=zone, asdb=asdb or AsDatabase(), psl=default_list())
        return DnsMeasurement(internet, cdn_detector=cdn_detector).measure(names)
    return measure
