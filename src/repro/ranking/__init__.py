"""Ranking-mechanism experiments (Section 7).

Implements the controlled experiments the paper runs against the three
lists' ranking mechanisms:

* :mod:`repro.ranking.atlas` — a RIPE-Atlas-style probe fleet that
  generates DNS measurement traffic towards a test name.
* :mod:`repro.ranking.manipulation` — the Umbrella rank-injection grid
  (probe count x query frequency, Figure 5), the TTL sweep, the
  Majestic backlink-purchase experiment and the Alexa panel-injection
  estimate.
* :mod:`repro.ranking.toolbar` — a model of the Alexa toolbar's telemetry
  (what data it transmits, which URLs are anonymised), as reverse
  engineered in Section 7.1.
"""

from repro.ranking.atlas import ProbeFleet, ProbeMeasurement
from repro.ranking.manipulation import (
    AlexaPanelInjectionExperiment,
    MajesticBacklinkExperiment,
    UmbrellaInjectionExperiment,
    UmbrellaTtlExperiment,
)
from repro.ranking.toolbar import AlexaToolbar, ToolbarTelemetry

__all__ = [
    "AlexaPanelInjectionExperiment",
    "AlexaToolbar",
    "MajesticBacklinkExperiment",
    "ProbeFleet",
    "ProbeMeasurement",
    "ToolbarTelemetry",
    "UmbrellaInjectionExperiment",
    "UmbrellaTtlExperiment",
]
