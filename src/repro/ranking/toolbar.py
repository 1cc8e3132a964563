"""Model of the Alexa toolbar's telemetry (Section 7.1).

The paper reverse engineers the Alexa browser toolbar and reports that it

* fetches a unique identifier (``aid``) stored in the browser and used to
  track the device,
* collects demographic attributes at install time (age, gender, household
  income, ethnicity, education, children, install location),
* transmits, for every visited page: the full URL (including GET
  parameters), screen/page sizes, referer, window/tab IDs and timing
  metrics — except for a small set of search/shopping sites whose URLs
  are anonymised to their host name,
* only reports a visit if the page actually loaded.

This module models exactly that behaviour so that panel-privacy questions
("what would Alexa learn from this browsing session?") can be analysed
programmatically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import urlsplit

#: Hosts whose URLs the toolbar anonymises to the host name
#: (the paper lists 8 search-engine and shopping URLs as of 2018-05-17).
ANONYMISED_HOSTS: frozenset[str] = frozenset({
    "google.com", "www.google.com",
    "instacart.com", "www.instacart.com",
    "shop.rewe.de",
    "youtube.com", "www.youtube.com",
    "search.yahoo.com",
    "jet.com", "www.jet.com",
    "ocado.com", "www.ocado.com",
})

#: Demographic attributes requested at install time.
DEMOGRAPHIC_FIELDS: tuple[str, ...] = (
    "age", "gender", "household_income", "ethnicity", "education",
    "children", "install_location",
)


@dataclass(frozen=True)
class ToolbarTelemetry:
    """One telemetry record sent to the Alexa backend for a page visit."""

    aid: str
    url: str
    anonymised: bool
    referer: Optional[str]
    screen_size: tuple[int, int]
    page_size: tuple[int, int]
    window_id: int
    tab_id: int
    load_time_ms: float

    @property
    def host(self) -> str:
        """Host part of the transmitted URL."""
        return urlsplit(self.url).netloc or self.url


@dataclass
class AlexaToolbar:
    """A toolbar installation bound to one device/browser profile."""

    demographics: dict[str, str] = field(default_factory=dict)
    screen_size: tuple[int, int] = (1920, 1080)
    _aid: Optional[str] = None
    _telemetry: list[ToolbarTelemetry] = field(default_factory=list)

    def __post_init__(self) -> None:
        unknown = set(self.demographics) - set(DEMOGRAPHIC_FIELDS)
        if unknown:
            raise ValueError(f"unknown demographic fields: {sorted(unknown)}")

    @property
    def aid(self) -> str:
        """The unique installation identifier (fetched on first use)."""
        if self._aid is None:
            seed = repr(sorted(self.demographics.items())) + repr(self.screen_size)
            self._aid = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:32]
        return self._aid

    @property
    def telemetry(self) -> list[ToolbarTelemetry]:
        """All telemetry records transmitted so far."""
        return list(self._telemetry)

    @staticmethod
    def _anonymise(url: str) -> tuple[str, bool]:
        parts = urlsplit(url if "//" in url else f"https://{url}")
        host = parts.netloc.lower()
        if host in ANONYMISED_HOSTS:
            return f"{parts.scheme}://{host}/", True
        return url, False

    def visit(self, url: str, loaded: bool = True, referer: Optional[str] = None,
              page_size: tuple[int, int] = (1280, 4000), window_id: int = 1,
              tab_id: int = 1, load_time_ms: float = 350.0) -> Optional[ToolbarTelemetry]:
        """Record a page visit; returns the transmitted record or ``None``.

        Nothing is transmitted when the page did not load (the injected
        JavaScript never runs), matching the paper's observation.
        """
        if not loaded:
            return None
        transmitted_url, anonymised = self._anonymise(url)
        transmitted_referer = referer
        if referer is not None:
            transmitted_referer, _ = self._anonymise(referer)
        record = ToolbarTelemetry(
            aid=self.aid, url=transmitted_url, anonymised=anonymised,
            referer=transmitted_referer, screen_size=self.screen_size,
            page_size=page_size, window_id=window_id, tab_id=tab_id,
            load_time_ms=load_time_ms,
        )
        self._telemetry.append(record)
        return record

    def visited_hosts(self) -> list[str]:
        """Hosts Alexa learns this installation visited."""
        return [record.host for record in self._telemetry]

