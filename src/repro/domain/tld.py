"""IANA TLD registry model.

Section 5.1 of the paper counts *valid* and *invalid* top-level domains per
list against the IANA TLD directory (1,543 TLDs as of May 2018).  This
module provides a registry with the same interface: membership checks,
valid/invalid counting over a collection of domains, and coverage ratios.

The built-in registry is a curated set of real TLDs sufficient for the
synthetic population; a full ``tlds-alpha-by-domain.txt`` file can be
loaded with :meth:`TldRegistry.from_file`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

#: Number of TLDs in the IANA root zone at the paper's snapshot date
#: (May 20th, 2018); used for coverage ratios when scaling to the paper.
IANA_TLD_COUNT_MAY_2018 = 1543

_GENERIC_TLDS = (
    "com", "net", "org", "edu", "gov", "mil", "int", "info", "biz", "name",
    "mobi", "pro", "aero", "asia", "cat", "coop", "jobs", "museum", "tel",
    "travel", "xxx", "arpa", "io", "co", "me", "tv", "cc", "app", "dev",
    "xyz", "online", "site", "top", "club", "shop", "blog", "cloud", "live",
    "news", "space", "store", "tech", "website", "wiki", "win", "work",
    "agency", "life", "today", "world", "zone", "email", "network",
    "digital", "media", "systems", "solutions", "services", "academy",
    "link", "page", "art", "bank", "bar", "beer", "best", "bid", "bio",
    "build", "buzz", "cafe", "camp", "care", "cash", "casino", "center",
    "chat", "city", "clinic", "codes", "coffee", "community", "company",
    "cool", "credit", "date", "deals", "design", "direct", "dog", "domains",
    "download", "earth", "energy", "engineering", "events", "exchange",
    "expert", "express", "farm", "fashion", "finance", "fit", "fitness",
    "flights", "fun", "fund", "gallery", "games", "global", "gold", "golf",
    "group", "guide", "guru", "health", "help", "host", "house", "how",
    "ink", "institute", "international", "jewelry", "kitchen", "land",
    "lawyer", "lease", "legal", "loan", "love", "ltd", "market",
    "marketing", "mba", "menu", "money", "movie", "ninja", "one", "partners",
    "parts", "party", "photo", "photography", "photos", "pics", "pictures",
    "pizza", "plus", "press", "pub", "racing", "recipes", "red", "rent",
    "repair", "report", "rest", "restaurant", "review", "reviews", "rocks",
    "run", "sale", "school", "science", "security", "sexy", "shoes", "show",
    "singles", "ski", "soccer", "social", "software", "solar", "stream",
    "studio", "style", "支付", "support", "surf", "systems", "tax", "taxi",
    "team", "tips", "tools", "tours", "town", "toys", "trade", "training",
    "tube", "university", "uno", "vacations", "ventures", "video", "villas",
    "vip", "vision", "vote", "voyage", "watch", "webcam", "wedding", "wine",
    "works", "wtf", "yoga",
)

_COUNTRY_TLDS = (
    "ac", "ad", "ae", "af", "ag", "ai", "al", "am", "ao", "aq", "ar", "as",
    "at", "au", "aw", "ax", "az", "ba", "bb", "bd", "be", "bf", "bg", "bh",
    "bi", "bj", "bm", "bn", "bo", "br", "bs", "bt", "bw", "by", "bz", "ca",
    "cd", "cf", "cg", "ch", "ci", "ck", "cl", "cm", "cn", "cr", "cu", "cv",
    "cw", "cx", "cy", "cz", "de", "dj", "dk", "dm", "do", "dz", "ec", "ee",
    "eg", "er", "es", "et", "eu", "fi", "fj", "fk", "fm", "fo", "fr", "ga",
    "gd", "ge", "gf", "gg", "gh", "gi", "gl", "gm", "gn", "gp", "gq", "gr",
    "gt", "gu", "gw", "gy", "hk", "hm", "hn", "hr", "ht", "hu", "id", "ie",
    "il", "im", "in", "iq", "ir", "is", "it", "je", "jm", "jo", "jp", "ke",
    "kg", "kh", "ki", "km", "kn", "kp", "kr", "kw", "ky", "kz", "la", "lb",
    "lc", "li", "lk", "lr", "ls", "lt", "lu", "lv", "ly", "ma", "mc", "md",
    "mg", "mh", "mk", "ml", "mm", "mn", "mo", "mp", "mq", "mr", "ms",
    "mt", "mu", "mv", "mw", "mx", "my", "mz", "na", "nc", "ne", "nf", "ng",
    "ni", "nl", "no", "np", "nr", "nu", "nz", "om", "pa", "pe", "pf", "pg",
    "ph", "pk", "pl", "pm", "pn", "pr", "ps", "pt", "pw", "py", "qa", "re",
    "ro", "rs", "ru", "rw", "sa", "sb", "sc", "sd", "se", "sg", "sh", "si",
    "sk", "sl", "sm", "sn", "so", "sr", "ss", "st", "sv", "sx", "sy", "sz",
    "tc", "td", "tf", "tg", "th", "tj", "tk", "tl", "tm", "tn", "to", "tr",
    "tt", "tw", "tz", "ua", "ug", "uk", "us", "uy", "uz", "va", "vc", "ve",
    "vg", "vi", "vn", "vu", "wf", "ws", "ye", "yt", "za", "zm", "zw",
)


@dataclass(frozen=True)
class TldCoverage:
    """Valid/invalid TLD counts for a collection of domain names."""

    valid_tlds: int
    invalid_tlds: int
    valid_domains: int
    invalid_domains: int
    registry_size: int

    @property
    def coverage_ratio(self) -> float:
        """Fraction of the registry's TLDs present in the collection."""
        if self.registry_size == 0:
            return 0.0
        return self.valid_tlds / self.registry_size

    @property
    def invalid_domain_share(self) -> float:
        """Fraction of domains whose TLD is not in the registry."""
        total = self.valid_domains + self.invalid_domains
        if total == 0:
            return 0.0
        return self.invalid_domains / total


class TldRegistry:
    """Registry of valid top-level domains (IANA-style)."""

    def __init__(self, tlds: Iterable[str] | None = None) -> None:
        if tlds is None:
            tlds = set(_GENERIC_TLDS) | set(_COUNTRY_TLDS)
        self._tlds: set[str] = {t.strip().lower().strip(".") for t in tlds if t.strip()}

    @classmethod
    def from_file(cls, path: str) -> "TldRegistry":
        """Load a registry from an IANA ``tlds-alpha-by-domain.txt`` file."""
        tlds: list[str] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                tlds.append(line.lower())
        return cls(tlds)

    def __len__(self) -> int:
        return len(self._tlds)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._tlds))

    def __contains__(self, tld: str) -> bool:
        return self.is_valid(tld)

    def is_valid(self, tld: str) -> bool:
        """Return whether ``tld`` is a registered TLD."""
        return tld.strip().lower().strip(".") in self._tlds

    def add(self, tld: str) -> None:
        """Register an additional TLD (e.g. a newly delegated gTLD)."""
        tld = tld.strip().lower().strip(".")
        if not tld:
            raise ValueError("empty TLD")
        self._tlds.add(tld)

    def tld_of(self, domain: str) -> str:
        """Return the rightmost label of ``domain``."""
        domain = domain.strip().lower().strip(".")
        if not domain:
            raise ValueError("empty domain name")
        return domain.rsplit(".", 1)[-1]

    def _tld_counts(self, domains: Iterable[str]) -> tuple[Counter[str], Counter[str]]:
        """Domains per valid TLD and per invalid TLD (blank names skipped)."""
        valid: Counter[str] = Counter()
        invalid: Counter[str] = Counter()
        for domain in domains:
            domain = domain.strip().lower().strip(".")
            if not domain:
                continue
            tld = domain.rsplit(".", 1)[-1]
            if tld in self._tlds:
                valid[tld] += 1
            else:
                invalid[tld] += 1
        return valid, invalid

    def coverage(self, domains: Iterable[str]) -> TldCoverage:
        """Count valid and invalid TLDs over ``domains`` (Section 5.1)."""
        valid, invalid = self._tld_counts(domains)
        return TldCoverage(
            valid_tlds=len(valid),
            invalid_tlds=len(invalid),
            valid_domains=sum(valid.values()),
            invalid_domains=sum(invalid.values()),
            registry_size=len(self._tlds),
        )

    def invalid_tld_histogram(self, domains: Iterable[str]) -> Mapping[str, int]:
        """Return a mapping of invalid TLD -> number of domains using it."""
        return dict(self._tld_counts(domains)[1])
