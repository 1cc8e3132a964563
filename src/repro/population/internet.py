"""The synthetic Internet: domains, their properties and infrastructure.

:class:`SyntheticInternet` generates, from a :class:`SimulationConfig` and
its seed, a population of domains whose *joint* distribution of
popularity, category, weekday/weekend behaviour, protocol adoption and
hosting reproduces the structural relationships the paper measures:

* popularity follows a power law (Section 6.1);
* protocol adoption (IPv6, CAA, TLS, HSTS, HTTP/2) rises steeply with
  popularity, so any top list exaggerates adoption relative to the
  general population (Section 8, Table 5);
* popular domains sit on CDNs and modern clouds, the long tail on mass
  hosters, trackers and mobile APIs on Google/AWS (Figure 7);
* leisure domains gain traffic on weekends, office platforms lose it
  (Section 6.2);
* a small share of names do not resolve, and resolver traffic contains
  junk names under invalid TLDs (Section 5.1, 8.1.1).

The generated artefacts are: the domain table, an FQDN catalogue (for
DNS-query-level ranking à la Umbrella), an authoritative
:class:`~repro.dns.zone.ZoneDatabase`, a web
:class:`~repro.web.server.HostRegistry`, and a Route-Views-style
:class:`~repro.routing.asdb.AsDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.domain.psl import PublicSuffixList
from repro.domain.tld import TldRegistry
from repro.dns.zone import ZoneDatabase
from repro.population.categories import CATEGORY_PROFILES, DomainCategory
from repro.population.config import SimulationConfig
from repro.population.infrastructure import (
    PROVIDERS,
    HostingProvider,
    build_as_database,
    ipv4_address,
    ipv6_address,
    provider_weights,
    small_hosting_providers,
)
from repro.routing.asdb import AsDatabase
from repro.web.hsts import HstsPolicy
from repro.web.server import HostRegistry, WebHost

#: TLD selection weights for generated domain names.
_TLD_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("com", 0.46), ("net", 0.07), ("org", 0.06),
    ("de", 0.05), ("uk", 0.03), ("ru", 0.03), ("br", 0.02), ("jp", 0.02),
    ("fr", 0.02), ("it", 0.015), ("nl", 0.015), ("pl", 0.01), ("in", 0.015),
    ("cn", 0.02), ("es", 0.01), ("ca", 0.01), ("au", 0.01), ("ir", 0.01),
    ("io", 0.02), ("co", 0.015), ("me", 0.01), ("tv", 0.005), ("info", 0.015),
    ("biz", 0.01), ("xyz", 0.02), ("online", 0.01), ("site", 0.01),
    ("top", 0.01), ("club", 0.01), ("shop", 0.01), ("app", 0.01),
)

#: Well-known head domains seeded into every population, with their category.
#: Includes the six example domains of Table 4.
_SEED_DOMAINS: tuple[tuple[str, DomainCategory], ...] = (
    ("google.com", DomainCategory.PORTAL),
    ("youtube.com", DomainCategory.LEISURE),
    ("facebook.com", DomainCategory.PORTAL),
    ("netflix.com", DomainCategory.LEISURE),
    ("wikipedia.org", DomainCategory.NEWS),
    ("amazon.com", DomainCategory.SHOPPING),
    ("twitter.com", DomainCategory.PORTAL),
    ("instagram.com", DomainCategory.LEISURE),
    ("microsoft.com", DomainCategory.OFFICE),
    ("sharepoint.com", DomainCategory.OFFICE),
    ("office.com", DomainCategory.OFFICE),
    ("tumblr.com", DomainCategory.LEISURE),
    ("blogspot.com", DomainCategory.LEISURE),
    ("ampproject.org", DomainCategory.CDN_INFRA),
    ("nflxso.net", DomainCategory.MOBILE_API),
    ("nessus.org", DomainCategory.SCANNER),
    ("doubleclick.net", DomainCategory.TRACKER),
    ("googlesyndication.com", DomainCategory.TRACKER),
    ("scorecardresearch.com", DomainCategory.TRACKER),
    ("jetblue.com", DomainCategory.SHOPPING),
    ("mdc.edu", DomainCategory.SMALL_BUSINESS),
    ("puresight.com", DomainCategory.SMALL_BUSINESS),
    ("baidu.com", DomainCategory.PORTAL),
    ("yahoo.com", DomainCategory.PORTAL),
    ("reddit.com", DomainCategory.LEISURE),
    ("ebay.com", DomainCategory.SHOPPING),
    ("linkedin.com", DomainCategory.OFFICE),
    ("apple.com", DomainCategory.SHOPPING),
    ("akamaihd.net", DomainCategory.CDN_INFRA),
    ("windowsupdate.com", DomainCategory.MOBILE_API),
)

#: Popularity multipliers of the seed domains (descending): the first few
#: are orders of magnitude more popular than the tail of the seed set.
_SEED_BOOSTS: tuple[float, ...] = (
    4000, 3000, 2500, 1200, 1000, 950, 900, 850, 800, 700, 650, 600, 580,
    560, 540, 500, 480, 460, 440, 2.0, 0.35, 0.06, 420, 400, 380, 360, 340,
    320, 300, 280,
)

#: Invalid-TLD junk names that show up in resolver traffic (Section 5.1
#: lists examples such as ``instagram``, ``localdomain``, ``server``,
#: ``cpe``, ``0``, ``big``, ``cs``).
_JUNK_TLDS: tuple[str, ...] = (
    "localdomain", "local", "server", "cpe", "0", "big", "cs", "internal",
    "lan", "home", "corp", "workgroup", "belkin", "dlink", "router",
    "localhost", "intranet", "domain", "invalid", "example-internal",
)

#: Heavily-queried names of discontinued services (the paper's example is
#: ``teredo.ipv6.microsoft.com``): they resolve to NXDOMAIN yet rank highly
#: in DNS-based lists.
_DISCONTINUED_FQDNS: tuple[str, ...] = (
    "teredo.ipv6.microsoft.com",
    "isatap.ipv6.microsoft.com",
    "time.windows-legacy.net",
    "update.old-antivirus.com",
)

_NAME_SYLLABLES = (
    "al", "an", "ar", "ba", "be", "bo", "ca", "ce", "co", "da", "de", "di",
    "do", "el", "en", "er", "fa", "fi", "fo", "ga", "ge", "go", "ha", "he",
    "ho", "in", "is", "ka", "ke", "ko", "la", "le", "li", "lo", "ma", "me",
    "mi", "mo", "na", "ne", "no", "or", "pa", "pe", "po", "ra", "re", "ri",
    "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "ur", "va", "ve",
    "vi", "vo", "wa", "we", "za", "ze",
)

_SUBDOMAIN_LABELS = (
    "www", "api", "cdn", "static", "img", "mail", "m", "app", "login",
    "shop", "blog", "news", "video", "media", "assets", "edge", "push",
    "metrics", "telemetry", "events", "beacon", "ads", "track", "collect",
    "config", "sync", "update", "dl", "files", "ws", "gateway", "device",
    "node", "pool", "mta", "smtp", "ns1", "ns2", "vpn", "portal",
)


@dataclass(frozen=True)
class Subdomain:
    """One FQDN below a base domain, with its share of the domain's queries.

    ``exists`` is False for stale endpoints (decommissioned API hosts,
    renamed services) that legacy clients keep querying — a source of the
    high NXDOMAIN share of DNS-query-based lists (Section 8.1.1).
    """

    fqdn: str
    depth: int
    dns_share: float
    exists: bool = True


@dataclass
class Domain:
    """A base domain of the synthetic population and all its properties."""

    index: int
    name: str
    tld: str
    category: DomainCategory
    birth_day: int
    exists: bool
    dead: bool
    base_weight: float
    weekend_factor: float
    provider: HostingProvider
    ipv4: str
    ipv6: Optional[str]
    ipv6_enabled: bool
    caa_enabled: bool
    cdn_provider: Optional[str]
    cdn_cname: Optional[str]
    tls_enabled: bool
    hsts_enabled: bool
    http2_enabled: bool
    subdomains: tuple[Subdomain, ...]

    @property
    def sld(self) -> str:
        """Label left of the public suffix (group key of Section 6.2)."""
        return self.name.split(".")[0]

    @property
    def is_com_net_org(self) -> bool:
        """Whether the domain belongs to the paper's 'general population'."""
        return self.tld in ("com", "net", "org")

    @property
    def mobile(self) -> bool:
        """Whether Lumen-style mobile monitoring would flag this domain."""
        return CATEGORY_PROFILES[self.category].mobile

    @property
    def blacklisted(self) -> bool:
        """Whether hpHosts-style blacklists would flag this domain."""
        return CATEGORY_PROFILES[self.category].blacklisted


@dataclass(frozen=True)
class FqdnEntry:
    """One entry of the FQDN catalogue the DNS traffic is drawn over."""

    fqdn: str
    domain_index: int  # -1 for junk names not tied to a population domain
    depth: int
    exists: bool


class SyntheticInternet:
    """Seeded synthetic Internet with domains, DNS, web hosts and routing."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.psl = PublicSuffixList()
        self.tld_registry = TldRegistry()
        self.domains: list[Domain] = []
        self.fqdns: list[FqdnEntry] = []
        self._fqdn_weights: np.ndarray = np.empty(0)
        self._build_domains()
        self._build_fqdn_catalogue()
        self.asdb: AsDatabase = build_as_database()
        self.zone: ZoneDatabase = self._build_zone()
        self.hosts: HostRegistry = self._build_hosts()

    # ------------------------------------------------------------------
    # Domain generation
    # ------------------------------------------------------------------
    def _random_name(self, existing: set[str]) -> tuple[str, str]:
        """Generate a fresh ``(base_domain, tld)`` pair."""
        rng = self._rng
        if not hasattr(self, "_tld_names"):
            self._tld_names = [t for t, _ in _TLD_WEIGHTS]
            probs = np.array([w for _, w in _TLD_WEIGHTS], dtype=float)
            self._tld_cumprobs = np.cumsum(probs / probs.sum())
        for _ in range(64):
            n_syllables = int(rng.integers(2, 5))
            idx = rng.integers(0, len(_NAME_SYLLABLES), size=n_syllables)
            label = "".join(_NAME_SYLLABLES[int(i)] for i in idx)
            if rng.random() < 0.15:
                label += str(rng.integers(1, 99))
            tld = self._tld_names[int(np.searchsorted(self._tld_cumprobs, rng.random()))]
            name = f"{label}.{tld}"
            if name not in existing:
                return name, tld
        # Fall back to an index-suffixed name; collisions are now impossible.
        label = f"domain{len(existing)}"
        tld = "com"
        return f"{label}.{tld}", tld

    def _alias_name(self, base_sld: str, existing: set[str]) -> Optional[tuple[str, str]]:
        """Derive an alias (same SLD, different TLD) for a brand domain."""
        rng = self._rng
        tlds = [t for t, _ in _TLD_WEIGHTS]
        order = rng.permutation(len(tlds))
        tlds = [tlds[int(i)] for i in order]
        for tld in tlds:
            name = f"{base_sld}.{tld}"
            if name not in existing:
                return name, tld
        return None

    def _pick_categories(self, n: int) -> list[DomainCategory]:
        profiles = list(CATEGORY_PROFILES.values())
        probs = np.array([p.share_of_population for p in profiles])
        probs = probs / probs.sum()
        picks = self._rng.choice(len(profiles), size=n, p=probs)
        return [profiles[i].category for i in picks]

    def _build_domains(self) -> None:
        config = self.config
        rng = self._rng
        n_total = config.total_domains()
        n_seed = min(len(_SEED_DOMAINS), n_total)

        names: list[str] = []
        tlds: list[str] = []
        categories: list[DomainCategory] = []
        existing: set[str] = set()

        for name, category in _SEED_DOMAINS[:n_seed]:
            names.append(name)
            tlds.append(name.rsplit(".", 1)[-1])
            categories.append(category)
            existing.add(name)

        generated_categories = self._pick_categories(n_total - n_seed)
        alias_budget = int(0.04 * n_total)
        aliases_created = 0
        for i in range(n_total - n_seed):
            # Occasionally reuse an earlier SLD under a different TLD to
            # create domain aliases (google.com / google.de style, ~4-5%).
            if aliases_created < alias_budget and names and rng.random() < 0.05:
                source = names[int(rng.integers(0, len(names)))]
                alias = self._alias_name(source.split(".")[0], existing)
                if alias is not None:
                    name, tld = alias
                    names.append(name)
                    tlds.append(tld)
                    categories.append(generated_categories[i])
                    existing.add(name)
                    aliases_created += 1
                    continue
            name, tld = self._random_name(existing)
            names.append(name)
            tlds.append(tld)
            categories.append(generated_categories[i])
            existing.add(name)

        # Popularity: Zipf weights over a random permutation, boosted by the
        # category's head-affinity, with the seed domains pinned to the top.
        ranks = rng.permutation(n_total) + 1
        weights = ranks.astype(float) ** (-config.zipf_exponent)
        boost = np.array([
            CATEGORY_PROFILES[cat].popularity_boost ** rng.uniform(0.4, 1.0)
            for cat in categories
        ])
        weights = weights * boost
        # Pin the seed domains to the head: the most boosted seed sits a
        # comfortable factor above the best generated domain, and the rest
        # scale down proportionally (jetblue/mdc/puresight end up mid-list
        # and near the list boundary, reproducing Table 4's spread).
        head_weight = float(weights[n_seed:].max()) * 50.0 if n_total > n_seed else 1.0
        for i in range(n_seed):
            weights[i] = head_weight * _SEED_BOOSTS[i] / max(_SEED_BOOSTS)
        weights = weights / weights.sum()

        # Popularity percentile (1.0 = most popular) drives adoption and tier.
        order = np.argsort(-weights)
        percentile = np.empty(n_total)
        percentile[order] = 1.0 - np.arange(n_total) / max(1, n_total - 1)

        # Birth days: the initial population exists from day 0; the rest are
        # born uniformly over the simulated period.
        birth_days = np.zeros(n_total, dtype=int)
        if n_total > config.n_domains:
            born = np.sort(rng.integers(1, config.n_days + 1,
                                        size=n_total - config.n_domains))
            birth_days[config.n_domains:] = born

        exists_draw = rng.random(n_total)
        dead_draw = rng.random(n_total)

        weekend_jitter = rng.lognormal(mean=0.0, sigma=0.08, size=n_total)

        self.domains = []
        for i in range(n_total):
            category = categories[i]
            profile = CATEGORY_PROFILES[category]
            pct = float(percentile[i])
            tier = "head" if pct > 0.90 else "tail"
            provider = self._pick_provider(tier, category)
            modernity = provider.modernity

            is_seed = i < n_seed
            # Dead-but-still-linked domains concentrate among formerly
            # popular sites, which is what keeps them inside link-based
            # lists (Majestic's elevated NXDOMAIN share, Section 8.1.1).
            dead = (not is_seed) and dead_draw[i] < config.dead_domain_share * 3.0 * pct ** 2
            exists = (not dead) and (is_seed or exists_draw[i] >= config.nxdomain_population_share)

            ipv6_enabled = exists and rng.random() < self._adoption(0.030, 0.45, 12.0, pct, modernity)
            caa_enabled = exists and rng.random() < self._adoption(0.001, 0.45, 60.0, pct, modernity)
            tls_enabled = exists and rng.random() < self._adoption(0.32, 0.60, 4.0, pct, modernity)
            hsts_enabled = tls_enabled and rng.random() < self._adoption(0.06, 0.30, 8.0, pct, modernity)
            uses_cdn_cname = (
                exists and provider.cdn_provider is not None
                and rng.random() < (0.80 if tier == "head" else 0.06)
            )
            http2_enabled = tls_enabled and rng.random() < self._adoption(
                0.05, 0.55, 10.0, pct, modernity * (1.6 if uses_cdn_cname else 1.0))

            cdn_provider = provider.cdn_provider if uses_cdn_cname else None
            cdn_cname = None
            if uses_cdn_cname and provider.cname_suffix:
                cdn_cname = f"{names[i].split('.')[0]}.{provider.cname_suffix}"

            weekend_factor = profile.weekend_factor * float(weekend_jitter[i])

            domain = Domain(
                index=i,
                name=names[i],
                tld=tlds[i],
                category=category,
                birth_day=int(birth_days[i]),
                exists=bool(exists),
                dead=bool(dead),
                base_weight=float(weights[i]),
                weekend_factor=weekend_factor,
                provider=provider,
                ipv4=ipv4_address(provider, i),
                ipv6=ipv6_address(provider, i) if ipv6_enabled else None,
                ipv6_enabled=bool(ipv6_enabled),
                caa_enabled=bool(caa_enabled),
                cdn_provider=cdn_provider,
                cdn_cname=cdn_cname,
                tls_enabled=bool(tls_enabled),
                hsts_enabled=bool(hsts_enabled),
                http2_enabled=bool(http2_enabled),
                subdomains=self._make_subdomains(names[i], category),
            )
            self.domains.append(domain)

        self._percentile = percentile

    def _pick_provider(self, tier: str, category: DomainCategory) -> HostingProvider:
        rng = self._rng
        if not hasattr(self, "_small_hosters"):
            self._small_hosters = small_hosting_providers()
        # A large slice of the long tail sits on small, otherwise anonymous
        # hosting providers; popular domains almost never do.  This is what
        # makes the general population hit far more origin ASes than any
        # top list (Table 5's "Unique AS" rows).
        small_probability = {"head": 0.03, "tail": 0.40}[tier]
        if category in (DomainCategory.TRACKER, DomainCategory.MOBILE_API,
                        DomainCategory.CDN_INFRA):
            small_probability = 0.05
        if rng.random() < small_probability:
            return self._small_hosters[int(rng.integers(0, len(self._small_hosters)))]
        weights = np.array(provider_weights(tier, category), dtype=float)
        weights = weights / weights.sum()
        idx = int(rng.choice(len(PROVIDERS), p=weights))
        return PROVIDERS[idx]

    @staticmethod
    def _adoption(base: float, amplitude: float, decay: float, pct: float,
                  modernity: float) -> float:
        """Adoption probability for a domain at popularity percentile ``pct``.

        Adoption falls off exponentially away from the head of the
        popularity distribution: ``base + amplitude * exp(-decay * (1 -
        pct))``, scaled by the hosting infrastructure's modernity.  Large
        ``decay`` produces the orders-of-magnitude head-vs-population gaps
        the paper reports for CAA; small ``decay`` the gentler gaps of TLS.
        """
        p = base + amplitude * np.exp(-decay * (1.0 - pct)) * min(1.5, modernity) / 1.5
        return float(min(0.99, max(0.0, p)))

    def _make_subdomains(self, name: str, category: DomainCategory) -> tuple[Subdomain, ...]:
        """Generate the FQDNs below ``name`` and their DNS-query shares."""
        rng = self._rng
        subdomains: list[Subdomain] = []
        if category in (DomainCategory.TRACKER, DomainCategory.MOBILE_API,
                        DomainCategory.CDN_INFRA):
            count = int(rng.integers(4, 9))
            max_extra_depth = 4
            stale_probability = 0.18
        elif category in (DomainCategory.PORTAL, DomainCategory.LEISURE,
                          DomainCategory.OFFICE):
            count = int(rng.integers(2, 5))
            max_extra_depth = 2
            stale_probability = 0.08
        else:
            count = int(rng.integers(0, 2))
            max_extra_depth = 1
            stale_probability = 0.05
        labels = list(rng.choice(_SUBDOMAIN_LABELS, size=min(count, len(_SUBDOMAIN_LABELS)),
                                 replace=False))
        if "www" not in labels and rng.random() < 0.8:
            labels.insert(0, "www")
        for label in labels:
            depth = 1
            fqdn = f"{label}.{name}"
            if max_extra_depth > 1 and rng.random() < 0.35:
                extra = int(rng.integers(1, max_extra_depth))
                for level in range(extra):
                    part = str(rng.choice(_SUBDOMAIN_LABELS))
                    if rng.random() < 0.3:
                        part = f"{part}{rng.integers(0, 100)}"
                    fqdn = f"{part}.{fqdn}"
                    depth += 1
            share = float(rng.uniform(0.05, 0.9)) * (1.5 if label == "www" else 1.0)
            exists = label == "www" or rng.random() >= stale_probability
            subdomains.append(Subdomain(fqdn=fqdn, depth=depth, dns_share=share,
                                        exists=exists))
        return tuple(subdomains)

    # ------------------------------------------------------------------
    # FQDN catalogue (DNS-query universe)
    # ------------------------------------------------------------------
    def _build_fqdn_catalogue(self) -> None:
        rng = self._rng
        entries: list[FqdnEntry] = []
        weights: list[float] = []
        seen: set[str] = set()

        def append(entry: FqdnEntry, weight: float) -> None:
            if entry.fqdn in seen:
                return
            seen.add(entry.fqdn)
            entries.append(entry)
            weights.append(weight)

        for domain in self.domains:
            profile = CATEGORY_PROFILES[domain.category]
            dns_weight = domain.base_weight * profile.dns_factor
            if not domain.exists:
                # Shut-down domains keep receiving queries from stale links
                # and legacy clients, but far fewer than a live service.
                dns_weight *= 0.2
            append(FqdnEntry(fqdn=domain.name, domain_index=domain.index,
                             depth=0, exists=domain.exists), dns_weight)
            for sub in domain.subdomains:
                # Stale endpoints are only queried by lingering legacy
                # clients, so their query weight is a fraction of a live
                # subdomain's.
                weight = dns_weight * sub.dns_share * (1.0 if sub.exists else 0.15)
                append(FqdnEntry(fqdn=sub.fqdn, domain_index=domain.index,
                                 depth=sub.depth,
                                 exists=domain.exists and sub.exists),
                       weight)

        # Junk names under invalid TLDs: misconfigured resolvers/hosts query
        # them broadly, so they end up in DNS-based rankings.
        total_weight = float(np.sum(weights))
        junk_budget = total_weight * self.config.invalid_tld_fraction
        n_junk = max(len(_JUNK_TLDS), int(0.015 * len(self.domains)))
        junk_weights = rng.dirichlet(np.ones(n_junk) * 3.0) * junk_budget
        # Junk names are queried by many misconfigured clients, but never by
        # as many distinct clients as genuinely popular services: clamp their
        # weights to the upper-middle of the organic weight distribution so
        # they populate the body of a DNS-based Top 1M without reaching any
        # Top 1k (matching Section 5.1's observations).
        organic = np.array([w for w in weights if w > 0])
        if organic.size:
            lower = float(np.quantile(organic, 0.90))
            upper = float(np.quantile(organic, 0.965))
            junk_weights = np.clip(junk_weights, lower, upper)
        for j in range(n_junk):
            tld = _JUNK_TLDS[j % len(_JUNK_TLDS)]
            if j < len(_JUNK_TLDS):
                fqdn = tld
                depth = 0
            else:
                label = "".join(
                    _NAME_SYLLABLES[int(k)]
                    for k in rng.integers(0, len(_NAME_SYLLABLES), size=2))
                fqdn = f"{label}{j}.{tld}"
                depth = 1
            append(FqdnEntry(fqdn=fqdn, domain_index=-1, depth=depth, exists=False),
                   float(junk_weights[j]))

        # Discontinued but heavily queried services (legacy clients).
        for i, fqdn in enumerate(_DISCONTINUED_FQDNS):
            append(FqdnEntry(fqdn=fqdn, domain_index=-1, depth=fqdn.count("."),
                             exists=False), total_weight * 0.004 / (i + 1))

        self.fqdns = entries
        self._fqdn_weights = np.array(weights, dtype=float)

    # ------------------------------------------------------------------
    # Zone, hosts, routing
    # ------------------------------------------------------------------
    def _build_zone(self) -> ZoneDatabase:
        zone = ZoneDatabase()
        for domain in self.domains:
            if not domain.exists:
                continue
            zone.add_address(domain.name, domain.ipv4, ttl=300)
            if domain.ipv6_enabled and domain.ipv6:
                zone.add_address(domain.name, domain.ipv6, ttl=300)
            if domain.caa_enabled:
                zone.add_caa(domain.name, "issue", "letsencrypt.org")
            if domain.cdn_cname:
                zone.add_cname(f"www.{domain.name}", domain.cdn_cname, ttl=300)
                zone.add_address(domain.cdn_cname, domain.ipv4, ttl=60)
                if domain.ipv6_enabled and domain.ipv6:
                    zone.add_address(domain.cdn_cname, domain.ipv6, ttl=60)
            else:
                zone.add_address(f"www.{domain.name}", domain.ipv4, ttl=300)
                if domain.ipv6_enabled and domain.ipv6:
                    zone.add_address(f"www.{domain.name}", domain.ipv6, ttl=300)
            for sub in domain.subdomains:
                if sub.fqdn == f"www.{domain.name}" or not sub.exists:
                    continue
                if domain.cdn_cname:
                    # CDN customers typically point their service hostnames
                    # at the CDN edge as well (static.example.com ->
                    # example.akamaiedge.net), which is how CDN use becomes
                    # visible when resolving FQDN-level list entries.
                    zone.add_cname(sub.fqdn, domain.cdn_cname, ttl=300)
                    continue
                zone.add_address(sub.fqdn, domain.ipv4, ttl=300)
                if domain.ipv6_enabled and domain.ipv6:
                    zone.add_address(sub.fqdn, domain.ipv6, ttl=300)
        return zone

    def _build_hosts(self) -> HostRegistry:
        registry = HostRegistry()
        for domain in self.domains:
            if not domain.exists:
                continue
            hsts = HstsPolicy(max_age=31536000, include_subdomains=True) if domain.hsts_enabled else None
            host = WebHost(
                domain=domain.name,
                tls_enabled=domain.tls_enabled,
                tls_version="TLSv1.2" if domain.tls_enabled else None,
                hsts_policy=hsts,
                http2_enabled=domain.http2_enabled,
                serves_content=True,
            )
            registry.add(host)
            # Live subdomains are served by the same infrastructure, so
            # probing an FQDN (as one must for the DNS-based list) reaches
            # an equivalent endpoint.
            for sub in domain.subdomains:
                if not sub.exists or sub.fqdn == f"www.{domain.name}":
                    continue
                registry.add(WebHost(
                    domain=sub.fqdn,
                    tls_enabled=domain.tls_enabled,
                    tls_version="TLSv1.2" if domain.tls_enabled else None,
                    hsts_policy=hsts,
                    http2_enabled=domain.http2_enabled,
                    serves_content=True,
                ))
        return registry

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.domains)

    def domain_by_name(self, name: str) -> Optional[Domain]:
        """Return the domain object for a base-domain name, if it exists."""
        if not hasattr(self, "_by_name"):
            self._by_name = {d.name: d for d in self.domains}
        return self._by_name.get(name.strip().lower().rstrip("."))

    def popularity_percentile(self, index: int) -> float:
        """Popularity percentile (1.0 = most popular) of domain ``index``."""
        return float(self._percentile[index])

    def active_indices(self, day: int) -> np.ndarray:
        """Indices of domains already born on simulation day ``day``."""
        births = np.array([d.birth_day for d in self.domains])
        return np.where(births <= day)[0]

    def fqdn_weights(self) -> np.ndarray:
        """Raw DNS-query weights of the FQDN catalogue (not normalised)."""
        return self._fqdn_weights.copy()

    def com_net_org_domains(self) -> list[Domain]:
        """The paper's 'general population': all com/net/org base domains."""
        return [d for d in self.domains if d.is_com_net_org]
