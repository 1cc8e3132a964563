"""Structure analysis of top lists (Section 5.1, Table 2).

Answers, for a single snapshot or an archive: how many valid and invalid
TLDs does the list cover, how many of its entries are base domains, how
deep do its subdomains go, and how many domain aliases (same second-level
label under different TLDs) does it contain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.domain.name import DomainName
from repro.domain.psl import PublicSuffixList, default_list
from repro.domain.tld import TldCoverage, TldRegistry
from repro.providers.base import ListArchive, ListSnapshot
from repro.stats.summary import MeanStd, mean_std

_DEFAULT_PSL = default_list()
_DEFAULT_REGISTRY = TldRegistry()


@dataclass(frozen=True)
class StructureSummary:
    """Structure metrics of one list snapshot (one Table 2 row, one day)."""

    provider: str
    size: int
    valid_tlds: int
    invalid_tlds: int
    invalid_tld_domains: int
    base_domains: int
    depth_shares: Mapping[int, float]
    max_depth: int
    aliases: int

    @property
    def base_domain_share(self) -> float:
        """Fraction of entries that are base domains (µBD / list size)."""
        return self.base_domains / self.size if self.size else 0.0


def normalise_to_base_domains(names: Iterable[str],
                              psl: Optional[PublicSuffixList] = None) -> set[str]:
    """Reduce ``names`` to their unique base domains (footnote 6 of the paper).

    Names that *are* a public suffix (or an invalid single label) are kept
    as-is so they are not silently dropped from intersection analyses.
    """
    psl = psl or _DEFAULT_PSL
    result: set[str] = set()
    for name in names:
        parsed = DomainName.parse(name, psl=psl)
        result.add(parsed.base if parsed.base is not None else parsed.name)
    return result


def base_domain_share(names: Iterable[str],
                      psl: Optional[PublicSuffixList] = None) -> float:
    """Fraction of ``names`` that are base domains (not subdomains)."""
    psl = psl or _DEFAULT_PSL
    names = list(names)
    if not names:
        return 0.0
    base = sum(1 for name in names if DomainName.parse(name, psl=psl).depth == 0)
    return base / len(names)


def subdomain_depth_distribution(names: Iterable[str],
                                 psl: Optional[PublicSuffixList] = None
                                 ) -> tuple[Mapping[int, float], int]:
    """Return (share per subdomain depth, maximum depth) for ``names``.

    Depth 0 means the entry is a base domain (or a bare suffix); depth 1 a
    first-level subdomain, and so on (Table 2's SD1/SD2/SD3/SDM columns).
    """
    psl = psl or _DEFAULT_PSL
    counts: Counter[int] = Counter()
    total = 0
    for name in names:
        depth = DomainName.parse(name, psl=psl).depth
        counts[depth] += 1
        total += 1
    if total == 0:
        return {}, 0
    shares = {depth: count / total for depth, count in sorted(counts.items())}
    return shares, max(counts)


def alias_count(names: Iterable[str],
                psl: Optional[PublicSuffixList] = None) -> int:
    """Number of domain aliases (DUPSLD in Table 2).

    A group of distinct *base domains* sharing the same second-level label
    under different public suffixes (google.com, google.de, ...)
    contributes ``group size - 1`` aliases: the extra registrations beyond
    the first.  Subdomains of the same base domain are not aliases.
    """
    psl = psl or _DEFAULT_PSL
    groups: dict[str, set[str]] = {}
    for name in names:
        parsed = DomainName.parse(name, psl=psl)
        if parsed.base is None or parsed.sld is None:
            continue
        groups.setdefault(parsed.sld, set()).add(parsed.base)
    return sum(len(bases) - 1 for bases in groups.values() if len(bases) > 1)


def structure_summary(snapshot: ListSnapshot,
                      registry: Optional[TldRegistry] = None,
                      psl: Optional[PublicSuffixList] = None) -> StructureSummary:
    """Compute all Table 2 structure metrics for one snapshot."""
    registry = registry or _DEFAULT_REGISTRY
    psl = psl or _DEFAULT_PSL
    names = list(snapshot.entries)
    coverage: TldCoverage = registry.coverage(names)
    depth_shares, max_depth = subdomain_depth_distribution(names, psl=psl)
    base_domains = sum(1 for name in names if DomainName.parse(name, psl=psl).depth == 0)
    return StructureSummary(
        provider=snapshot.provider,
        size=len(names),
        valid_tlds=coverage.valid_tlds,
        invalid_tlds=coverage.invalid_tlds,
        invalid_tld_domains=coverage.invalid_domains,
        base_domains=base_domains,
        depth_shares=depth_shares,
        max_depth=max_depth,
        aliases=alias_count(names, psl=psl),
    )


@dataclass(frozen=True)
class ArchiveStructure:
    """Archive-level aggregation of per-day structure metrics (Table 2)."""

    provider: str
    days: int
    tld_coverage: MeanStd
    base_domains: MeanStd
    aliases: MeanStd
    depth_shares: Mapping[int, float]
    max_depth: int


def summarise_archive(archive: ListArchive,
                      registry: Optional[TldRegistry] = None,
                      psl: Optional[PublicSuffixList] = None,
                      sample_every: int = 1) -> ArchiveStructure:
    """Aggregate structure metrics over an archive (mean ± std per day).

    ``sample_every`` lets callers compute the (expensive) per-day metrics
    on every n-th snapshot only, as the numbers change slowly.
    """
    if sample_every <= 0:
        raise ValueError("sample_every must be positive")
    snapshots = archive.snapshots()[::sample_every]
    if not snapshots:
        raise ValueError("archive is empty")
    summaries = [structure_summary(s, registry=registry, psl=psl) for s in snapshots]
    depth_totals: Counter[int] = Counter()
    for summary in summaries:
        for depth, share in summary.depth_shares.items():
            depth_totals[depth] += share
    depth_means = {depth: total / len(summaries) for depth, total in sorted(depth_totals.items())}
    return ArchiveStructure(
        provider=archive.provider,
        days=len(snapshots),
        tld_coverage=mean_std([s.valid_tlds for s in summaries]),
        base_domains=mean_std([s.base_domains for s in summaries]),
        aliases=mean_std([s.aliases for s in summaries]),
        depth_shares=depth_means,
        max_depth=max(s.max_depth for s in summaries),
    )
