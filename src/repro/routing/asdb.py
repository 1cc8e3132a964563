"""Route-Views-style origin-AS database.

Maps announced prefixes to the Autonomous System originating them and
answers "which AS announces this address?" queries, as the paper does
for every A record of every list (Section 8.1.2, Figure 7d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.routing.prefix_trie import PrefixTrie


@dataclass(frozen=True)
class AsInfo:
    """An Autonomous System: number and human-readable operator name."""

    asn: int
    name: str

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError("AS number must be positive")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name} ({self.asn})"


class AsDatabase:
    """Prefix-to-origin-AS mapping.

    The per-list AS statistics of Figure 7d and Table 5 are counted by
    :class:`~repro.measurement.dns_measure.DnsCharacteristics`.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[AsInfo] = PrefixTrie()
        self._as_by_number: dict[int, AsInfo] = {}

    def __len__(self) -> int:
        """Number of announced prefixes."""
        return len(self._trie)

    @property
    def autonomous_systems(self) -> list[AsInfo]:
        """All ASes that announce at least one prefix."""
        return sorted(self._as_by_number.values(), key=lambda a: a.asn)

    def announce(self, prefix: str, asn: int, name: Optional[str] = None) -> AsInfo:
        """Register an announcement of ``prefix`` by AS ``asn``."""
        info = self._as_by_number.get(asn)
        if info is None:
            info = AsInfo(asn=asn, name=name or f"AS{asn}")
            self._as_by_number[asn] = info
        elif name is not None and info.name != name and info.name == f"AS{asn}":
            info = AsInfo(asn=asn, name=name)
            self._as_by_number[asn] = info
        self._trie.insert(prefix, info)
        return info

    def bulk_announce(self, announcements: Iterable[tuple[str, int, str]]) -> int:
        """Register many ``(prefix, asn, name)`` announcements."""
        count = 0
        for prefix, asn, name in announcements:
            self.announce(prefix, asn, name)
            count += 1
        return count

    def origin(self, address: str) -> Optional[AsInfo]:
        """Return the AS announcing the most specific prefix covering
        ``address``, or ``None`` for unannounced space."""
        return self._trie.lookup(address)

    def is_routed(self, address: str) -> bool:
        """Return whether ``address`` falls in announced address space.

        The paper only counts "routed" IPv6 addresses towards IPv6
        enablement, so the measurement harness uses this check.
        """
        return self.origin(address) is not None
