"""Result-bias comparison between top lists and the general population.

Implements Table 5's structure: for each measured characteristic
(NXDOMAIN share, IPv6/CAA/CDN/TLS/HSTS/HTTP2 adoption, AS concentration,
...), the value for every list (Top-1k and Top-1M scaled subsets) is
compared against a base value (the larger list, or the general
population), and flagged as significantly exceeding (▲), significantly
falling behind (▼), or not deviating (■) per the paper's rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.stats.summary import DeviationFlag, MeanStd, classify_deviation, mean_std


@dataclass(frozen=True)
class ComparisonCell:
    """One cell of the comparison table: a value, its spread, and its flag."""

    target: str
    value: MeanStd
    flag: DeviationFlag

    def render(self, precision: int = 2) -> str:
        """Human-readable cell, e.g. ``"▲ 22.70 ± 0.60"``."""
        return f"{self.flag.value} {self.value.mean:.{precision}f} ± {self.value.std:.{precision}f}"


@dataclass(frozen=True)
class CharacteristicComparison:
    """One row of Table 5: a characteristic measured across targets."""

    characteristic: str
    base_target: str
    base_value: MeanStd
    cells: Mapping[str, ComparisonCell]

    def flag(self, target: str) -> DeviationFlag:
        """Significance flag of ``target`` against the base value."""
        return self.cells[target].flag

    def exaggeration_factor(self, target: str) -> float:
        """How many times larger the target's value is than the base value."""
        base = self.base_value.mean
        if base == 0:
            return float("inf") if self.cells[target].value.mean > 0 else 1.0
        return self.cells[target].value.mean / base

    def distorting_targets(self) -> list[str]:
        """Targets whose value significantly deviates from the base."""
        return [target for target, cell in self.cells.items()
                if cell.flag is not DeviationFlag.NOT_SIGNIFICANT]


@dataclass
class ComparisonTable:
    """A full Table-5-style comparison across characteristics and targets."""

    base_target: str
    rows: dict[str, CharacteristicComparison] = field(default_factory=dict)

    def add_characteristic(self, characteristic: str,
                           values: Mapping[str, Sequence[float] | MeanStd],
                           base_target: Optional[str] = None) -> CharacteristicComparison:
        """Add a row comparing ``values`` per target against the base target.

        ``values`` maps target names (e.g. ``"alexa-1k"``, ``"com/net/org"``)
        to either a sample of daily measurements or a precomputed
        :class:`MeanStd`.  The base target must be one of the keys.
        """
        base_key = base_target or self.base_target
        if base_key not in values:
            raise KeyError(f"base target {base_key!r} missing from values")
        summarised = {
            target: value if isinstance(value, MeanStd) else mean_std(value)
            for target, value in values.items()
        }
        base_value = summarised[base_key]
        cells: dict[str, ComparisonCell] = {}
        for target, value in summarised.items():
            if target == base_key:
                continue
            flag = classify_deviation(value.mean, base_value.mean, value_std=value.std)
            cells[target] = ComparisonCell(target=target, value=value, flag=flag)
        row = CharacteristicComparison(characteristic=characteristic,
                                       base_target=base_key,
                                       base_value=base_value, cells=cells)
        self.rows[characteristic] = row
        return row

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, characteristic: str) -> CharacteristicComparison:
        return self.rows[characteristic]

    def characteristics(self) -> list[str]:
        """Characteristics (row names) present in the table."""
        return list(self.rows)

    def targets(self) -> list[str]:
        """All non-base targets appearing in at least one row."""
        names: list[str] = []
        for row in self.rows.values():
            for target in row.cells:
                if target not in names:
                    names.append(target)
        return names

    def distortion_summary(self) -> dict[str, float]:
        """Share of rows in which each target significantly deviates.

        The paper's headline: "in almost all cases, top lists significantly
        distort the characteristics of the general population".
        """
        summary: dict[str, float] = {}
        for target in self.targets():
            applicable = [row for row in self.rows.values() if target in row.cells]
            if not applicable:
                continue
            deviating = sum(1 for row in applicable
                            if row.cells[target].flag is not DeviationFlag.NOT_SIGNIFICANT)
            summary[target] = deviating / len(applicable)
        return summary

    def render(self, precision: int = 2) -> str:
        """Render the table as aligned text (one row per characteristic)."""
        targets = self.targets()
        header = ["characteristic"] + targets + [self.base_target]
        lines = ["\t".join(header)]
        for name, row in self.rows.items():
            cells = [row.cells[t].render(precision) if t in row.cells else "-"
                     for t in targets]
            base = f"{row.base_value.mean:.{precision}f} ± {row.base_value.std:.{precision}f}"
            lines.append("\t".join([name] + cells + [base]))
        return "\n".join(lines)
