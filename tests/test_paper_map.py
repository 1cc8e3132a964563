"""The README's paper-result map points at code, tests and benches that exist.

Each row of the "Paper results → code" table names the functions that
compute one figure, table or ablation, its oracle test and its bench.
These checks keep the map honest as the code moves: every named function
imports, every oracle test is defined, every bench defines a test, and
every ``benchmarks/test_bench_*.py`` has exactly one row.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SECTION = "## Paper results → code"

#: The paper's results the map must cover (figure/table labels).
EXPECTED_RESULTS = (
    "Figure 1a", "Figure 1b", "Figure 1c", "Figure 2a", "Figure 2b", "Figure 2c",
    "Figure 3a", "Figures 3b/3c", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
    "Figure 8", "Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
)


def _rows() -> list[tuple[str, list[str], list[str], list[str]]]:
    if SECTION not in README:
        return []
    section = README.split(SECTION, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|") or line.startswith("|---") or line.startswith("| Result"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        assert len(cells) == 4, f"malformed map row: {line!r}"
        result, computes, oracle, bench = cells
        rows.append((result, re.findall(r"`([^`]+)`", computes),
                     re.findall(r"`([^`]+)`", oracle), re.findall(r"`([^`]+)`", bench)))
    return rows


ROWS = _rows()


def _resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def _defines(tree: ast.AST, path: list[str]) -> bool:
    """Whether ``tree`` defines ``Class::...::test_name`` (``path``) at top level."""
    head, rest = path[0], path[1:]
    for node in getattr(tree, "body", []):
        if rest and isinstance(node, ast.ClassDef) and node.name == head:
            return _defines(node, rest)
        if not rest and isinstance(node, ast.FunctionDef) and node.name == head:
            return True
    return False


def test_map_covers_every_result():
    assert SECTION in README, f"README has no {SECTION!r} section"
    results = [row[0] for row in ROWS]
    assert len(results) == len(set(results))
    for expected in EXPECTED_RESULTS:
        assert expected in results, f"no map row for {expected}"
    assert sum(result.startswith("Ablation:") for result in results) == 4


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_row_names_importable_functions(row):
    result, computes, _, _ = row
    assert computes, f"{result}: no function named"
    for dotted in computes:
        assert _resolve(dotted) is not None, dotted


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_row_oracle_tests_exist(row):
    result, _, oracles, _ = row
    assert oracles, f"{result}: no oracle test named"
    for oracle in oracles:
        file, *path = oracle.split("::")
        source = ROOT / file
        assert source.is_file(), oracle
        assert path and path[-1].startswith("test_"), oracle
        assert _defines(ast.parse(source.read_text(encoding="utf-8")), path), oracle


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_row_bench_defines_a_test(row):
    result, _, _, benches = row
    assert len(benches) == 1, f"{result}: expected one bench file"
    source = ROOT / benches[0]
    assert source.is_file(), benches[0]
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
               for node in tree.body), benches[0]


def test_every_bench_has_exactly_one_row():
    named = [bench for row in ROWS for bench in row[3]]
    on_disk = sorted(str(path.relative_to(ROOT))
                     for path in (ROOT / "benchmarks").glob("test_bench_*.py"))
    assert on_disk, "no benches found"
    for bench in on_disk:
        assert named.count(bench) == 1, f"{bench} appears {named.count(bench)} times in the map"
    assert sorted(named) == on_disk
