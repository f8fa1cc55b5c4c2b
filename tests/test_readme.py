"""README's table of tolerances, checked against the constants it names."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tolerance_table() -> list[str]:
    """The body rows of the table under README's "Tolerances" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


ROWS = [re.match(r"\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", line) for line in _tolerance_table()]


def test_every_row_names_a_constant_its_module_and_a_value():
    assert len(ROWS) >= 10 and all(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[m[1] if m else "?" for m in ROWS])
def test_readme_constant_matches_the_code(row):
    name, module, printed = row.groups()
    namespace = dict(vars(importlib.import_module(f"qcdist.{module}")))
    # each entry is evaluated in the constant's module, so `GAP_TOL / 100` reads GAP_TOL
    entries = [eval(part.strip(" `"), namespace) for part in printed.split(",")]
    value = namespace[name]
    assert (list(value) if isinstance(value, tuple) else [value]) == entries
