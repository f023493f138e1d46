"""Empirical CDF tables for the benchmark's generators.

A table is a JSON file holding a list of outcomes, their cumulative
probabilities and where the numbers come from; a generator loads it
once and draws outcomes with a seeded ``random.Random``.  Keeping the mixes in data files means a workload's
op mix or size distribution can be read, and changed, without reading the
generator.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any

TABLE_DIR = Path(__file__).resolve().parent / "tables"


@dataclass(frozen=True)
class CdfTable:
    """Outcomes with cumulative probabilities (the last one is 1.0)."""

    name: str
    values: tuple[Any, ...]
    cdf: tuple[float, ...]
    #: where the numbers come from: a measurement, or the assumption
    source: str = ""

    def __post_init__(self) -> None:
        if not self.values or len(self.values) != len(self.cdf):
            raise ValueError(f"table {self.name!r}: values and cdf differ in length")
        if any(b < a for a, b in zip(self.cdf, self.cdf[1:])) or self.cdf[0] < 0:
            raise ValueError(f"table {self.name!r}: cdf is not non-decreasing")
        if abs(self.cdf[-1] - 1.0) > 1e-9:
            raise ValueError(f"table {self.name!r}: cdf ends at {self.cdf[-1]}, not 1")

    def quantile(self, u: float) -> Any:
        """The outcome at cumulative probability ``u`` in [0, 1)."""
        return self.values[min(bisect_right(self.cdf, u), len(self.values) - 1)]

    def sample(self, rng: Random) -> Any:
        """Draw one outcome by inverting the CDF at a uniform variate."""
        return self.quantile(rng.random())


def load_cdf(path: Path) -> CdfTable:
    """Read a table written by :func:`save_cdf`."""
    raw = json.loads(Path(path).read_text())
    return CdfTable(
        name=str(raw["name"]),
        values=tuple(raw["values"]),
        cdf=tuple(float(p) for p in raw["cdf"]),
        source=str(raw.get("source", "")),
    )


def save_cdf(path: Path, table: CdfTable) -> None:
    """Write ``table`` as JSON, one outcome per line pair, for review diffs."""
    Path(path).write_text(
        json.dumps(
            {
                "name": table.name,
                "source": table.source,
                "values": list(table.values),
                "cdf": list(table.cdf),
            },
            indent=1,
        )
        + "\n"
    )


def table(name: str) -> CdfTable:
    """Load ``tables/<name>.json`` from the benchmark's directory."""
    return load_cdf(TABLE_DIR / f"{name}.json")
