"""Structured experiment reports.

Every experiment returns an :class:`ExperimentReport`: the echoed
configuration, one dict per sweep row, and enough seed information to
regenerate any stochastic row in isolation.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

__version__ = "0.1.0"


def _jsonable(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


@dataclass
class ExperimentReport:
    """Result of one experiment run.

    ``rows`` hold the sweep records; each stochastic row carries the
    ``(seed, row_key)`` pair that regenerates it.  ``wall_time_s`` is
    excluded from deterministic CSV serialization.
    """

    experiment: str
    config: dict
    seed: int | None
    rows: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": _jsonable(self.config),
            "seed": self.seed,
            "rows": [_jsonable(r) for r in self.rows],
            "wall_time_s": self.wall_time_s,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class Stopwatch:
    """Context manager filling ``report.wall_time_s``."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
