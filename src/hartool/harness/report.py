"""Report records and canonical JSON serialization.

Reports are byte-identical for identical (config, seed) pairs; the
config's ``threads`` field is accepted, ignored by the serial runners and
left out of the echo.  Keys are sorted, floats use repr via the json module,
non-finite numbers are encoded as the strings "inf"/"-inf"/"nan", and no
timestamps or environment data enter the payload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["GridRecord", "Report", "SCHEMA_VERSION", "sanitize"]

SCHEMA_VERSION = 1


def sanitize(obj):
    """Make a nested structure JSON-safe and deterministic."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalars
        return sanitize(obj.item())
    if hasattr(obj, "tolist"):
        return sanitize(obj.tolist())
    return str(obj)


@dataclass
class GridRecord:
    """Per-grid outcome: the empirical constant with its witness."""

    n: int
    c_emp: float
    witness: dict | None = None
    excluded: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return sanitize({
            "N": self.n,
            "c_emp": self.c_emp,
            "witness": self.witness,
            "excluded": self.excluded,
            "skipped": self.skipped,
            "failures": self.failures,
            "extra": self.extra,
        })


@dataclass
class Report:
    """Per-inequality verification record with refinement stability."""

    inequality_id: str
    config: dict
    metadata: dict
    grids: list[GridRecord]
    stability_ratio: float | None
    stability_verdict: bool | None
    passed: bool

    def to_json_dict(self) -> dict:
        return sanitize({
            "schema_version": SCHEMA_VERSION,
            "inequality_id": self.inequality_id,
            "config": self.config,
            "metadata": self.metadata,
            "grids": [g.to_json_dict() for g in self.grids],
            "stability": {"ratio": self.stability_ratio, "verdict": self.stability_verdict},
            "passed": self.passed,
        })

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n").encode()
