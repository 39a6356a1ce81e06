"""Machine-readable certificate records.

A Certificate is the unit of output of the verification suites: one claim,
the method used to check it (exact rational arithmetic or error-bounded
numerics), the inputs, the witnesses produced while checking (sign
patterns, evaluation points with exact values, root counts, ...), and the
verdict.  Everything is JSON-serializable; Fractions are rendered as
"num/den" strings so reports round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List

VERDICTS = ("verified", "failed", "supports", "refutes", "inconclusive")
PASSING_VERDICTS = ("verified", "supports")


@dataclass(frozen=True)
class Certificate:
    claim_id: str
    method: str  # "exact" | "bounded-numeric"
    verdict: str
    anchor: str  # one-line statement of the certified claim
    inputs: Dict[str, Any] = field(default_factory=dict)
    witnesses: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.method not in ("exact", "bounded-numeric"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def passed(self) -> bool:
        return self.verdict in PASSING_VERDICTS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "claim_id": self.claim_id,
            "method": self.method,
            "verdict": self.verdict,
            "anchor": self.anchor,
            "inputs": _jsonable(self.inputs),
            "witnesses": _jsonable(self.witnesses),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _jsonable(obj: Any) -> Any:
    """Recursively convert to JSON-safe values; Fractions become
    "num/den" strings, other unknown scalars fall back to str()."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "to_json_coeffs"):
        return obj.to_json_coeffs()
    return str(obj)


def first_failure(certificates: List[Certificate]) -> Certificate | None:
    for c in certificates:
        if not c.passed:
            return c
    return None
