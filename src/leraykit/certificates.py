"""Machine-readable certificate records.

A Certificate is the unit of output of the verification suites: one claim,
the method used to check it (exact rational arithmetic or error-bounded
numerics), the inputs, the witnesses produced while checking (sign
patterns, evaluation points with exact values, root counts, ...), and the
verdict.  Everything is JSON-serializable; Fractions are rendered as
"num/den" strings so reports round-trip exactly.  Every ``exact``
certificate is built by one recorder, :class:`Checks`: each check is a
witness, and a failed one turns the verdict to ``failed`` and is named in
``inputs["failures"]``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional

VERDICTS = ("verified", "failed", "supports", "refutes", "inconclusive")
PASSING_VERDICTS = ("verified", "supports")


class Certificate:
    """One certified claim.  Immutable: the fields are set once, by the
    constructor, which rejects an unknown verdict or method; ``inputs`` and
    ``witnesses`` default to fresh empty dicts."""

    __slots__ = ("claim_id", "method", "verdict", "anchor", "inputs", "witnesses")

    claim_id: str
    method: str  # "exact" | "bounded-numeric"
    verdict: str
    anchor: str  # one-line statement of the certified claim
    inputs: Dict[str, Any]
    witnesses: Dict[str, Any]

    def __init__(self, claim_id: str, method: str, verdict: str, anchor: str,
                 inputs: Optional[Dict[str, Any]] = None, witnesses: Optional[Dict[str, Any]] = None) -> None:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if method not in ("exact", "bounded-numeric"):
            raise ValueError(f"unknown method {method!r}")
        fields = (claim_id, method, verdict, anchor, {} if inputs is None else inputs,
                  {} if witnesses is None else witnesses)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Certificate")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Certificate")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Certificate:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"Certificate({body})"

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


class Checks:
    """The witnesses and failure labels of one exact certificate."""

    def __init__(self) -> None:
        self.witnesses: Dict[str, Any] = {}
        self._failed: List[str] = []

    def check(self, key: Optional[str], ok: bool, label: str, witness: Any = None) -> None:
        """Record `witness` (`ok` itself when None) under `key`, unless key
        is None; a failing check adds `label` to the failure list."""
        if key is not None:
            self.witnesses[key] = ok if witness is None else witness
        if not ok:
            self._failed.append(label)

    def certificate(self, claim_id: str, anchor: str, inputs: Optional[Dict[str, Any]] = None) -> Certificate:
        return Certificate(
            claim_id=claim_id,
            method="exact",
            verdict="failed" if self._failed else "verified",
            anchor=anchor,
            witnesses=self.witnesses,
            inputs={**(inputs or {}), **({"failures": self._failed} if self._failed else {})},
        )


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
