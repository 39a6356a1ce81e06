"""Span recording for the traced run, kept entirely in the benchmark.

Run as a script it stands in for ``python -m leraykit.cli``::

    python3 perfbench/spans.py SPANS.json -- <leraykit argv>

It imports ``leraykit.cli`` inside a ``cli.import`` span, replaces each
traced function in every ``leraykit`` module namespace that binds it (so
``leraykit.symbol.log_gamma`` is traced as well as
``leraykit.specialfn.log_gamma``), calls ``leraykit.cli.main(argv)`` and,
when it returns or raises, writes the spans kept in memory to SPANS.json.
Exit code, stdout, stderr and output files are those of the real CLI.

A span is [name, start, end, parent index].  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

MODULES = ("specialfn", "symbol", "bwcert", "emcert", "exactpoly", "tables")
LAYERS = ("cli",) + MODULES

# Public functions left unwrapped: each runs once per quadrature node, so a
# span there would cost about as much as the work it measures.  Their time
# stays in the caller's self time.
PER_NODE = {
    "bwcert": ("g0", "g1", "g2", "h0", "h1", "m_kernel"),
    "emcert": ("s_function", "preferred_series_term"),
}
# Private helpers traced because the per-layer table needs their time.
EXTRA = {
    "specialfn": {"_phi_series_check": "phi_check"},
    "bwcert": {"_tail_cutoff": "tail_cutoff"},
}
SUBCOMMANDS = ("symbol", "norm", "scan", "figures", "certify", "phi", "version")


class Recorder:
    """Spans, errors and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        self.errors: List[List[Any]] = []
        self._seen: List[BaseException] = []
        self.counters: Dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # attribute each exception once, to the first traced
                # function it leaves: the layer that raised it
                if not any(exc is seen for seen in self._seen):
                    self._seen.append(exc)
                    self.errors.append([name, type(exc).__name__, _is_leraykit_error(exc)])
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "errors": self.errors, "counters": self.counters}, fh)


def _is_leraykit_error(exc: BaseException) -> bool:
    errors = sys.modules.get("leraykit.errors")
    return errors is not None and isinstance(exc, errors.LeraykitError)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every leraykit module attribute bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "leraykit" and not mod_name.startswith("leraykit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Trace the public functions of every leraykit module, the CLI entry
    points, polynomial multiplication and the quadratures."""
    import leraykit.cli as cli

    for short in MODULES:
        mod = importlib.import_module(f"leraykit.{short}")
        skip = PER_NODE.get(short, ())
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") or attr in skip:
                continue
            hook = _HOOKS.get(f"{short}.{attr}")
            _rebind(fn, rec.wrap(f"{short}.{attr}", fn, hook(rec) if hook else None))
        for attr, label in EXTRA.get(short, {}).items():
            fn = getattr(mod, attr)
            _rebind(fn, rec.wrap(f"{short}.{label}", fn))

    exactpoly = sys.modules["leraykit.exactpoly"]
    for cls in (exactpoly.RationalPolynomial, exactpoly.BivariatePolynomial, exactpoly.RationalFunction):
        original = cls.__dict__["__mul__"]
        wrapped = rec.wrap("exactpoly.mul", original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, wrapped)

    # bwcert reaches mpmath.quad through its module global `mpmath`; give it
    # a copy of that namespace whose quad is traced, leaving mpmath as is
    bwcert = sys.modules["leraykit.bwcert"]
    bwcert.mpmath = types.SimpleNamespace(**vars(bwcert.mpmath))
    bwcert.mpmath.quad = rec.wrap("bwcert.quad", bwcert.mpmath.quad)
    emcert = sys.modules["leraykit.emcert"]
    _rebind(emcert.quad, rec.wrap("emcert.scipy_quad", emcert.quad))

    for sub in SUBCOMMANDS:
        fn = getattr(cli, f"_cmd_{sub}")
        setattr(cli, f"_cmd_{sub}", rec.wrap(f"cli.{sub}", fn))
    cli.main = rec.wrap("cli.main", cli.main)


def _count_stabilized(rec: Recorder) -> Callable[[Any], None]:
    def hook(result: Any) -> None:
        rec.counters["symbol.sup_search.stabilized"] += int(bool(result[3]))

    return hook


def _count_certificates(rec: Recorder) -> Callable[[Any], None]:
    def hook(result: Any) -> None:
        rec.counters["certificates.count"] += len(result)
        rec.counters["certificates.passed"] += sum(1 for c in result if c.passed)

    return hook


_HOOKS = {
    "symbol.sup_search": _count_stabilized,
    "bwcert.bw_certificate_suite": _count_certificates,
    "emcert.em_certificate_suite": _count_certificates,
}


# ----------------------------------------------------------------------
# aggregation (in the benchmark process)
# ----------------------------------------------------------------------
def self_times(spans: List[List[Any]]) -> List[float]:
    """Duration minus the time covered by direct children.  Spans of one
    process are properly nested on one thread, so children never overlap
    and their durations simply add."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


class PassTotals:
    """Per-name totals over the traced commands of one pass."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)

    def add(self, doc: Dict[str, Any], spawned: float, reaped: float) -> None:
        """Add one traced process; `spawned` and `reaped` bracket it on the
        same clock as its spans, giving interpreter boot and exit."""
        spans = doc["spans"]
        self.wall_s["cli.boot"] += spans[0][1] - spawned
        self.wall_s["cli.exit"] += reaped - max(end for _, _, end, _ in spans)
        selfs = self_times(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += selfs[i]
            if not _has_ancestor(spans, parent, name):  # do not count recursion twice
                self.wall_s[name] += end - start
            if name == "symbol.symbol_value" and parent >= 0 and spans[parent][0] == "symbol.sup_search":
                self.counters["symbol.sup_search.modes"] += 1
        for key, value in doc["counters"].items():
            self.counters[key] += value
        for origin, type_name, is_leraykit in doc["errors"]:
            module = origin.split(".", 1)[0]
            if is_leraykit:
                self.errors[f"{module}.errors"] += 1
                self.errors[f"errors.{type_name}"] += 1
            else:
                self.errors["errors.other"] += 1

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer and k != "cli.import")


def _has_ancestor(spans: List[List[Any]], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: spans.py SPANS.json -- <leraykit argv>\n")
        return 2
    rec = Recorder()
    idx = rec.open("cli.import")
    import leraykit.cli as cli

    rec.close(idx)
    install(rec)
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
