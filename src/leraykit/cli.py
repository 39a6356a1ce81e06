"""Command-line front end.

Subcommands: symbol, norm, scan, figures, certify, phi, version.  Output is
CSV (comma-separated, header row, LF, UTF-8) or JSON (the report schema
{version, config, certificates, tables}); numbers print with 15 significant
digits.  Identical configuration produces byte-identical output: no
timestamps or environment fingerprints are embedded.

Exit codes: 0 success, 1 certificate failure, 2 usage or domain error.

A line-oriented config file (``key = value``) can seed the run; explicit
command-line flags override file values.  A subcommand accepts only the
keys of the flags it registers, and ``figures`` only those of the figure it
draws.  Working precision is controlled
by the LERAYKIT_PRECISION_BITS environment variable (read when the numerics
are first imported).

``--tolerance`` is enforced here only: the library returns its certified
enclosures as they are, and a command exits 2 when a value it prints (J, a
norm or phi) has a larger radius.  A subcommand registers only flags it reads.

Building the parser and running ``version`` load no numerics (no mpmath).
Each other subcommand imports the layers it runs when it is called, and
looks its functions up in their modules at call time: ``phi`` loads
``specialfn``; ``symbol``, ``norm``, ``scan`` and the j-sweep of
``figures`` also ``symbol``; ``certify`` the certificate suites.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, get_type_hints

from . import __version__
from .errors import DomainError, LeraykitError, ToleranceUnreachable
from .measures import DISTINGUISHED_MEASURES

if TYPE_CHECKING:
    from .certificates import Certificate
    from .specialfn import BoundedFloat
    from .symbol import MeasureTag

TOOL_NAME = "leraykit"

# documented default parameter sets for the sweep figures
J_SWEEP_GAMMA = 5.0
J_SWEEP_D_SET = (1.0, 2.0, 2.5, 3.0, 4.0)
PHI_SWEEP_Q_SET = (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)
# why LERAYKIT_PRECISION_BITS may not rescue a radius above --tolerance
TOLERANCE_NOTE = "more bits narrow only the rounding part of a radius, not the series truncation"
MAX_K_RANGE = 10_000  # most modes a `symbol --k`, `scan` or j-sweep, and most points a grid, may ask for


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class RunConfig(NamedTuple):
    """The settings of one run.  `tolerance` has no default here:
    `build_config` starts from ``specialfn.DEFAULT_TOL``."""

    tolerance: float
    k_max: int = 200
    grid_min: float = 0.75
    grid_max: float = 1000.0
    grid_count: int = 60
    grid_scale: str = "log"  # or "linear"
    format: str = "csv"  # or "json"
    output: Optional[str] = None

    def validate(self) -> None:
        if not 0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be positive and finite (got {self.tolerance})")
        if self.k_max < 0:
            raise DomainError(f"k_max must be non-negative (got {self.k_max})")
        if self.grid_count < 2:
            raise DomainError("grid count must be at least 2")
        if self.grid_count > MAX_K_RANGE:
            raise DomainError(f"grid count must be at most {MAX_K_RANGE} (got {self.grid_count})")
        for name in ("grid_min", "grid_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite (got {value})")
        if not self.grid_min < self.grid_max:
            raise DomainError("grid min must be below grid max")
        if self.grid_scale == "linear" and not math.isfinite(self.grid_max - self.grid_min):
            raise DomainError(
                f"linear grid span grid_max - grid_min overflows "
                f"(grid_min={self.grid_min}, grid_max={self.grid_max})"
            )
        if self.grid_scale not in ("log", "linear"):
            raise DomainError("grid scale must be 'log' or 'linear'")
        if self.format not in ("csv", "json"):
            raise DomainError("format must be 'csv' or 'json'")
        if self.grid_scale == "log" and self.grid_min <= 0:
            raise DomainError("log grid requires positive grid min")

    def grid(self) -> List[float]:
        n = self.grid_count
        if self.grid_scale == "linear":
            step = (self.grid_max - self.grid_min) / (n - 1)
            return [self.grid_min + i * step for i in range(n)]
        lo, hi = math.log(self.grid_min), math.log(self.grid_max)
        return [math.exp(lo + i * (hi - lo) / (n - 1)) for i in range(n)]

    def as_dict(self) -> Dict[str, Any]:
        # the output destination is not part of the computation; leaving it
        # out keeps reports byte-identical across target paths
        return {name: getattr(self, name) for name in self._fields if name != "output"}


# config-file key -> cast, from the field types: int and float fields
# parse as such, the rest as text
_CONFIG_CASTS = {name: kind if kind in (int, float) else str
                 for name, kind in get_type_hints(RunConfig).items()}


def load_config_file(path: str) -> Dict[str, Any]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: Dict[str, Any] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_CASTS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_CASTS[key](value)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_config(ns: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then the flags.  A config-file key
    must name a flag the subcommand registers."""
    from .specialfn import DEFAULT_TOL

    cfg = RunConfig(DEFAULT_TOL)
    if getattr(ns, "config", None):
        values = load_config_file(ns.config)
        for key in values:
            if not hasattr(ns, key):
                raise DomainError(f"{ns.config}: key {key!r} is not read by the {ns.command} subcommand")
        cfg = cfg._replace(**values)
    overrides = {}
    for key in _CONFIG_CASTS:
        flag = getattr(ns, key, None)
        if flag is not None:
            overrides[key] = flag
    cfg = cfg._replace(**overrides)
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------
def _fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".15g")
    if x is None:
        return ""
    return str(x)


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A header line, then one line per row: the CSV format of tables and figures."""
    return "\n".join([",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def _key_value_text(pairs: Iterable[Tuple[str, Any]]) -> str:
    """One `key = value` line per pair, the text format of single results."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def _emit_table(name: str, columns: Sequence[str], rows: Sequence[Sequence[Any]], cfg: RunConfig) -> None:
    if cfg.format == "csv":
        text = _csv_text(columns, rows)
    else:
        text = _bundle_json(cfg, (), [(name, columns, rows)])
    _write_out(text, cfg.output)


def _bundle_json(
    cfg: RunConfig,
    certificates: Sequence[Certificate],
    tables: Sequence[Tuple[str, Sequence[str], Sequence[Sequence[Any]]]],
) -> str:
    import json

    payload = {
        "version": __version__,
        "config": cfg.as_dict(),
        "certificates": [c.to_dict() for c in certificates],
        "tables": [
            {
                "name": name,
                "columns": list(columns),
                "rows": [[_fmt(v) if isinstance(v, float) else v for v in row] for row in rows],
            }
            for name, columns, rows in tables
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_out(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        Path(output).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _checked(name: str, value: BoundedFloat, cfg: RunConfig) -> Tuple[float, float]:
    """`value.doubles()`, the printed value and radius, after checking that
    the radius is at most --tolerance (the radius rounded up to a double
    exceeds a double tolerance exactly when the radius does)."""
    mid, radius = value.doubles()
    if radius > cfg.tolerance:
        from .specialfn import precision_bits

        raise ToleranceUnreachable(
            f"{name} radius {_format_e3(value.error_radius)} exceeds tol={cfg.tolerance} "
            f"at {precision_bits()}-bit precision ({TOLERANCE_NOTE})"
        )
    return mid, radius


def _format_e3(x: Any) -> str:
    """`x` as format(float(x), ".3e") prints it, also past the double range,
    where float(x) is inf (mpf has no format spec of its own)."""
    if math.isfinite(float(x)):
        return format(float(x), ".3e")
    from decimal import Decimal

    return format(Decimal(str(x)), ".3e")


def _parse_k_range(text: str) -> List[int]:
    """'7' or '0..60' (inclusive), at most MAX_K_RANGE modes."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise DomainError(f"empty mode range {text!r}")
        if hi - lo >= MAX_K_RANGE:
            raise DomainError(f"mode range {text!r} has {hi - lo + 1} modes; at most {MAX_K_RANGE} allowed")
        return list(range(lo, hi + 1))
    return [int(text)]


def _value_set(text: Optional[str], flag: str, default: Sequence[float]) -> List[float]:
    """The comma-separated values of `flag`; the default set only when the
    flag is absent, not when it is given empty."""
    if text is None:
        return list(default)
    if not text.strip():
        raise DomainError(f"{flag} is empty: give comma-separated values or leave the flag out")
    return [float(x) for x in text.split(",")]


def _require_mode_count(k_max: int) -> None:
    """`scan` and the j-sweep compute every mode 0..k_max: at most
    MAX_K_RANGE of them."""
    if k_max >= MAX_K_RANGE:
        raise DomainError(f"k_max = {k_max} asks for {k_max + 1} modes; at most {MAX_K_RANGE} allowed")


def _measure_from_args(ns: argparse.Namespace) -> MeasureTag:
    from .symbol import MeasureTag

    if ns.measure is not None and ns.d is not None:
        raise DomainError("give either --d or --measure, not both")
    if ns.measure is not None:
        return MeasureTag(ns.measure)
    if ns.d is not None:
        return MeasureTag.generic(ns.d)
    raise DomainError("one of --d or --measure is required")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_symbol(ns: argparse.Namespace) -> int:
    from .symbol import SymbolQuery, _require_bounded, symbol_value

    cfg = build_config(ns)
    measure = _measure_from_args(ns)
    d = measure.exponent(ns.gamma)
    ks = _parse_k_range(ns.k)
    queries = [SymbolQuery(ns.gamma, d, k) for k in ks]
    # I_k is nested, so the largest k decides whether any mode is bounded
    _require_bounded(ns.gamma, d, max(ks))
    rows: List[List[Any]] = []
    for query in queries:
        if query.is_finite():
            j = symbol_value(query)
            value, radius = _checked("symbol", j, cfg)
            rows.append([query.k, value, float(j.sqrt().value), True, radius])
        else:
            rows.append([query.k, None, None, False, None])
    _emit_table("symbol", ["k", "J", "sqrt_J", "bounded", "error_radius"], rows, cfg)
    return 0


def _cmd_norm(ns: argparse.Namespace) -> int:
    from .symbol import leray_norm

    cfg = build_config(ns)
    measure = _measure_from_args(ns)
    result = leray_norm(ns.gamma, measure, k_cap=cfg.k_max)
    value, radius = _checked("norm", result.value, cfg)
    if result.stabilized is False:
        # stderr only: the report stays byte-identical
        sys.stderr.write(
            f"warning: sup-search did not stabilize: k_scanned = {result.k_scanned} "
            f"reached the mode cap k <= {cfg.k_max}\n"
        )
    rows = [[
        ns.gamma,
        result.d,
        measure.kind,
        value,
        radius,
        result.method,
        result.attained_at,
        result.k_scanned,
        result.stabilized,
    ]]
    columns = [
        "gamma", "d", "measure", "norm", "error_radius",
        "method", "attained_at_k", "k_scanned", "stabilized",
    ]
    if cfg.format == "json":
        _emit_table("norm", columns, rows, cfg)
    else:
        _write_out(_key_value_text(zip(columns, rows[0])), cfg.output)
    return 0


def _cmd_scan(ns: argparse.Namespace) -> int:
    from .symbol import monotonicity_scan

    cfg = build_config(ns)
    _require_mode_count(cfg.k_max)
    measure = _measure_from_args(ns)
    d = measure.exponent(ns.gamma)
    result = monotonicity_scan(ns.gamma, d, cfg.k_max)
    pairs = [("gamma", ns.gamma), ("d", d), ("k_max", cfg.k_max), ("classification", result.classification.value)]
    if result.witness_k is not None:
        pairs.append(("turning_k", result.witness_k))
    _write_out(_key_value_text(pairs), cfg.output)
    return 0


# the flags and config keys each figure reads besides --tolerance; the
# figures parser registers both sets
FIGURE_SETTINGS = {
    "j-sweep": ("d_set", "k_max"),
    "phi-sweep": ("q_set", "grid_min", "grid_max", "grid_count", "grid_scale"),
}


def _reject_other_figure_settings(ns: argparse.Namespace) -> None:
    """A flag or config key of the other figure is exit 2, not ignored."""
    other = [key for figure, keys in FIGURE_SETTINGS.items() if figure != ns.id for key in keys]
    for key in other:
        if getattr(ns, key) is not None:
            raise DomainError(f"--{key.replace('_', '-')} is not read by figure {ns.id}")
    if ns.config:
        for key in load_config_file(ns.config):
            if key in other:
                raise DomainError(f"{ns.config}: key {key!r} is not read by figure {ns.id}")


def _cmd_figures(ns: argparse.Namespace) -> int:
    _reject_other_figure_settings(ns)
    cfg = build_config(ns)
    out_dir = Path(ns.out)
    if ns.id == "j-sweep":
        from .symbol import _mode_walk

        _require_mode_count(cfg.k_max)
        d_set = _value_set(ns.d_set, "--d-set", J_SWEEP_D_SET)
        columns = ["k"] + [f"J_d{d:g}" for d in d_set]
        # one lazy walk per column, read row by row: modes are computed, and
        # a rejected one reported, in the order of the table
        walks = [_mode_walk(J_SWEEP_GAMMA, d, cfg.k_max) for d in d_set]
        rows = [[k] + [_checked("symbol", next(walk), cfg)[0] for walk in walks] for k in range(cfg.k_max + 1)]
        path = out_dir / "j_sweep.csv"
    else:
        from .specialfn import phi as phi_fn

        q_set = _value_set(ns.q_set, "--q-set", PHI_SWEEP_Q_SET)
        columns = ["r"] + [f"Phi_q{q:g}" for q in q_set]
        rows = [[r] + [_checked("phi", phi_fn(r, q), cfg)[0] for q in q_set] for r in cfg.grid()]
        path = out_dir / "phi_sweep.csv"
    text = _csv_text(columns, rows)
    # made only now, so a rejected input leaves no empty directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_certify(ns: argparse.Namespace) -> int:
    from . import bwcert, emcert
    from .certificates import first_failure

    cfg = build_config(ns)
    certificates: List[Certificate] = []
    if ns.suite in ("bw", "all"):
        certificates += bwcert.bw_certificate_suite()
    if ns.suite in ("em", "all"):
        certificates += emcert.em_certificate_suite()
    bundle = _bundle_json(cfg, certificates, [])
    json_to_stdout = cfg.format == "json" and not cfg.output
    if not json_to_stdout:  # keep stdout machine-readable in JSON mode
        for cert in certificates:
            status = "PASS" if cert.passed else "FAIL"
            sys.stdout.write(f"[{status}] {cert.claim_id} ({cert.verdict}) - {cert.anchor}\n")
    if cfg.output:
        _write_out(bundle, cfg.output)
        sys.stdout.write(f"wrote {cfg.output}\n")
    elif json_to_stdout:
        sys.stdout.write(bundle)
    failing = first_failure(certificates)
    if failing is not None:
        sys.stderr.write(f"certificate failure: {failing.claim_id}\n")
        return 1
    return 0


def _cmd_phi(ns: argparse.Namespace) -> int:
    from .specialfn import phi as phi_fn
    from .specialfn import phi_sandwich

    cfg = build_config(ns)
    value, radius = _checked("phi", phi_fn(ns.r, ns.q), cfg)
    pairs = [("r", ns.r), ("q", ns.q), ("phi", value), ("error_radius", radius)]
    if ns.r > max(ns.q - 1, 0.0):
        lo, hi = phi_sandwich(ns.r, ns.q)
        pairs += [("sandwich_lower", lo), ("sandwich_upper", hi)]
    _write_out(_key_value_text(pairs), cfg.output)
    return 0


def _cmd_version(ns: argparse.Namespace) -> int:
    sys.stdout.write(f"{TOOL_NAME} {__version__}\n")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """--config plus those of --tolerance, --format and --output in `names`."""
    p.add_argument("--config", help="config file with 'key = value' lines")
    if "tolerance" in names:
        p.add_argument("--tolerance", "--tol", dest="tolerance", type=float,
                       help="largest error radius a printed value may have")
    if "format" in names:
        p.add_argument("--format", choices=("csv", "json"), help="output format")
    if "output" in names:
        p.add_argument("--output", help="output path (default stdout)")


def _add_measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, required=True, help="hypersurface exponent, > 1")
    p.add_argument("--d", type=float, help="measure exponent")
    p.add_argument(
        "--measure",
        choices=tuple(DISTINGUISHED_MEASURES),
        help="named measure (alternative to --d)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="verified symbol-function values, operator norms, and inequality certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="symbol values J(d, gamma, k) over a mode range")
    _add_measure_args(p)
    p.add_argument("--k", required=True, help="mode index or inclusive range, e.g. 3 or 0..60")
    _add_common(p, "tolerance", "format", "output")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("norm", help="operator norm (closed form or mode search)")
    _add_measure_args(p)
    p.add_argument("--k-max", dest="k_max", type=int, help="mode-scan budget")
    _add_common(p, "tolerance", "format", "output")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("scan", help="monotonicity classification of k -> J(d, gamma, k)")
    _add_measure_args(p)
    p.add_argument("--k-max", dest="k_max", type=int, help="last mode index (default from config)")
    _add_common(p, "output")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("figures", help="emit sweep data as CSV files")
    p.add_argument("--id", required=True, choices=tuple(FIGURE_SETTINGS))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--d-set", help="comma-separated d values for j-sweep")
    p.add_argument("--q-set", help="comma-separated q values for phi-sweep")
    p.add_argument("--k-max", dest="k_max", type=int, help="modes per column for j-sweep")
    p.add_argument("--grid-min", dest="grid_min", type=float)
    p.add_argument("--grid-max", dest="grid_max", type=float)
    p.add_argument("--grid-count", dest="grid_count", type=int)
    p.add_argument("--grid-scale", dest="grid_scale", choices=("log", "linear"))
    _add_common(p, "tolerance")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("certify", help="run certificate suites")
    p.add_argument("--suite", default="all", choices=("bw", "em", "all"))
    _add_common(p, "format", "output")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("phi", help="evaluate phi(r, q) with error radius and sandwich bounds")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    _add_common(p, "tolerance", "output")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("version", help="print version")
    p.set_defaults(func=_cmd_version)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (LeraykitError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
