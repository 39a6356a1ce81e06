"""Independent expected answers for every benchmark command.

Values come from mpmath at ORACLE_BITS (>= 400) bits, never from leraykit:

* J(d, gamma, k) from ``mpmath.loggamma``;
* phi(r, q) = 2r psi'(r+1-q) + r^2 psi''(r+1-q) from ``mpmath.polygamma``;
* the high-frequency limit sqrt(gamma / (2 sqrt(gamma - 1))) and the
  pairing norm gamma / (2 sqrt(gamma - 1)) in closed form.

Certificate verdicts are the paper's known answers.  A printed number
passes when it lies within the tolerance plus 15-digit print rounding of
the oracle, and, where an error radius is printed, within that radius plus
print rounding (the radius must enclose the true value).

``check`` returns a list of problems; an empty list means the output is
the expected answer.  Nothing here is timed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from workloads import Command, phi_grid

ORACLE_BITS = 400
DEFAULT_TOL = 1e-12

EXPECTED_VERDICTS = {
    "bw.cm.q=-2": "supports",
    "bw.cm.q=0": "supports",
    "bw.cm.q=1": "supports",
    "bw.cm.q=3": "supports",
    "bw.cm-refuted.q=2/3": "verified",
    "bw.quadratic.structure": "verified",
    "em.series.decomposition": "verified",
    "em.integral.tail-closed-form": "verified",
    "em.qroot.bracket": "verified",
    "em.h.pipeline": "verified",
    "em.s.peak-bound": "verified",
}


# ----------------------------------------------------------------------
# reference values (400-bit mpmath)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _loggamma(x: mpf) -> mpf:
    return mpmath.loggamma(x)


@lru_cache(maxsize=None)
def symbol_j(gamma: float, d: float, k: int) -> mpf:
    """J(d, gamma, k) = Gamma(A) Gamma(B) / Gamma(k+1)^2 (gamma/2)^(2k+2) (gamma-1)^(-B)."""
    with mpmath.workprec(ORACLE_BITS):
        g = mpf(gamma)
        a = (2 * k + 1 + mpf(d)) / g
        b = 2 * k + 2 - a
        log_j = (
            _loggamma(a) + _loggamma(b) - 2 * _loggamma(mpf(k + 1))
            + (2 * k + 2) * mpmath.ln(g / 2) - b * mpmath.ln(g - 1)
        )
        return +mpmath.exp(log_j)


@lru_cache(maxsize=None)
def phi(r: float, q: float) -> mpf:
    with mpmath.workprec(ORACLE_BITS):
        rv = mpf(r)
        x = rv + 1 - mpf(q)
        return +(2 * rv * mpmath.polygamma(1, x) + rv * rv * mpmath.polygamma(2, x))


def hf_limit(gamma: float) -> mpf:
    with mpmath.workprec(ORACLE_BITS):
        g = mpf(gamma)
        return +mpmath.sqrt(g / (2 * mpmath.sqrt(g - 1)))


def pairing_norm(gamma: float) -> mpf:
    with mpmath.workprec(ORACLE_BITS):
        g = mpf(gamma)
        return +(g / (2 * mpmath.sqrt(g - 1)))


def mode_bounded(gamma: float, d: float, k: int) -> bool:
    """d in I_k(gamma) = (-2k-1, (2k+2)(gamma-1)+1), decided exactly."""
    dF, gF = Fraction(d), Fraction(gamma)
    return -2 * k - 1 < dF < (2 * k + 2) * (gF - 1) + 1


def mode_norms(gamma: float, d: float, k_last: int) -> List[mpf]:
    with mpmath.workprec(ORACLE_BITS):
        return [mpmath.sqrt(symbol_j(gamma, d, k)) for k in range(k_last + 1)]


def classify(gamma: float, d: float, k_max: int) -> Tuple[str, Optional[int]]:
    """Monotonicity of k -> J on 0..k_max and the first turning index."""
    if gamma == 2 and d == 1:
        return "constant", None
    js = [symbol_j(gamma, d, k) for k in range(k_max + 1)]
    direction = 0
    for k in range(k_max):
        step = 1 if js[k + 1] > js[k] else -1
        if direction == 0:
            direction = step
        elif step != direction:
            return "non-monotone", k
    return ("strictly-increasing" if direction > 0 else "strictly-decreasing"), None


# ----------------------------------------------------------------------
# comparing printed numbers
# ----------------------------------------------------------------------
def print_rounding(printed: float) -> float:
    """Largest error of printing a double with 15 significant digits, plus
    the rounding of the working value to a double."""
    if printed == 0 or not math.isfinite(printed):
        return 0.0
    exponent = math.floor(math.log10(abs(printed)))
    return 0.5 * 10.0 ** (exponent - 14) + abs(printed) * 2.0 ** -52


def value_problems(
    label: str, text: str, expected: mpf, tol: float, radius_text: Optional[str] = None
) -> List[str]:
    try:
        got = float(text)
    except ValueError:
        return [f"{label}: unparseable number {text!r}"]
    with mpmath.workprec(ORACLE_BITS):
        err = abs(mpf(got) - expected)
    slack = print_rounding(got)
    problems = []
    if err > tol + slack:
        problems.append(f"{label} = {text}: off the oracle {mpmath.nstr(expected, 17)} by {float(err):.3e} > tol {tol:g}")
    if radius_text is not None:
        radius = float(radius_text)
        if err > radius + slack:
            problems.append(f"{label} = {text}: radius {radius_text} does not enclose the oracle (error {float(err):.3e})")
    return problems


def _kv(stdout: str) -> Dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"line without ' = ': {line!r}")
        out[key] = value
    return out


def _fmt(x: float) -> str:
    return format(x, ".15g")


def _tol(cmd: Command) -> float:
    return float(cmd.spec.get("tol", DEFAULT_TOL))


# ----------------------------------------------------------------------
# per-kind checks
# ----------------------------------------------------------------------
def _check_version(cmd: Command, stdout: str, files) -> List[str]:
    if not re.fullmatch(r"leraykit \d+\.\d+\.\d+\n", stdout):
        return [f"version output {stdout!r}"]
    return []


def _check_phi(cmd: Command, stdout: str, files) -> List[str]:
    r, q = cmd.spec["r"], cmd.spec["q"]
    kv = _kv(stdout)
    problems = []
    if kv.get("r") != _fmt(r) or kv.get("q") != _fmt(q):
        problems.append(f"echoed r, q = {kv.get('r')}, {kv.get('q')}")
    expected = phi(r, q)
    problems += value_problems("phi", kv["phi"], expected, _tol(cmd), kv["error_radius"])
    if r > max(q - 1, 0.0):
        lo, hi = float(kv["sandwich_lower"]), float(kv["sandwich_upper"])
        if not (lo - print_rounding(lo) < expected < hi + print_rounding(hi)):
            problems.append(f"sandwich [{lo}, {hi}] excludes phi {mpmath.nstr(expected, 17)}")
    elif "sandwich_lower" in kv:
        problems.append("sandwich printed outside r > max(q-1, 0)")
    return problems


def _check_symbol(cmd: Command, stdout: str, files) -> List[str]:
    g, d, ks = cmd.spec["gamma"], cmd.spec["d"], cmd.spec["ks"]
    lines = stdout.splitlines()
    if lines[0] != "k,J,sqrt_J,bounded,error_radius":
        return [f"symbol header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [row[0] for row in rows] != [str(k) for k in ks]:
        return [f"symbol rows for k = {[row[0] for row in rows]}, expected {ks}"]
    problems = []
    for k, (_, j, sqrt_j, bounded, radius) in zip(ks, rows):
        if bounded != ("true" if mode_bounded(g, d, k) else "false"):
            problems.append(f"k={k}: bounded flag {bounded}")
            continue
        if bounded == "false":
            if (j, sqrt_j, radius) != ("", "", ""):
                problems.append(f"k={k}: values printed for an unbounded mode")
            continue
        expected = symbol_j(g, d, k)
        problems += value_problems(f"J(k={k})", j, expected, _tol(cmd), radius)
        with mpmath.workprec(ORACLE_BITS):
            problems += value_problems(f"sqrt_J(k={k})", sqrt_j, mpmath.sqrt(expected), _tol(cmd))
    return problems


def _check_norm(cmd: Command, stdout: str, files) -> List[str]:
    s = cmd.spec
    g, d, kind, k_cap = s["gamma"], s["d"], s["measure"], s["k_cap"]
    kv = _kv(stdout)
    problems = []
    if kv["gamma"] != _fmt(g) or kv["d"] != _fmt(d) or kv["measure"] != kind:
        problems.append(f"echoed gamma, d, measure = {kv['gamma']}, {kv['d']}, {kv['measure']}")
    limit = hf_limit(g)
    if kind == "preferred":
        method, expected, at = "closed-form", limit, ""
    elif kind == "pairing":
        method, expected, at = "closed-form", pairing_norm(g), "0"
    elif kind == "lebesgue" or g == 2:
        method, expected, at = "closed-form", mode_norms(g, d, 0)[0], "0"
    else:
        method = "sup-search"
        scanned = int(kv["k_scanned"])
        if not 0 < scanned <= k_cap + 1:
            return problems + [f"k_scanned = {scanned} outside 1..{k_cap + 1}"]
        # the modes the program reports having scanned (the index of the
        # last one when it stabilized, the count when it hit the cap)
        norms = mode_norms(g, d, min(scanned, k_cap))
        best = max(range(len(norms)), key=norms.__getitem__)
        if limit > norms[best]:
            expected, at = limit, ""
        else:
            expected, at = norms[best], str(best)
        if kv["stabilized"] not in ("true", "false"):
            problems.append(f"stabilized = {kv['stabilized']!r}")
    if kv["method"] != method:
        problems.append(f"method {kv['method']}, expected {method}")
    if kv["attained_at_k"] != at:
        problems.append(f"attained_at_k = {kv['attained_at_k']!r}, expected {at!r}")
    return problems + value_problems("norm", kv["norm"], expected, _tol(cmd), kv["error_radius"])


def _check_scan(cmd: Command, stdout: str, files) -> List[str]:
    s = cmd.spec
    kv = _kv(stdout)
    classification, turning = classify(s["gamma"], s["d"], s["k_max"])
    problems = []
    if kv.get("classification") != classification:
        problems.append(f"classification {kv.get('classification')}, expected {classification}")
    if kv.get("turning_k") != (None if turning is None else str(turning)):
        problems.append(f"turning_k {kv.get('turning_k')}, expected {turning}")
    return problems


def _csv_rows(files: Dict[str, bytes], cmd: Command) -> List[List[str]]:
    data = files.get(cmd.outputs[0])
    if data is None:
        raise ValueError(f"{cmd.outputs[0]} not written")
    return [line.split(",") for line in data.decode("utf-8").splitlines()]


def _check_wrote(cmd: Command, stdout: str) -> List[str]:
    want = f"wrote {cmd.outputs[0]}\n"
    return [] if stdout.endswith(want) else [f"stdout does not end with {want!r}"]


def _check_phi_sweep(cmd: Command, stdout: str, files) -> List[str]:
    s = cmd.spec
    rows = _csv_rows(files, cmd)
    header = ["r"] + [f"Phi_q{q:g}" for q in s["q_set"]]
    if rows[0] != header:
        return [f"phi-sweep header {rows[0]}"]
    grid = phi_grid(s["grid_min"], s["grid_max"], s["grid_count"])
    if len(rows) - 1 != len(grid):
        return [f"phi-sweep has {len(rows) - 1} rows, expected {len(grid)}"]
    problems = _check_wrote(cmd, stdout)
    for r, row in zip(grid, rows[1:]):
        if row[0] != _fmt(r):
            problems.append(f"grid point {row[0]}, expected {_fmt(r)}")
            continue
        for q, text in zip(s["q_set"], row[1:]):
            problems += value_problems(f"phi({_fmt(r)}, {q:g})", text, phi(r, q), _tol(cmd))
    return problems


def _check_j_sweep(cmd: Command, stdout: str, files) -> List[str]:
    s = cmd.spec
    rows = _csv_rows(files, cmd)
    header = ["k"] + [f"J_d{d:g}" for d in s["d_set"]]
    if rows[0] != header:
        return [f"j-sweep header {rows[0]}"]
    if [row[0] for row in rows[1:]] != [str(k) for k in range(s["k_max"] + 1)]:
        return ["j-sweep mode column"]
    problems = _check_wrote(cmd, stdout)
    for k, row in enumerate(rows[1:]):
        for d, text in zip(s["d_set"], row[1:]):
            problems += value_problems(f"J(d={d:g}, k={k})", text, symbol_j(s["gamma"], d, k), _tol(cmd))
    return problems


def _check_certify(cmd: Command, stdout: str, files) -> List[str]:
    data = files.get(cmd.outputs[0])
    if data is None:
        return [f"{cmd.outputs[0]} not written"]
    report = json.loads(data)
    got = {c["claim_id"]: c["verdict"] for c in report["certificates"]}
    problems = []
    for claim, verdict in EXPECTED_VERDICTS.items():
        if got.get(claim) != verdict:
            problems.append(f"{claim}: verdict {got.get(claim)}, expected {verdict}")
    for claim in sorted(set(got) - set(EXPECTED_VERDICTS)):
        problems.append(f"unexpected certificate {claim}")
    passed = sum(line.startswith("[PASS] ") for line in stdout.splitlines())
    if passed != len(EXPECTED_VERDICTS):
        problems.append(f"{passed} [PASS] lines, expected {len(EXPECTED_VERDICTS)}")
    return problems + _check_wrote(cmd, stdout)


_CHECKS = {
    "version": _check_version,
    "phi": _check_phi,
    "symbol": _check_symbol,
    "norm": _check_norm,
    "scan": _check_scan,
    "phi-sweep": _check_phi_sweep,
    "j-sweep": _check_j_sweep,
    "certify": _check_certify,
}


def check(cmd: Command, returncode: int, stdout: str, stderr: str, files: Dict[str, bytes]) -> List[str]:
    """Problems with one command's result; [] when it is the expected answer."""
    if cmd.kind == "hostile":
        problems = []
        if returncode != 2:
            problems.append(f"exit {returncode}, expected 2")
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip().splitlines()[-1])
        if stdout:
            problems.append("output printed for an out-of-domain input")
        return problems
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {returncode}, expected 0: {tail[0]}"]
    try:
        return _CHECKS[cmd.kind](cmd, stdout, files)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output ({type(exc).__name__}: {exc})"]


def tally(results: Sequence[Tuple[Command, List[str]]]) -> Dict[str, object]:
    """Count attempted and failed commands; a failure outside the known
    defects makes the run incorrect."""
    failed = [(c, p) for c, p in results if p]
    unexpected = [(c, p) for c, p in failed if not c.known_defect]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "unexpected": len(unexpected),
        "correct": not unexpected,
        "failures": failed,
    }
