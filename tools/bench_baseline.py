"""Timings for the layer table of ROADMAP.md (aim 1), from one checkout.

    python tools/bench_baseline.py [--src SRC] [--runs 5] [--tier1] [--out BENCH.json]

In process, in a fresh interpreter: each L1-L4 call, each `emcert`
certificate, the two exact `bwcert` certificates, the three exact Taylor
tables `bwcert` builds on import and `exp_series_nonnegative` on the
kernel's d0 among them.  After one warm-up call, a second sets n, the
fewest back-to-back calls (at least 1) that last 20 ms at its time, and
the row is the median per-call time of --runs samples of n calls each.
(Medians of 5 single calls of 0.1 ms swung by up to 1.7x between
back-to-back runs on a busy machine.)  Also in process, but cold: the
1,005 modes of `figures --id j-sweep --d-set=1.0,3.75,4.0,4.75,8.0` as
the CLI computes them (one `symbol._mode_walk` per column, read row by
row), each run in its own fresh interpreter after the imports, median of
--runs.  As subprocesses: `import leraykit`, `import leraykit.bwcert`
(which builds the kernel's Taylor tables exactly), `leraykit version`,
`phi --r 3 --q 0.5`, `norm --gamma 3 --d 0.5`, `certify --suite bw`, `--suite em` and
`--suite all --format json` (the benchmark's `certify` command, to stdout),
`figures --id phi-sweep`, the same at LERAYKIT_PRECISION_BITS=200, and that
j-sweep, wall clock from spawn to exit, median of --runs.  With --tier1,
one run of the tier-1 suite from the checkout holding SRC; a failing run
exits non-zero with the tail of its output and records no time.  The JSON
result (seconds) goes to --out (default stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

IN_PROCESS = r"""
import json, math, statistics, sys, time
from leraykit import bwcert, emcert, leray_norm, log_gamma, monotonicity_scan, phi, polygamma, sup_search, symbol_value
from leraykit.bwcert import bw_certificate_suite, cm_numeric_certificate, f_q
from leraykit.exactpoly import BivariatePolynomial, exp_series_nonnegative
d0 = bwcert._d0(BivariatePolynomial.x(), BivariatePolynomial.y())
from leraykit.specialfn import phi_series_partial
runs = int(sys.argv[1])
calls = {
    "L1 log_gamma(7.5)": lambda: log_gamma(7.5),
    "L1 polygamma(1, 7.5)": lambda: polygamma(1, 7.5),
    "L1 phi(2.5, 0.25), with its series cross-check": lambda: phi(2.5, 0.25),
    "L1 phi_series_partial(2.5, 0.25), the cross-check alone": lambda: phi_series_partial(2.5, 0.25),
    "L2 symbol_value(3, 0.5, 7)": lambda: symbol_value((3.0, 0.5, 7)),
    "L2 monotonicity_scan(3, 0.5, 200)": lambda: monotonicity_scan(3.0, 0.5, 200),
    "L2 monotonicity_scan(5, 3, 2000), non-monotone": lambda: monotonicity_scan(5.0, 3.0, 2000),
    "L2 sup_search(60, 100, k_cap=20000)": lambda: sup_search(60.0, 100.0, k_cap=20000),
    "L2 leray_norm(5, 2.5)": lambda: leray_norm(5.0, 2.5),
    "L2 leray_norm(3, 0.5)": lambda: leray_norm(3.0, 0.5),
    "L3 f_q(2, 0.5), with quadrature cross-check": lambda: f_q(2.0, 0.5),
    "L3 f_q(2, 0.5), without": lambda: f_q(2.0, 0.5, cross_check=False),
    "L3 cm_numeric_certificate(0)": lambda: cm_numeric_certificate(0.0),
    "L3 bw_certificate_suite": bw_certificate_suite,
    "L3 bw.cm-refuted.q=2/3, exact": bwcert._refutation_certificate,
    "L3 bw.quadratic.structure, exact": bwcert._structure_certificate,
    "L3 bwcert's three Taylor tables, as its import builds them":
        lambda: [bwcert._taylor_table(f) for f in (bwcert._h0, bwcert._h1, bwcert._d0)],
    "L4 exp_series_nonnegative(d0)": lambda: exp_series_nonnegative(d0),
    **{f"L4 {name}": getattr(emcert, name) for name in (
        "series_decomposition_certificate", "integral_antiderivative_certificate",
        "bracket_certificates", "h_pipeline", "s_bound_certificate", "em_certificate_suite",
    )},
}
out = {}
for name, call in calls.items():
    call()  # a first call can fill caches (log_gamma(7.5): 0.10 ms, then 0.02 ms)
    start = time.perf_counter()
    call()
    n = max(1, math.ceil(0.02 / (time.perf_counter() - start)))
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        for _ in range(n):
            call()
        times.append((time.perf_counter() - start) / n)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""

# the j-sweep of the `sweeps` workload's size, as `figures --id j-sweep` runs it
J_SWEEP_D_SET = "1.0,3.75,4.0,4.75,8.0"
J_SWEEP_COLD = r"""
import sys, time
from leraykit.cli import J_SWEEP_GAMMA
from leraykit.symbol import _mode_walk
d_set = [float(d) for d in sys.argv[1].split(",")]
start = time.perf_counter()
walks = [_mode_walk(J_SWEEP_GAMMA, d, 200) for d in d_set]
for k in range(201):
    for walk in walks:
        next(walk)
print(time.perf_counter() - start)
"""


def _env(src: Path) -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


def _wall(argv: List[str], src: Path, runs: int, env: Dict[str, str]) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env={**_env(src), **env}, capture_output=True, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--runs", type=int, default=5, help="timed samples or processes per row")
    parser.add_argument("--tier1", action="store_true", help="also time one tier-1 run")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args()
    src = args.src.resolve()

    proc = subprocess.run([sys.executable, "-c", IN_PROCESS, str(args.runs)],
                          env=_env(src), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(proc.stderr)
    result: Dict[str, float] = json.loads(proc.stdout)
    cold = [subprocess.run([sys.executable, "-c", J_SWEEP_COLD, J_SWEEP_D_SET], env=_env(src),
                           capture_output=True, text=True, check=True).stdout for _ in range(args.runs)]
    result["L2 j-sweep's 1,005 modes by the CLI's mode walks, cold"] = statistics.median(map(float, cold))
    cli = ["-m", "leraykit.cli"]
    phi_200 = "L5 LERAYKIT_PRECISION_BITS=200 figures --id phi-sweep"
    with tempfile.TemporaryDirectory() as tmp:
        subprocesses = {
            "L0 import leraykit": ["-c", "import leraykit"],
            "L0 leraykit version": cli + ["version"],
            "L3 import leraykit.bwcert": ["-c", "import leraykit.bwcert"],
            "L5 phi --r 3 --q 0.5": cli + ["phi", "--r", "3", "--q", "0.5"],
            "L5 norm --gamma 3 --d 0.5": cli + ["norm", "--gamma", "3", "--d", "0.5"],
            "L5 certify --suite bw": cli + ["certify", "--suite", "bw"],
            "L5 certify --suite em": cli + ["certify", "--suite", "em"],
            "L5 certify --suite all --format json": cli + ["certify", "--suite", "all", "--format", "json"],
            "L5 figures --id phi-sweep": cli + ["figures", "--id", "phi-sweep", "--out", tmp],
            phi_200: cli + ["figures", "--id", "phi-sweep", "--out", tmp],
            f"L5 figures --id j-sweep --d-set={J_SWEEP_D_SET}":
                cli + ["figures", "--id", "j-sweep", f"--d-set={J_SWEEP_D_SET}", "--out", tmp],
        }
        for name, argv in subprocesses.items():
            env = {"LERAYKIT_PRECISION_BITS": "200"} if name == phi_200 else {}
            result[name] = _wall(argv, src, args.runs, env)
    if args.tier1:
        start = time.perf_counter()
        tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                               cwd=src.parent, env=_env(src), capture_output=True, text=True)
        if tier1.returncode != 0:
            tail = "\n".join((tier1.stdout + tier1.stderr).splitlines()[-20:])
            raise SystemExit(f"tier-1 failed (exit {tier1.returncode}); no time recorded:\n{tail}")
        result["tier-1"] = time.perf_counter() - start

    text = json.dumps({"python": sys.version.split()[0], "runs": args.runs, "seconds": result},
                      indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
