"""Before/after timing of the exact Euler-Maclaurin layer (`emcert`).

    python tools/bench_exact_layer.py --before OLD/src --after NEW/src \\
        [--runs 7] [--repeats 5] [--out BENCH.json]

For each of two source trees it measures
  * in process, in a fresh interpreter: each `emcert` certificate and the
    whole `em_certificate_suite`, as the median of --repeats calls after
    one warm-up call;
  * as a subprocess: `python -m leraykit.cli certify --suite all --format
    json`, wall clock from spawn to exit, --runs times per tree, the two
    trees alternating which runs first;
and the sha256 of that report.  The report bytes must be the same for both
trees; the script exits 1 when they are not.  The JSON result goes to
--out (default stdout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

CERTIFICATES = (
    "series_decomposition_certificate",
    "integral_antiderivative_certificate",
    "bracket_certificates",
    "h_pipeline",
    "s_bound_certificate",
    "em_certificate_suite",
)

IN_PROCESS = """
import json, statistics, sys, time
from leraykit import emcert
repeats = int(sys.argv[1])
out = {}
for name in sys.argv[2:]:
    fn = getattr(emcert, name)
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""

CERTIFY = ("-m", "leraykit.cli", "certify", "--suite", "all", "--format", "json")


def _env(src: Path) -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


def in_process(src: Path, repeats: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-c", IN_PROCESS, str(repeats), *CERTIFICATES],
        env=_env(src), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def certify_once(src: Path) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *CERTIFY], env=_env(src), capture_output=True, check=True)
    return time.perf_counter() - start, hashlib.sha256(proc.stdout).hexdigest()


def summary(times: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(times)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="src directory of the old tree")
    parser.add_argument("--after", type=Path, required=True, help="src directory of the new tree")
    parser.add_argument("--runs", type=int, default=7, help="certify subprocess runs per tree")
    parser.add_argument("--repeats", type=int, default=5, help="in-process calls per certificate")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args()
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}

    result: Dict[str, object] = {
        "python": sys.version.split()[0],
        "in_process_s": {side: in_process(src, args.repeats) for side, src in trees.items()},
    }
    times: Dict[str, List[float]] = {side: [] for side in trees}
    digests: Dict[str, set] = {side: set() for side in trees}
    for i in range(args.runs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            elapsed, digest = certify_once(trees[side])
            times[side].append(elapsed)
            digests[side].add(digest)
    result["certify_subprocess_s"] = {side: {**summary(t), "runs": t} for side, t in times.items()}
    result["certify_order"] = "before first on even runs (0-based), after first on odd runs"
    result["report_sha256"] = {side: sorted(d) for side, d in digests.items()}
    identical = len(digests["before"] | digests["after"]) == 1
    result["report_identical"] = identical

    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
