"""End-to-end and per-layer benchmark of the leraykit command line.

    python3 perfbench/run.py --workload certify|queries|sweeps|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command is a child process
``python -m leraykit.cli ...`` with ``PYTHONPATH=src``, run in a closed
loop: one client, one child at a time.  A pass is one run through the
workload's seeded command list; passes repeat until the next one would
end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which each command runs under
``perfbench/spans.py`` instead, and reports the per-layer metrics.

Every output is checked against the oracle after timing ends.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
import spans
import workloads
from workloads import Command

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
COMMAND_LIMIT_S = 60.0  # a child still running after this is killed and fails
TAIL_BEYOND = 10

END_TO_END = (
    ("pass_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

ERROR_TYPES = (
    "DomainError", "UnboundedMode", "DegenerateGamma", "ToleranceUnreachable",
    "ZeroPolynomial", "CrossCheckFailure", "CertificateFailure", "TailUnbounded",
    "InconclusiveComparison", "other",
)
EM_CERTIFICATES = (
    "series_decomposition_certificate", "integral_antiderivative_certificate",
    "bracket_certificates", "h_pipeline", "s_bound_certificate",
)


def _per_layer_names() -> List[Tuple[str, str]]:
    s, n, r = "s", "count", "ratio"
    out = [("cli.import_s", s), ("cli.import_scipy_s", s)]
    out += [(f"cli.{sub}.wall_s", s) for sub in spans.SUBCOMMANDS]
    out += [(f"{layer}.self_s", s) for layer in spans.LAYERS]
    out += [
        ("specialfn.log_gamma.calls", n), ("specialfn.log_gamma.self_s", s),
        ("specialfn.polygamma.calls", n), ("specialfn.polygamma.self_s", s),
        ("specialfn.phi.calls", n), ("specialfn.phi.self_s", s), ("specialfn.phi.wall_s", s),
        ("specialfn.phi_series_partial.self_s", s), ("specialfn.phi.check_share", r),
        ("symbol.symbol_value.calls", n), ("symbol.symbol_value.self_s", s),
        ("symbol.monotonicity_scan.self_s", s),
        ("symbol.sup_search.calls", n), ("symbol.sup_search.modes", n),
        ("symbol.sup_search.stabilized_share", r),
        ("bwcert.f_q.calls", n), ("bwcert.f_q.self_s", s), ("bwcert.f_q.wall_s", s),
        ("bwcert.quad.calls", n), ("bwcert.quad.self_s", s), ("bwcert.f_q.check_share", r),
        ("bwcert.cm_numeric_certificate.self_s", s),
    ]
    out += [(f"emcert.{cert}.self_s", s) for cert in EM_CERTIFICATES]
    out += [
        ("emcert.scipy_quad.calls", n), ("exactpoly.mul.calls", n), ("exactpoly.mul.self_s", s),
        ("certificates.count", n), ("certificates.passed_share", r),
    ]
    out += [(f"{layer}.errors", n) for layer in spans.LAYERS]
    out += [(f"errors.{t}", n) for t in ERROR_TYPES]
    out += [
        ("trace.pass_s", s), ("trace.startup_s", s), ("trace.exit_s", s),
        ("trace.accounted_share", r), ("trace.overhead_share", r),
    ]
    return out


PER_LAYER = _per_layer_names()


# ----------------------------------------------------------------------
# running one child
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    returncode: int
    # perf_counter at spawn and after reaping; the clock is system-wide,
    # so a traced child's spans fall between the two
    start: float
    end: float
    maxrss_kb: int
    stdout: str
    stderr: str
    files: Dict[str, bytes]

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.returncode}\n".encode())
        h.update(self.stdout.encode())
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path])
        return h.hexdigest()


class Runner:
    """Spawns children from the checkout root and collects their results."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        env = dict(os.environ)
        env.pop("LERAYKIT_PRECISION_BITS", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, argv: Sequence[str], extra_env: Sequence[Tuple[str, str]] = (),
              outputs: Sequence[str] = ()) -> Outcome:
        env = dict(self.env, **dict(extra_env))
        for path in outputs:
            (self.root / path).unlink(missing_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(list(argv), cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {p: (self.root / p).read_bytes() for p in outputs if (self.root / p).is_file()}
        return Outcome(proc.returncode, start, end, usage.ru_maxrss,
                       out_path.read_text("utf-8", "replace"), err_path.read_text("utf-8", "replace"),
                       files)

    def cli(self, cmd: Command) -> Outcome:
        return self.spawn([sys.executable, "-m", "leraykit.cli", *cmd.argv], cmd.env, cmd.outputs)

    def traced(self, cmd: Command, spans_path: Path) -> Outcome:
        argv = [sys.executable, str(HERE / "spans.py"), str(spans_path), "--", *cmd.argv]
        return self.spawn(argv, cmd.env, cmd.outputs)

    def import_times(self) -> Tuple[float, float]:
        """(import leraykit.cli, scipy inside it) in seconds, from -X importtime."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import leraykit.cli"],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=COMMAND_LIMIT_S, check=True)
        return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> Tuple[float, float]:
    """Cumulative seconds of ``leraykit.cli`` and of the outermost scipy
    imports beneath it."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = scipy = 0.0
    ancestors: List[str] = []
    for depth, name, cumulative in reversed(entries):  # parents before children
        ancestors = ancestors[:depth]
        if name == "leraykit.cli" and depth == 0:
            total = cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return total, scipy


# ----------------------------------------------------------------------
# timed passes and checking
# ----------------------------------------------------------------------
class Ledger:
    """Every timed command's outcome, reduced to what the checks need: the
    first outcome of each distinct command in full, later ones as digests."""

    def __init__(self) -> None:
        self.first: Dict[Tuple, Tuple[Command, Outcome]] = {}
        self.digests: List[Tuple[Command, str]] = []
        self.walls: List[float] = []
        self.peak_rss_kb = 0

    def add(self, cmd: Command, outcome: Outcome) -> None:
        self.first.setdefault(cmd.key, (cmd, outcome))
        self.digests.append((cmd, outcome.digest()))
        self.walls.append(outcome.wall_s)
        self.peak_rss_kb = max(self.peak_rss_kb, outcome.maxrss_kb)

    def check(self) -> List[Tuple[Command, List[str]]]:
        """Oracle problems per timed command; a repeat whose bytes differ
        from the first run of the same command fails too."""
        verdicts = {}
        first_digest = {}
        for key, (cmd, out) in self.first.items():
            verdicts[key] = oracle.check(cmd, out.returncode, out.stdout, out.stderr, out.files)
            first_digest[key] = out.digest()
        results = []
        for cmd, digest in self.digests:
            problems = list(verdicts[cmd.key])
            if digest != first_digest[cmd.key]:
                problems.append("output bytes differ between repeats")
            results.append((cmd, problems))
        return results

    def report_hashes(self) -> List[Tuple[str, str]]:
        return [(path, hashlib.sha256(data).hexdigest())
                for cmd, out in self.first.values() for path, data in sorted(out.files.items())]


def run_pass(runner: Runner, cmds: List[Command], ledger: Ledger,
             traced_dir: Optional[Path] = None, totals: Optional[spans.PassTotals] = None) -> float:
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        if traced_dir is None:
            ledger.add(cmd, runner.cli(cmd))
            continue
        path = traced_dir / f"{i}.json"
        outcome = runner.traced(cmd, path)
        ledger.add(cmd, outcome)
        if path.is_file():  # a killed child leaves none; its failure is counted
            totals.add(json.loads(path.read_text("utf-8")), outcome.start, outcome.end)
            path.unlink()
    return time.perf_counter() - start


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest-ranked sample with at least
    TAIL_BEYOND samples above it; the median when there are too few."""
    ordered = sorted(samples)
    median = statistics.median(ordered)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank < 1 or ordered[rank - 1] <= median:
        return median, 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _keep_going(start: float, seconds: float, last_pass: float) -> bool:
    return time.perf_counter() - start + last_pass <= seconds


def end_to_end(runner: Runner, cmds: List[Command], seconds: float) -> Tuple[Dict, Ledger, List[str], List[str]]:
    # set-up time is sampled several times per run and reported as a median
    setup_ledger = Ledger()
    for _ in range(SETUP_REPEATS):
        setup_ledger.add(workloads.VERSION, runner.cli(workloads.VERSION))
    ledger = Ledger()
    passes: List[float] = []
    start = time.perf_counter()
    while not passes or _keep_going(start, seconds, passes[-1]):
        passes.append(run_pass(runner, cmds, ledger))

    # the set-up commands are checked like the others but, being no part
    # of a pass, are not counted in attempted / failed
    setup_problems = [p for _, ps in setup_ledger.check() for p in ps]
    tail_s, pct = tail(ledger.walls)
    notes = [f"{len(passes)} passes, {len(ledger.walls)} commands; cmd_tail_s is p{pct:.0f} "
             f"of {len(ledger.walls)} samples"]
    metrics = {
        "pass_s": statistics.median(passes),
        "cmd_p50_s": statistics.median(ledger.walls),
        "cmd_tail_s": tail_s,
        "setup_s": statistics.median(setup_ledger.walls),
        "peak_rss_mb": ledger.peak_rss_kb * 1024 / 1e6,
    }
    return metrics, ledger, notes, setup_problems


def per_layer(runner: Runner, cmds: List[Command], seconds: float) -> Tuple[Dict, Ledger, List[str], List[str]]:
    imports = [runner.import_times() for _ in range(IMPORTTIME_REPEATS)]
    traced_dir = runner.work / "spans"
    traced_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    plain: List[float] = []
    traced: List[Tuple[float, spans.PassTotals]] = []
    start = time.perf_counter()
    while not traced or _keep_going(start, seconds, plain[-1] + traced[-1][0]):
        plain.append(run_pass(runner, cmds, ledger))
        totals = spans.PassTotals()
        traced.append((run_pass(runner, cmds, ledger, traced_dir, totals), totals))

    per_pass = [layer_values(t, wall) for wall, t in traced]
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
    metrics["cli.import_scipy_s"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead_share"] = statistics.median(w for w, _ in traced) / statistics.median(plain) - 1
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes"]
    return metrics, ledger, notes, []


def layer_values(t: spans.PassTotals, wall: float) -> Dict[str, float]:
    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    v: Dict[str, float] = {}
    for sub in spans.SUBCOMMANDS:
        v[f"cli.{sub}.wall_s"] = t.wall_s[f"cli.{sub}"]
    for layer in spans.LAYERS:
        v[f"{layer}.self_s"] = t.layer_self(layer)
        v[f"{layer}.errors"] = t.errors[f"{layer}.errors"]
    for name in ("specialfn.log_gamma", "specialfn.polygamma", "specialfn.phi", "symbol.symbol_value",
                 "symbol.sup_search", "bwcert.f_q", "bwcert.quad", "exactpoly.mul"):
        v[f"{name}.calls"] = t.calls[name]
        v[f"{name}.self_s"] = t.self_s[name]
    for name in ("specialfn.phi_series_partial", "symbol.monotonicity_scan", "bwcert.cm_numeric_certificate"):
        v[f"{name}.self_s"] = t.self_s[name]
    for cert in EM_CERTIFICATES:
        v[f"emcert.{cert}.self_s"] = t.self_s[f"emcert.{cert}"]
    v["specialfn.phi.wall_s"] = t.wall_s["specialfn.phi"]
    v["specialfn.phi.check_share"] = share(t.wall_s["specialfn.phi_check"], t.wall_s["specialfn.phi"])
    v["bwcert.f_q.wall_s"] = t.wall_s["bwcert.f_q"]
    v["bwcert.f_q.check_share"] = share(t.wall_s["bwcert.quad"] + t.wall_s["bwcert.tail_cutoff"],
                                        t.wall_s["bwcert.f_q"])
    v["symbol.sup_search.modes"] = t.counters["symbol.sup_search.modes"]
    v["symbol.sup_search.stabilized_share"] = share(t.counters["symbol.sup_search.stabilized"],
                                                    t.calls["symbol.sup_search"])
    v["emcert.scipy_quad.calls"] = t.calls["emcert.scipy_quad"]
    v["certificates.count"] = t.counters["certificates.count"]
    v["certificates.passed_share"] = share(t.counters["certificates.passed"], t.counters["certificates.count"])
    for err in ERROR_TYPES:
        v[f"errors.{err}"] = t.errors[f"errors.{err}"]
    startup = t.wall_s["cli.boot"] + t.wall_s["cli.import"]
    v["trace.pass_s"] = wall
    v["trace.startup_s"] = startup
    v["trace.exit_s"] = t.wall_s["cli.exit"]
    v["trace.accounted_share"] = (startup + t.wall_s["cli.main"] + t.wall_s["cli.exit"]) / wall
    return v


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> Dict:
    work = root / ".bench_build" / "perfbench"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work)
    cmds = workloads.generate(name, seed)
    warm = runner.cli(workloads.VERSION)  # untimed
    if warm.returncode != 0:
        raise SystemExit(f"warm-up command failed (exit {warm.returncode}):\n{warm.stderr}")

    measure = per_layer if trace else end_to_end
    metrics, ledger, notes, setup_problems = measure(runner, cmds, seconds)
    results = ledger.check()  # after timing: the oracle's cost is never timed
    summary = oracle.tally(results)
    if not trace:
        metrics["ok_share"] = 1 - summary["failed"] / summary["attempted"]
    summary["correct"] = summary["correct"] and not setup_problems
    shutil.rmtree(work, ignore_errors=True)

    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}): " + "; ".join(notes))
    for key in units:
        print(f"  {key:40s} {metrics[key]:.6g} {units[key]}")
    for path, digest in ledger.report_hashes():
        print(f"  sha256 {digest}  {path}")
    for problem in setup_problems:
        print(f"  [FAIL] set-up command: {problem}")
    for cmd, problems in summary["failures"]:
        tag = "known defect" if cmd.known_defect else "FAIL"
        print(f"  [{tag}] {cmd.label()}: {'; '.join(problems)}")
    print(f"  {summary['attempted']} commands checked, {summary['failed']} failed "
          f"({summary['failed'] - summary['unexpected']} known defects)")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "leraykit" / "cli.py").is_file():
        sys.stderr.write(f"no leraykit source under {root / 'src'}; run from the root of a checkout\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
