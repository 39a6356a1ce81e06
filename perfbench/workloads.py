"""Seeded command lists for the three benchmark workloads.

A workload is one pass: a list of :class:`Command`, each the argv handed
to ``python -m leraykit.cli`` plus the facts the oracle needs to judge its
output.  The same seed gives the same list; the program sees only argv
(and, for one sweep command, LERAYKIT_PRECISION_BITS).

Output paths are relative to the checkout root, under ``OUT_DIR``, so
argv is fully determined by the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

OUT_DIR = ".bench_build/perfbench/out"

# Workload name -> one-sentence reason (mirrored in BENCHMARK.json).
WHY = {
    "certify": "certify --suite all: bwcert's f_q quadrature cross-check dominates, "
    "emcert/exactpoly add a little, symbol and phi do no work",
    "queries": "short seeded CLI queries incl. hostile inputs: ~1.2 s start-up per "
    "command dominates (scipy import), sup-search draws set the tail",
    "sweeps": "figures phi/j sweeps, 2000-mode norm searches and a 200-bit phi sweep: "
    "compute-bound in specialfn/symbol, start-up a minority",
}
WORKLOADS = tuple(WHY)

NAMED_MEASURES = ("pairing", "preferred", "dual_preferred", "lebesgue")
CLOSED_FORM_MEASURES = ("pairing", "preferred", "lebesgue")

# (gamma, d) pairs whose unbounded (k-max 2000) sup-search stabilizes after
# 600-770 modes at this commit, so the sweeps pass costs about the same on
# every seed.  gamma = 3, d = 0.5 (609 modes) is ROADMAP's slow example.
SWEEP_NORM_POOL = ((3.0, 0.5), (2.5, 0.3), (1.5, 0.2), (3.0, 2.6), (4.0, 0.6), (4.5, 0.8))
PHI_Q_POOL = (-1.0, -0.5, 0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the facts its expected answer depends on."""

    kind: str  # version | phi | symbol | norm | scan | j-sweep | phi-sweep | certify | hostile
    argv: Tuple[str, ...]
    spec: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)
    env: Tuple[Tuple[str, str], ...] = ()
    outputs: Tuple[str, ...] = ()  # files the command writes, relative to the root
    known_defect: bool = False  # this commit answers it wrongly; counted, not hidden

    @property
    def key(self) -> Tuple:
        return (self.argv, self.env)

    def label(self) -> str:
        prefix = " ".join(f"{k}={v}" for k, v in self.env)
        return (prefix + " " if prefix else "") + "leraykit " + " ".join(self.argv)


def _num(x: float) -> str:
    return repr(float(x))


def interval0(gamma: float) -> Tuple[float, float]:
    """I_0(gamma), the measure exponents for which every mode is bounded."""
    return -1.0, 2.0 * (gamma - 1.0) + 1.0


def measure_exponent(kind: str, gamma: float) -> float:
    """The exponent d of a named measure, rounded to a double as the CLI does."""
    return {
        "pairing": gamma - 1,
        "preferred": (gamma + 1) / 3,
        "dual_preferred": (5 * gamma - 7) / 3,
        "lebesgue": 1.0,
    }[kind]


def phi_grid(grid_min: float, grid_max: float, count: int) -> List[float]:
    """The documented log grid of ``figures --id phi-sweep``."""
    lo, hi = math.log(grid_min), math.log(grid_max)
    return [math.exp(lo + i * (hi - lo) / (count - 1)) for i in range(count)]


# ----------------------------------------------------------------------
# draws
# ----------------------------------------------------------------------
def _gamma(rng: random.Random) -> float:
    return round(rng.uniform(1.2, 6.0), 3)


def _interior_d(rng: random.Random, gamma: float) -> float:
    # the central 70% of I_0 keeps J moderate, so the default absolute
    # tolerance of 1e-12 is reachable
    lo, hi = interval0(gamma)
    return round(lo + (hi - lo) * rng.uniform(0.15, 0.85), 3)


def _search_d(rng: random.Random, gamma: float) -> float:
    """A d that takes leray_norm to its sup-search (no closed form)."""
    while True:
        d = _interior_d(rng, gamma)
        specials = (gamma - 1, (gamma + 1) / 3, 1.0)
        if all(abs(d - s) > 0.05 for s in specials):
            return d


def _phi_args(rng: random.Random) -> Tuple[float, float]:
    while True:
        q = rng.choice(PHI_Q_POOL)
        r = round(math.exp(rng.uniform(math.log(0.2), math.log(200.0))), 4)
        if r + 1 - q > 0.05 and abs(r - q) > 0.01:
            return r, q


def _queries(rng: random.Random) -> List[Command]:
    cmds: List[Command] = [VERSION]
    for _ in range(2):
        r, q = _phi_args(rng)
        cmds.append(Command("phi", ("phi", "--r", _num(r), "--q", _num(q)), {"r": r, "q": q}))

    g = _gamma(rng)
    kind = rng.choice(("generic",) + NAMED_MEASURES)
    d = _interior_d(rng, g) if kind == "generic" else measure_exponent(kind, g)
    k0 = rng.randint(0, 20) if kind == "generic" else 0
    k1 = k0 + rng.randint(0, 7)
    measure = ("--d", _num(d)) if kind == "generic" else ("--measure", kind)
    cmds.append(Command(
        "symbol", ("symbol", "--gamma", _num(g)) + measure + ("--k", f"{k0}..{k1}"),
        {"gamma": g, "d": d, "ks": list(range(k0, k1 + 1))},
    ))

    g = _gamma(rng)
    kind = rng.choice(CLOSED_FORM_MEASURES)
    cmds.append(Command(
        "norm", ("norm", "--gamma", _num(g), "--measure", kind),
        {"gamma": g, "d": measure_exponent(kind, g), "measure": kind, "k_cap": 200},
    ))
    for _ in range(2):
        g = _gamma(rng)
        d = _search_d(rng, g)
        cmds.append(Command(
            "norm", ("norm", "--gamma", _num(g), "--d", _num(d)),
            {"gamma": g, "d": d, "measure": "generic", "k_cap": 200},
        ))

    g = _gamma(rng)
    d = _interior_d(rng, g)
    k_max = rng.randint(10, 60)
    cmds.append(Command(
        "scan", ("scan", "--gamma", _num(g), "--d", _num(d), "--k-max", str(k_max)),
        {"gamma": g, "d": d, "k_max": k_max},
    ))

    cmds += _hostile(rng)
    rng.shuffle(cmds)
    return cmds


def _hostile(rng: random.Random) -> List[Command]:
    """Two out-of-domain inputs per pass; each must exit 2 with a message.

    One is always a non-finite exponent on symbol/norm/scan: at this commit
    those end in an OverflowError traceback with exit 1 (ROADMAP), so that
    slot is marked as a known defect and counted in the failures.  The other
    is drawn from non-finite and finite out-of-domain inputs that the CLI
    rejects correctly, so the share of failures is the same on every seed.
    """
    g = _gamma(rng)
    d = _interior_d(rng, g)
    which = rng.choice(("symbol", "norm", "scan"))
    gamma_arg, d_arg = rng.choice((
        ("--gamma=inf", f"--d={_num(d)}"),
        (f"--gamma={_num(g)}", "--d=inf"),
        (f"--gamma={_num(g)}", "--d=-inf"),
    ))
    tail = {"symbol": ("--k", "0..3"), "norm": (), "scan": ("--k-max", "10")}[which]
    defect = Command("hostile", (which, gamma_arg, d_arg) + tail, known_defect=True)

    r, _ = _phi_args(rng)
    lo, hi = interval0(g)
    rejected = rng.choice((
        ("symbol", "--gamma", _num(g), "--d", "nan", "--k", "0..3"),
        ("phi", "--r", "inf", "--q", "0"),
        ("phi", "--r", "nan", "--q", "0"),
        ("phi", "--r", _num(r), "--q", "inf"),
        ("norm", "--gamma", "nan", "--d", "1"),
        ("scan", "--gamma", _num(g), "--d", "nan", "--k-max", "5"),
        ("norm", "--gamma", _num(round(rng.uniform(0.1, 1.0), 3)), "--d", "1"),
        ("norm", "--gamma", _num(g), "--d", _num(round(hi + rng.uniform(0.5, 5), 3))),
        ("scan", "--gamma", _num(g), "--d", _num(round(lo - rng.uniform(0.5, 5), 3)), "--k-max", "10"),
        ("symbol", "--gamma", _num(g), "--d", _num(round(hi + 50, 3)), "--k", "0..2"),
        ("phi", "--r", _num(r), "--q", _num(r)),
        ("phi", "--r", "0.5", "--q", _num(round(rng.uniform(2.0, 5.0), 3))),
        ("symbol", "--gamma", _num(g), "--d", _num(d), "--k", "5..2"),
        ("norm", "--gamma", _num(g), "--measure", "pairing", "--tol", "0"),
    ))
    return [defect, Command("hostile", rejected)]


def _sweeps(rng: random.Random) -> List[Command]:
    out = OUT_DIR
    while True:
        gmin = round(rng.uniform(0.5, 1.0), 3)
        gmax = round(rng.uniform(500.0, 2000.0), 1)
        q_set = sorted(rng.sample(PHI_Q_POOL, 5))
        grid = phi_grid(gmin, gmax, 60)
        if all(abs(r - q) > 1e-3 and r + 1 - q > 0 for r in grid for q in q_set):
            break
    q_arg = ",".join(_num(q) for q in q_set)
    phi_spec = {"grid_min": gmin, "grid_max": gmax, "grid_count": 60, "q_set": q_set}

    def phi_sweep(sub: str, env: Tuple[Tuple[str, str], ...] = ()) -> Command:
        return Command(
            "phi-sweep",
            ("figures", "--id", "phi-sweep", "--out", f"{out}/{sub}", f"--q-set={q_arg}",
             "--grid-min", _num(gmin), "--grid-max", _num(gmax)),
            phi_spec, env, (f"{out}/{sub}/phi_sweep.csv",),
        )

    d_set = sorted(rng.sample([x / 4 for x in range(-3, 36)], 5))  # inside I_0(5) = (-1, 9)
    j_sweep = Command(
        "j-sweep",
        ("figures", "--id", "j-sweep", "--out", f"{out}/j",
         "--d-set=" + ",".join(_num(d) for d in d_set)),
        {"gamma": 5.0, "d_set": d_set, "k_max": 200},
        outputs=(f"{out}/j/j_sweep.csv",),
    )
    norms = [
        Command(
            "norm", ("norm", "--gamma", _num(g), "--d", _num(d), "--k-max", "2000"),
            {"gamma": g, "d": d, "measure": "generic", "k_cap": 2000},
        )
        for g, d in rng.sample(SWEEP_NORM_POOL, 2)
    ]
    cmds = [phi_sweep("phi"), j_sweep] + norms + [
        phi_sweep("phi200", (("LERAYKIT_PRECISION_BITS", "200"),)),
    ]
    rng.shuffle(cmds)
    return cmds


def _certify(rng: random.Random) -> List[Command]:
    path = f"{OUT_DIR}/certify/report.json"
    return [Command(
        "certify", ("certify", "--suite", "all", "--format", "json", "--output", path),
        outputs=(path,),
    )]


_BUILDERS = {"certify": _certify, "queries": _queries, "sweeps": _sweeps}


def generate(workload: str, seed: int) -> List[Command]:
    """The command list of one pass of `workload`, drawn from `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# `leraykit version` imports everything and computes nothing: the untimed
# warm-up (it compiles and caches every module) and the set-up probe.
VERSION = Command("version", ("version",))
