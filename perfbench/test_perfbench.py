"""Tests of the benchmark itself: generator, oracle, failure counting,
span arithmetic and the agreement of BENCHMARK.json with the code."""

import json
from pathlib import Path

import mpmath
import pytest

import oracle
import run
import spans
import workloads
from workloads import Command


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    def snapshot(seed):
        return [(c.kind, c.argv, c.env, c.outputs, c.spec, c.known_defect)
                for c in workloads.generate(name, seed)]

    assert snapshot(7) == snapshot(7)
    assert all(isinstance(a, str) for c in workloads.generate(name, 7) for a in c.argv)


@pytest.mark.parametrize("name", ("queries", "sweeps"))
def test_seeds_draw_different_inputs(name):
    argvs = {tuple(c.argv for c in workloads.generate(name, seed)) for seed in range(5)}
    assert len(argvs) == 5


def test_queries_keep_a_fixed_share_of_hostile_inputs():
    for seed in range(20):
        cmds = workloads.generate("queries", seed)
        assert len(cmds) == 10
        assert sum(c.kind == "hostile" for c in cmds) == 2
        assert sum(c.known_defect for c in cmds) == 1


def test_oracle_heisenberg_symbol_is_one():
    for k in range(6):
        assert abs(oracle.symbol_j(2.0, 1.0, k) - 1) < mpmath.mpf(2) ** -390


@pytest.mark.parametrize("gamma", (1.5, 3.0, 5.0))
def test_oracle_pairing_norm_closed_form(gamma):
    with mpmath.workprec(oracle.ORACLE_BITS):
        mode0 = mpmath.sqrt(oracle.symbol_j(gamma, gamma - 1, 0))
    assert abs(mode0 - oracle.pairing_norm(gamma)) < 1e-100


def test_oracle_modes_approach_the_high_frequency_limit():
    norms = oracle.mode_norms(3.0, 0.5, 0)
    far = mpmath.sqrt(oracle.symbol_j(3.0, 0.5, 100000))
    assert abs(far - oracle.hf_limit(3.0)) < 1e-5
    assert norms[0] > oracle.hf_limit(3.0)


def _phi_command(r=1.0, q=0.0):
    return Command("phi", ("phi", "--r", repr(r), "--q", repr(q)), {"r": r, "q": q})


def _phi_stdout(value):
    return (f"r = 1\nq = 0\nphi = {value:.15g}\nerror_radius = 1e-20\n"
            "sandwich_lower = 0.75\nsandwich_upper = 1.125\n")


def test_correct_phi_output_passes():
    good = _phi_stdout(float(oracle.phi(1.0, 0.0)))
    assert oracle.check(_phi_command(), 0, good, "", {}) == []


def test_wrong_value_or_exit_code_is_counted_as_failed():
    cmd = _phi_command()
    value = float(oracle.phi(1.0, 0.0))
    results = [
        (cmd, oracle.check(cmd, 0, _phi_stdout(value), "", {})),
        (cmd, oracle.check(cmd, 0, _phi_stdout(value * (1 + 1e-9)), "", {})),
        (cmd, oracle.check(cmd, 1, _phi_stdout(value), "", {})),
    ]
    summary = oracle.tally(results)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (3, 2, False)


def test_hostile_input_must_exit_2_without_traceback():
    cmd = Command("hostile", ("symbol", "--gamma=inf", "--d=1", "--k", "0..3"), known_defect=True)
    crash = "Traceback (most recent call last):\nOverflowError: cannot convert Infinity\n"
    problems = oracle.check(cmd, 1, "", crash, {})
    assert len(problems) == 2
    assert oracle.check(cmd, 2, "", "error: gamma must be finite\n", {}) == []
    # a known defect is still counted, but does not make the run incorrect
    summary = oracle.tally([(cmd, problems)])
    assert (summary["failed"], summary["correct"]) == (1, True)


def test_radius_must_enclose_the_oracle():
    expected = mpmath.mpf(1) / 3
    assert oracle.value_problems("x", "0.333333333333333", expected, 1e-12, "1e-15") == []
    assert oracle.value_problems("x", "0.333333333333", expected, 1e-12, "1e-20")


def test_self_time_subtracts_children():
    tree = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0]]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1, 6))) == (3, 50.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |         numpy",
        "import time:       200 |        500 |       scipy",
        "import time:        50 |        200 |       scipy.integrate",
        "import time:        10 |       1000 |     leraykit.emcert",
        "import time:        20 |       1200 |   leraykit",
        "import time:        30 |       1500 | leraykit.cli",
    ])
    assert run.parse_importtime(text) == pytest.approx((1500e-6, 700e-6))


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
