"""CLI surface: subcommands, formats, config layering, exit codes,
determinism."""

import json
import math
import subprocess
import sys

import pytest

from leraykit.cli import build_config, build_parser, load_config_file, main
from leraykit.specialfn import phi as phi_fn
from leraykit.specialfn import precision_bits, set_precision_bits
from leraykit.symbol import DISTINGUISHED_MEASURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run_cli(capsys, "version")
    assert code == 0
    assert out.startswith("leraykit 0.")


def test_symbol_constant_rows(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--gamma", "2", "--d", "1", "--k", "0..5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,J,sqrt_J,bounded,error_radius"
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(1.0, abs=1e-12)
        assert fields[3] == "true"


def test_symbol_preferred_increasing(capsys):
    code, out, _ = run_cli(
        capsys, "symbol", "--gamma", "5", "--measure", "preferred", "--k", "0..60"
    )
    assert code == 0
    col = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert len(col) == 61
    assert all(b > a for a, b in zip(col, col[1:]))


def test_symbol_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "symbol", "--gamma", "1.5", "--d", "10", "--k", "0")
    assert code == 2
    assert "(-1, 2)" in err and "k=0" in err


def test_symbol_unbounded_range_names_the_largest_mode(capsys):
    # I_k is nested, so the error names I_3(3) = (-7, 17), not I_0 = (-1, 5)
    code, out, err = run_cli(capsys, "symbol", "--gamma", "3", "--d", "50", "--k", "0..3")
    assert code == 2 and out == ""
    assert "k=3" in err and "(-7, 17)" in err


def test_symbol_huge_k_range_exit_2_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "leraykit.cli", "symbol", "--gamma", "3", "--d", "0.5",
         "--k", "0..1000000000000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: mode range '0..1000000000000' has 1000000000001 modes")
    assert "Traceback" not in proc.stderr


def test_symbol_partial_range_marks_unbounded(capsys):
    # d = 4 is outside I_0(1.5) = (-1, 2) but inside I_2(1.5) = (-5, 6)
    code, out, _ = run_cli(capsys, "symbol", "--gamma", "1.5", "--d", "4", "--k", "0..3")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert rows[0][3] == "false" and rows[0][1] == ""
    assert rows[3][3] == "true" and float(rows[3][1]) > 0


def test_norm_report_and_json(capsys):
    code, out, _ = run_cli(capsys, "norm", "--gamma", "2", "--d", "0")
    assert code == 0
    assert "method = closed-form" in out
    value = float(out.split("norm = ")[1].split("\n")[0])
    assert value == pytest.approx(math.sqrt(math.pi / 2), abs=1e-10)

    code, out, _ = run_cli(capsys, "norm", "--gamma", "4", "--measure", "preferred", "--format", "json")
    assert code == 0
    bundle = json.loads(out)
    assert set(bundle) == {"version", "config", "certificates", "tables"}
    row = bundle["tables"][0]["rows"][0]
    cols = bundle["tables"][0]["columns"]
    norm = float(row[cols.index("norm")])
    assert norm == pytest.approx(math.sqrt(4 / (2 * math.sqrt(3))), abs=1e-10)


def test_norm_pairing_value(capsys):
    code, out, _ = run_cli(capsys, "norm", "--gamma", "3", "--measure", "pairing")
    assert code == 0
    value = float(out.split("norm = ")[1].split("\n")[0])
    assert value == pytest.approx(1.06066017177982, abs=1e-10)


@pytest.mark.parametrize("command", ["symbol", "norm", "scan"])
@pytest.mark.parametrize(
    "exponents, name",
    [
        (("--gamma=inf", "--d=1"), "gamma"),
        (("--gamma=nan", "--d=1"), "gamma"),
        (("--gamma=3", "--d=inf"), "d"),
        (("--gamma=3", "--d=-inf"), "d"),
        (("--gamma=3", "--d=nan"), "d"),
    ],
)
def test_non_finite_exponents_exit_2(capsys, command, exponents, name):
    tail = {"symbol": ("--k", "0..3"), "norm": (), "scan": ("--k-max", "10")}[command]
    code, out, err = run_cli(capsys, command, *exponents, *tail)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be finite")
    assert "Traceback" not in err


def test_non_finite_exponent_no_traceback_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "leraykit.cli", "norm", "--gamma=inf", "--d=1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "must be finite" in proc.stderr


@pytest.mark.parametrize(
    "args, name",
    [
        (("--r=inf", "--q=0"), "r"),
        (("--r=-inf", "--q=0"), "r"),
        (("--r=nan", "--q=0"), "r"),
        (("--r=1", "--q=inf"), "q"),
        (("--r=1", "--q=-inf"), "q"),
        (("--r=1", "--q=nan"), "q"),
    ],
)
def test_phi_non_finite_arguments_exit_2(capsys, args, name):
    code, out, err = run_cli(capsys, "phi", *args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be finite (got ")
    assert "Traceback" not in err


def test_phi_shift_past_double_range_exit_2(capsys):
    # r + 1 - q overflows a double, so the series cross-check cannot run
    code, out, err = run_cli(capsys, "phi", "--r=1e308", "--q=-1e308")
    assert code == 2
    assert out == ""
    assert err == "error: phi series check needs r + 1 - q within double range\n"
    assert "Traceback" not in err


def test_phi_sandwich_bounds_bracket_phi_at_huge_negative_q(capsys):
    code, out, _ = run_cli(capsys, "phi", "--r=1", "--q=-1e155")
    assert code == 0
    kv = dict(line.split(" = ") for line in out.splitlines())
    lo, value, hi = (float(kv[k]) for k in ("sandwich_lower", "phi", "sandwich_upper"))
    assert math.isfinite(lo) and math.isfinite(hi)
    assert 0 < lo <= value <= hi


def test_phi_prints_a_tiny_radius_rounded_up_not_as_zero(capsys):
    # the certified radius, 3.59e-335, is below the smallest subnormal double
    code, out, _ = run_cli(capsys, "phi", "--r=5", "--q=-1e300")
    assert code == 0
    kv = dict(line.split(" = ") for line in out.splitlines())
    radius = float(kv["error_radius"])
    assert radius == 5e-324
    assert radius >= phi_fn(5.0, -1e300).error_radius


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1"])
def test_non_finite_or_non_positive_tolerance_exits_2(capsys, tol):
    code, out, err = run_cli(capsys, "phi", "--r", "1", "--q", "0", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance must be positive and finite (got ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("symbol", "--gamma", "3", "--d", "0.5", "--k", "0..3", "--tol", "1e-30"),
         "symbol radius 2.639e-24 exceeds tol=1e-30"),
        (("norm", "--gamma", "3", "--measure", "preferred", "--tol", "1e-40"),
         "norm radius 1.505e-36 exceeds tol=1e-40"),
        (("norm", "--gamma", "3", "--measure", "pairing", "--tol", "1e-30"),
         "norm radius 1.470e-24 exceeds tol=1e-30"),
        (("phi", "--r", "1", "--q", "0", "--tol", "1e-60"), "phi radius 4.299e-24 exceeds tol=1e-60"),
        (("figures", "--id", "j-sweep", "--out", "{out}", "--tol", "1e-30"),
         "symbol radius 2.855e-24 exceeds tol=1e-30"),
        (("figures", "--id", "phi-sweep", "--out", "{out}", "--tol", "1e-30"),
         "phi radius 9.908e-25 exceeds tol=1e-30"),
    ],
    ids=["symbol", "norm-preferred", "norm-pairing", "phi", "j-sweep", "phi-sweep"],
)
def test_printed_radius_above_tolerance_exits_2(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    saved = precision_bits()
    set_precision_bits(120)
    try:
        code, out, err = run_cli(capsys, *(a.format(out=out_dir) for a in argv))
    finally:
        set_precision_bits(saved)
    assert code == 2 and out == ""
    assert err == f"error: {message} at 120-bit precision\n"
    assert not out_dir.exists()


def test_norm_checks_the_radius_it_prints(capsys):
    # sqrt J(2, 3, 0) has radius 1.47e-24 while J's is 3.12e-24
    code, out, _ = run_cli(capsys, "norm", "--gamma", "3", "--measure", "pairing", "--tol", "2e-24")
    assert code == 0
    radius = float(out.split("error_radius = ")[1].split("\n")[0])
    assert 1e-24 < radius <= 2e-24


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scan", "--gamma", "5", "--d", "4", "--format", "json"), "unrecognized arguments: --format json"),
        (("scan", "--gamma", "5", "--d", "4", "--tol", "1e-3"), "unrecognized arguments: --tol 1e-3"),
        (("phi", "--r", "1", "--q", "0", "--format", "json"), "unrecognized arguments: --format json"),
        (("figures", "--id", "j-sweep", "--out", "{out}", "--format", "json"),
         "unrecognized arguments: --format json"),
        (("figures", "--id", "j-sweep", "--out", "{out}", "--output", "{out}/j.csv"),
         "unrecognized arguments: --output"),
        (("certify", "--suite", "em", "--tol", "1e-3"), "unrecognized arguments: --tol 1e-3"),
        (("certify", "--suite", "em", "--config", "{cfg}"),
         "error: certify runs its suites at tolerance 1e-12; the config file sets 0.001"),
    ],
    ids=["scan-format", "scan-tol", "phi-format", "figures-format", "figures-output",
         "certify-tol", "certify-config-tolerance"],
)
def test_flag_the_subcommand_would_ignore_exits_2(tmp_path, capsys, argv, message):
    out_dir, cfg = tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-3\n")
    try:
        code = main([a.format(out=out_dir, cfg=cfg) for a in argv])
    except SystemExit as exc:  # argparse's exit on an unregistered flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err
    assert not out_dir.exists()


def test_phi_non_finite_argument_no_traceback_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "leraykit.cli", "phi", "--r=inf", "--q=0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: r must be finite (got inf)\n"


def test_norm_warns_when_sup_search_does_not_stabilize(capsys):
    code, out, err = run_cli(capsys, "norm", "--gamma", "1.0001", "--d", "0.5")
    assert code == 0
    assert "stabilized = false" in out and "k_scanned = 201" in out
    assert "warning" not in out
    lines = err.splitlines()
    assert len(lines) == 1
    assert "k_scanned = 201" in lines[0] and "k <= 200" in lines[0]

    # a closed-form norm has nothing to stabilize and stays silent
    code, _, err = run_cli(capsys, "norm", "--gamma", "3", "--measure", "pairing")
    assert code == 0 and err == ""


def test_norm_mode_cap_is_k_max(capsys):
    code, out, err = run_cli(capsys, "norm", "--gamma", "3", "--d", "0.5", "--k-max", "20")
    assert code == 0
    assert "k_scanned = 21" in out and "stabilized = false" in out
    assert err == (
        "warning: sup-search did not stabilize: k_scanned = 21 reached the mode cap k <= 20\n"
    )


def test_scan_output(capsys):
    code, out, _ = run_cli(capsys, "scan", "--gamma", "5", "--d", "4", "--k-max", "50")
    assert code == 0
    assert "classification = strictly-decreasing" in out
    code, out, _ = run_cli(capsys, "scan", "--gamma", "2", "--d", "1", "--k-max", "30")
    assert "classification = constant" in out


def test_figures_j_sweep(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "figures", "--id", "j-sweep", "--out", str(tmp_path), "--k-max", "40"
    )
    assert code == 0
    text = (tmp_path / "j_sweep.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k,J_d1,J_d2,J_d2.5,J_d3,J_d4"
    d4 = [float(line.split(",")[5]) for line in lines[1:]]
    d2 = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b < a for a, b in zip(d4, d4[1:]))  # pairing column decreases
    assert all(b > a for a, b in zip(d2, d2[1:]))  # preferred column increases


def test_figures_phi_sweep(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "figures", "--id", "phi-sweep", "--out", str(tmp_path),
        "--grid-min", "1.2", "--grid-max", "800", "--grid-count", "25",
    )
    assert code == 0
    lines = (tmp_path / "phi_sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "r" and "Phi_q0" in header and "Phi_q0.666667" in header
    q0 = header.index("Phi_q0")
    col0 = [float(line.split(",")[q0]) for line in lines[1:]]
    assert all(v < 1 for v in col0)
    # every column approaches 1 at the large-r end
    last = [float(x) for x in lines[-1].split(",")[1:]]
    assert all(abs(v - 1) < 0.01 for v in last)


def test_certify_bundle(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "certify", "--suite", "em", "--output", str(out_path))
    assert code == 0
    assert out.count("[PASS]") == 5
    bundle = json.loads(out_path.read_text())
    assert set(bundle) == {"version", "config", "certificates", "tables"}
    ids = [c["claim_id"] for c in bundle["certificates"]]
    assert "em.h.pipeline" in ids and "em.s.peak-bound" in ids
    pipeline = next(c for c in bundle["certificates"] if c["claim_id"] == "em.h.pipeline")
    assert pipeline["verdict"] == "verified"
    assert pipeline["witnesses"]["h2_at_1/3"] == "-437616243/25600000"
    anchors = [c["anchor"] for c in bundle["certificates"]]
    assert all(isinstance(a, str) and a for a in anchors)


def test_certify_bw_includes_refutation(tmp_path, capsys):
    out_path = tmp_path / "bw.json"
    code, out, _ = run_cli(capsys, "certify", "--suite", "bw", "--output", str(out_path))
    assert code == 0
    bundle = json.loads(out_path.read_text())
    refuted = next(
        c for c in bundle["certificates"] if c["claim_id"] == "bw.cm-refuted.q=2/3"
    )
    assert refuted["verdict"] == "verified"
    assert refuted["witnesses"]["kernel_witness_t"] > 0


def test_certify_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "certify", "--suite", "em", "--output", str(a))
    run_cli(capsys, "certify", "--suite", "em", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_figures_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        run_cli(capsys, "figures", "--id", "j-sweep", "--out", str(d), "--k-max", "15")
    assert (d1 / "j_sweep.csv").read_bytes() == (d2 / "j_sweep.csv").read_bytes()


def test_phi_command(capsys):
    code, out, _ = run_cli(capsys, "phi", "--r", "1", "--q", "0")
    assert code == 0
    assert "phi = 0.885754327377264" in out
    assert "sandwich_lower" in out


@pytest.mark.parametrize(
    "args, interval",
    [
        (("--r", "5e-324", "--q", "1"), "[0, 1.50463e-36]"),
        (("--r", "0.5", "--q", "3"), "[-1.5, -1.5]"),
    ],
)
def test_phi_uncertified_shift_names_interval(capsys, args, interval):
    # r + 1 - q rounds to an interval reaching zero: the message must not
    # quote a positive number as the violation
    saved = precision_bits()
    set_precision_bits(120)
    try:
        code, out, err = run_cli(capsys, "phi", *args)
    finally:
        set_precision_bits(saved)
    assert code == 2 and out == ""
    assert err == (
        "error: phi requires r + 1 - q > 0, which cannot be certified at 120-bit "
        f"precision: r + 1 - q lies in {interval}\n"
    )


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-10\nk_max = 17\ngrid_scale = log  # comment\n")
    values = load_config_file(str(cfg))
    assert values == {"tolerance": 1e-10, "k_max": 17, "grid_scale": "log"}

    ns = build_parser().parse_args(
        ["figures", "--id", "j-sweep", "--out", str(tmp_path), "--config", str(cfg), "--k-max", "5"]
    )
    config = build_config(ns)
    assert config.k_max == 5  # flag overrides file
    assert config.tolerance == 1e-10  # file overrides default


def test_config_validation(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid_count = 1\n")
    ns = build_parser().parse_args(["figures", "--id", "j-sweep", "--out", str(tmp_path), "--config", str(cfg)])
    with pytest.raises(Exception):
        build_config(ns)


@pytest.mark.parametrize(
    "argv",
    [
        ("figures", "--id", "j-sweep", "--k-max", "-1"),
        ("norm", "--gamma", "3", "--d", "0.5", "--k-max", "-7"),
        ("scan", "--gamma", "3", "--d", "0.5", "--k-max", "-2"),
    ],
)
def test_negative_k_max_flag_exit_2(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    argv = argv + ("--out", str(out_dir)) if argv[0] == "figures" else argv
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "k_max must be non-negative" in err
    assert not out_dir.exists()  # no header-only CSV


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--id", "phi-sweep", "--q-set=0,nan"), "q must be finite (got nan)"),
        (("--id", "j-sweep", "--d-set=1,50"), "d=50.0 outside the k=0 boundedness interval"),
        (("--id", "phi-sweep", "--grid-max", "inf"), "grid_max must be finite (got inf)"),
        (("--id", "phi-sweep", "--grid-min", "nan"), "grid_min must be finite (got nan)"),
        (("--id", "phi-sweep", "--grid-min=-inf", "--grid-scale", "linear"),
         "grid_min must be finite (got -inf)"),
        (("--id", "phi-sweep", "--grid-scale", "linear", "--grid-min=-1e308", "--grid-max=1e308"),
         "linear grid span grid_max - grid_min overflows (grid_min=-1e+308, grid_max=1e+308)"),
        (("--id", "phi-sweep", "--q-set="), "--q-set is empty"),
        (("--id", "j-sweep", "--d-set="), "--d-set is empty"),
        (("--id", "j-sweep", "--d-set", " "), "--d-set is empty"),
    ],
)
def test_figures_rejected_input_leaves_no_directory(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "figures", *argv, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["figures", "norm"])
def test_negative_k_max_in_config_file_exit_2(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k_max = -3\n")
    out_dir = tmp_path / "out"
    if command == "figures":
        argv = ("figures", "--id", "j-sweep", "--out", str(out_dir))
    else:
        argv = ("norm", "--gamma", "3", "--d", "0.5")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "k_max must be non-negative (got -3)" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, keys, message",
    [
        (("scan", "--gamma", "3", "--d", "0.5"), "format = json\n",
         "key 'format' is not read by the scan subcommand"),
        (("figures", "--id", "phi-sweep", "--out", "{out}"), "format = json\noutput = x\n",
         "key 'format' is not read by the figures subcommand"),
        (("figures", "--id", "phi-sweep", "--out", "{out}"), "output = x\n",
         "key 'output' is not read by the figures subcommand"),
    ],
    ids=["scan-format", "figures-format-output", "figures-output"],
)
def test_config_key_the_subcommand_would_ignore_exits_2(tmp_path, capsys, argv, keys, message):
    out_dir, cfg = tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text(keys)
    code, out, err = run_cli(capsys, *(a.format(out=out_dir) for a in argv), "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {cfg}: {message}\n"
    assert not out_dir.exists()


def test_bad_config_line_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no equals sign here\n")
    code, _, err = run_cli(capsys, "norm", "--gamma", "2", "--d", "0", "--config", str(cfg))
    assert code == 2 and "key = value" in err


def test_mutually_exclusive_measure_args(capsys):
    code, _, err = run_cli(capsys, "norm", "--gamma", "2", "--d", "0", "--measure", "pairing")
    assert code == 2


def test_measure_choices_are_the_distinguished_measures():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    for name in ("symbol", "norm", "scan"):
        (action,) = [a for a in subcommands[name]._actions if a.dest == "measure"]
        assert tuple(action.choices) == tuple(DISTINGUISHED_MEASURES)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "leraykit.cli", "version"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and "leraykit" in proc.stdout


_IMPORT_PROBE = """
import contextlib, io, json, sys
import leraykit.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
from leraykit import bwcert, emcert
print(json.dumps({
    "codes": codes,
    "loaded": sorted(m for m in ("scipy", "numpy") if m in sys.modules),
    "shared_quad": bwcert.quad is emcert.quad,
}))
"""


def test_no_command_loads_scipy_or_numpy(tmp_path):
    # certify --suite all runs both quadrature cross-checks
    commands = [
        ["version"],
        ["phi", "--r", "1", "--q", "0"],
        ["symbol", "--gamma", "3", "--d", "1", "--k", "0..3"],
        ["norm", "--gamma", "5", "--d", "4"],
        ["scan", "--gamma", "3", "--d", "2", "--k-max", "10"],
        ["figures", "--id", "j-sweep", "--out", str(tmp_path), "--k-max", "5"],
        ["certify", "--suite", "all"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * len(commands),
        "loaded": [],
        "shared_quad": True,
    }


def test_precision_env_override():
    import os

    env = dict(os.environ, LERAYKIT_PRECISION_BITS="200")
    proc = subprocess.run(
        [sys.executable, "-c", "import leraykit; print(leraykit.precision_bits())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "200"
