"""The traced run of the benchmark still finds the functions it wraps.

``perfbench/spans.py`` rebinds package functions by name (among them the
private ``specialfn._phi_series_check`` and ``bwcert._tail_cutoff``), the
shared quadrature and ``__mul__`` of the polynomial classes.  A refactor
that renames or unbinds one of them breaks ``perfbench/run.py --trace 1``
without failing any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_span_names(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(spans), "--", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {name for name, _, _, _ in json.loads(spans.read_text())["spans"]}


def test_traced_certify_records_the_evidence_and_exact_layers(tmp_path):
    names = _traced_span_names(
        tmp_path, "certify", "--suite", "all", "--format", "json", "--output", str(tmp_path / "report.json")
    )
    assert {"bwcert.tail_cutoff", "bwcert.f_q", "emcert.scipy_quad", "exactpoly.mul"} <= names


def test_traced_phi_records_the_series_check(tmp_path):
    names = _traced_span_names(tmp_path, "phi", "--r", "1", "--q", "0")
    assert {"cli.phi", "specialfn.phi", "specialfn.phi_check"} <= names
