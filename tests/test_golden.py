"""Golden outputs: the CLI's report and sweep bytes at 120 bits, pinned by sha256.

A change to the numerical kernels that claims to leave every output bit in
place must keep these hashes.  A change that moves them on purpose says so
and gives the old and new values.
"""

import contextlib
import hashlib
import io

import pytest

from leraykit.cli import main
from leraykit.specialfn import precision_bits, set_precision_bits


@pytest.fixture(autouse=True)
def bits_120():
    saved = precision_bits()
    set_precision_bits(120)
    try:
        yield
    finally:
        set_precision_bits(saved)


def _stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue().encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("certify", "--suite", "all", "--format", "json"),
         "18756f8d9ad393b932b9192f536c77f5c70ec698641400fececae6374f29bbbc"),
        (("norm", "--gamma", "3", "--d", "0.5", "--k-max", "2000"),
         "ea8d85a581ed7ed5bd60ba840133291fa0c6c4003d99aa0630f9b77bd06095c1"),
        (("symbol", "--gamma", "3", "--d", "0.5", "--k", "0..60"),
         "cb69d70b15ccc14ed8d19270e61336d177eea35d1e820149e6ac87df0028d831"),
        # sup-search attained at k = 1, and won by the high-frequency limit
        (("norm", "--gamma", "6", "--d", "1.4", "--k-max", "2000"),
         "68cf57c7065f2f8f04f7ca0d650d2fb08a95ba6e8b8587b0048a47e2b8a792c5"),
        (("norm", "--gamma", "5", "--d", "2.5", "--k-max", "2000"),
         "b8beeb8a3cdee158efc9b1f04685c49cbc17262869562d085c96c9eaaab7da8b"),
    ],
)
def test_stdout_bytes(argv, digest):
    assert _sha256(_stdout(*argv)) == digest


@pytest.mark.parametrize(
    "figure, filename, digest",
    [
        ("j-sweep", "j_sweep.csv", "f18a4dc2f38bc5a54949d90b297f0c6b990a32c2f07a4df5d0af1a510bf20f70"),
        ("phi-sweep", "phi_sweep.csv", "efd3dc834f11ddaceab3cd0233b55215518e9386c15e7d68f60dfabd453f1f99"),
    ],
)
def test_default_figure_csv_bytes(tmp_path, figure, filename, digest):
    _stdout("figures", "--id", figure, "--out", str(tmp_path))
    assert _sha256((tmp_path / filename).read_bytes()) == digest
