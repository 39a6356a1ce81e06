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
         "dc31e01eefd7f79eaf5942defab874be92f6efa07846a4fbfccb9b1f90fc5adb"),
        (("norm", "--gamma", "3", "--d", "0.5", "--k-max", "2000"),
         "9f017012858550ac4aedbe9e4b999f41220d060ea2812e6ea8f8a80192bf3627"),
        (("symbol", "--gamma", "3", "--d", "0.5", "--k", "0..60"),
         "65c2141483eec5207a0915167b06224a2414de723000748801e24f861547edd7"),
        # sup-search attained at k = 1, and won by the high-frequency limit
        (("norm", "--gamma", "6", "--d", "1.4", "--k-max", "2000"),
         "44fa6746a84337ed8c8686bbf4572541295bfb8c56007b0b5773be9662cce0ac"),
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
