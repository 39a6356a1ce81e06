"""The correct-rounding loop of ``leraykit._libmp`` next to a rounding
boundary.

For a prec-bit y, x = exp(y) or x = log(y) rounded to prec + 60 bits puts
log x or exp x within about 2^-60 units in the last place of y, which is
a boundary of both directed roundings at prec bits.  The first enclosure
(about prec + 48 bits) then holds the boundary, so `_rounded` must double
its bits, once or more, before both ends round alike.  The property tests
in test_libmp_properties.py reach that branch only rarely, and the tier-1
step leaves them out; this file drives it on every run.
"""

import random

import pytest
from mpmath import libmp

from leraykit import _libmp as lm

# (libmp function, its inverse, the core that `_rounded` retries)
CASES = {
    "exp": (libmp.mpf_exp, libmp.mpf_log, "_exp_fixed_core"),
    "log": (libmp.mpf_log, libmp.mpf_exp, "_log_fixed_core"),
}


@pytest.mark.parametrize("prec", [80, 120, 200])
@pytest.mark.parametrize("name", sorted(CASES))
def test_rounding_retries_next_to_a_boundary(monkeypatch, name, prec):
    fn, inverse, core_name = CASES[name]
    core, bits = getattr(lm, core_name), []
    monkeypatch.setattr(lm, core_name, lambda man, exp, b: bits.append(b) or core(man, exp, b))
    rng, retries, count = random.Random(prec), 0, 0
    for _ in range(10):
        man = rng.getrandbits(prec - 1) | 1 << prec - 1
        # y in [1/2, 2), and for log also its negative (exp y > 0 either way);
        # a log next to 0 gets finer bits from `_log_fixed_core`, so it retries less
        y = libmp.from_man_exp(-man if name == "log" and rng.random() < 0.5 else man, rng.randint(-prec, 1 - prec))
        x = inverse(y, prec + 60, "n")
        for rnd in "fc":
            bits.clear()
            truth = libmp.mpf_pos(fn(x, prec + 400, "n"), prec, rnd)
            assert getattr(lm, "_" + name)(x, prec, rnd) == truth, (libmp.to_str(y, 30), rnd)
            retries += len(bits) > 1
            count += 1
    assert retries >= count * 3 // 4, (retries, count)
