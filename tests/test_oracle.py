"""Radii against an independent 400-bit mpmath oracle.

Each certified value must enclose mpmath's own loggamma, polygamma or a
direct log-Gamma assembly of J computed at 400 bits, across scales from
1e-3 to 1e300, on both sides of every point where the asymptotic series
switch to fewer Bernoulli terms, at modes up to k = 10^6, and along the
runs of modes that `symbol._mode_walk` steps by exact rationals.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from leraykit import (
    log_gamma,
    phi,
    phi_sandwich,
    polygamma,
    precision_bits,
    set_precision_bits,
    symbol_value,
    theta,
)
import leraykit.symbol as symbol
from leraykit.specialfn import DEFAULT_TOL, _bernoulli_fixed
from leraykit.symbol import SymbolQuery, _mode_walk

ORACLE_BITS = 400


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def oracle_log_gamma(x):
    with mpmath.workprec(ORACLE_BITS):
        return mpmath.loggamma(mpmath.mpf(x))


def oracle_polygamma(m, x):
    with mpmath.workprec(ORACLE_BITS):
        return mpmath.psi(m, mpmath.mpf(x))


def oracle_symbol(gamma, d, k):
    with mpmath.workprec(ORACLE_BITS):
        gamma = Fraction(gamma)
        g, dm = mpmath.mpf(gamma.numerator) / gamma.denominator, mpmath.mpf(d)
        a = (2 * k + 1 + dm) / g
        b = 2 * k + 2 - a
        log_j = (
            mpmath.loggamma(a) + mpmath.loggamma(b) - 2 * mpmath.loggamma(k + 1)
            + (2 * k + 2) * mpmath.ln(g / 2) - b * mpmath.ln(g - 1)
        )
        return mpmath.exp(log_j)


def oracle_phi(r, q):
    with mpmath.workprec(ORACLE_BITS):
        rm, qm = mpmath.mpf(r), mpmath.mpf(q)
        x = rm + 1 - qm
        return 2 * rm * mpmath.psi(1, x) + rm * rm * mpmath.psi(2, x)


def _symbol_sample(rng, k_max):
    gamma = 1 + _log_uniform(rng, 1e-2, 20.0)
    k = int(_log_uniform(rng, 1, k_max))
    lo, hi = -2 * k - 1, (2 * k + 2) * (gamma - 1) + 1
    return gamma, lo + (hi - lo) * rng.uniform(0.05, 0.95), k


def _enclosure_report(cases):
    """(label, value, oracle) triples -> (misses, worst err/radius, its label)."""
    misses, worst, worst_label = [], 0.0, None
    for label, bf, ref in cases:
        ratio = float(abs(bf.value - ref) / bf.error_radius) if bf.error_radius else math.inf
        if ratio > worst:
            worst, worst_label = ratio, label
        if not bf.contains(ref):
            misses.append(label)
    return misses, worst, worst_label


def test_radii_enclose_the_400_bit_oracle():
    rng = random.Random(20240)
    cases = []
    for _ in range(12):
        x = _log_uniform(rng, 1e-3, 1e300)
        cases.append((f"log_gamma({x!r})", log_gamma(x), oracle_log_gamma(x)))
    for m in range(4):
        for _ in range(8):
            x = _log_uniform(rng, 1e-3, 1e300)
            cases.append((f"polygamma({m}, {x!r})", polygamma(m, x), oracle_polygamma(m, x)))
    for _ in range(25):
        gamma, d, k = _symbol_sample(rng, 2000)
        cases.append(
            (f"symbol_value({gamma!r}, {d!r}, {k})",
             symbol_value((gamma, d, k)), oracle_symbol(gamma, d, k))
        )
    misses, worst, worst_label = _enclosure_report(cases)
    assert not misses, (
        f"{len(misses)} radii miss the oracle, e.g. {misses[0]}; "
        f"worst err/radius {worst:.3g} at {worst_label}"
    )
    assert worst <= 1, f"worst err/radius {worst:.3g} at {worst_label}"


def test_huge_arguments_keep_a_relative_radius():
    # phi stays near 1 for huge r; theta grows like r, so its absolute
    # bound is scaled to the value
    r = 1e300
    v = phi(r, 0.0)
    assert v.contains(oracle_phi(r, 0.0)) and v.error_radius <= 1e-12
    lo, hi = phi_sandwich(r, 0.0)
    assert abs(lo - 1) < 1e-12 and abs(hi - 1) < 1e-12
    t = theta(r, 0.5)
    assert t.error_radius <= 1e-15 * r
    with mpmath.workprec(ORACLE_BITS):
        expected = mpmath.mpf(r) ** 2 * mpmath.psi(1, mpmath.mpf(r) + mpmath.mpf(0.5))
    assert t.contains(expected)


def test_sandwich_bounds_bracket_the_oracle_out_to_double_range():
    # phi - 1 falls to about -1e-290 on this grid (r = 1e300, q = 1e155), so
    # the oracle needs more than 400 bits to tell phi from 1
    qs = (-1e300, -1e200, -1e155, -1e50, -1e10, -3.0, 0.0, 0.5, 2.0 / 3.0, 1.0, 4.5, 1e10, 1e155)
    misses, checked = [], 0
    for q in qs:
        for r in (1e-3, 0.5, 3.0, 1e3, 1e50, 1e155, 1e300, 2 * q):
            if not r > max(q - 1, 0.0):
                continue
            checked += 1
            lo, hi = phi_sandwich(r, q)
            with mpmath.workprec(1200):
                rm, qm = mpmath.mpf(r), mpmath.mpf(q)
                x = rm + 1 - qm
                expected = 2 * rm * mpmath.psi(1, x) + rm * rm * mpmath.psi(2, x)
            if not lo < expected < hi:
                misses.append((r, q, lo, hi))
    assert checked == 84
    assert not misses, misses


def test_precision_bits_drive_the_interval_arithmetic():
    # arguments where rounding, not a series remainder, sets the radius
    phi_args, symbol_args = (1e4, 0.25), (5.0, 2.5, 2000)
    oracles = (oracle_phi(*phi_args), oracle_symbol(*symbol_args))
    radii = {}
    saved = precision_bits()
    try:
        for bits in (120, 200):
            set_precision_bits(bits)
            values = (phi(*phi_args), symbol_value(symbol_args))
            assert all(v.contains(ref) for v, ref in zip(values, oracles)), bits
            # read at the precision they were computed at
            radii[bits] = [v.error_radius for v in values]
    finally:
        set_precision_bits(saved)
    for coarse, fine in zip(radii[120], radii[200]):
        assert fine < coarse * 1e-15


def _switch_arguments(m, bits):
    """Arguments just below and just above each point where the number of
    Bernoulli terms changes, plus 1e300, where one term suffices."""
    *_, switches = _bernoulli_fixed(m, bits)
    return [s * f for s in switches for f in (1 - 1e-9, 1 + 1e-9)] + [1e300]


def test_truncation_switch_points_enclose_the_oracle():
    saved = precision_bits()
    try:
        for bits in (120, 200):
            set_precision_bits(bits)
            cases = [
                (f"log_gamma({x!r})", log_gamma(x), oracle_log_gamma(x))
                for x in _switch_arguments(-1, bits)
            ]
            cases += [
                (f"polygamma({m}, {x!r})", polygamma(m, x), oracle_polygamma(m, x))
                for m in range(4)
                for x in _switch_arguments(m, bits)
            ]
            # radii are read at the precision they were computed at
            misses, worst, worst_label = _enclosure_report(cases)
            assert not misses, (
                f"{len(misses)} of {len(cases)} radii miss the oracle at {bits} bits, "
                f"e.g. {misses[0]}; worst err/radius {worst:.3g} at {worst_label}"
            )
    finally:
        set_precision_bits(saved)


def test_symbol_value_at_a_million_modes():
    # ln Gamma(k+1) by argument raising and a short Stirling sum stays cheap
    # at huge k, where summing ln k! term by term would take seconds
    gamma, d, k = 3.0, 0.5, 10 ** 6
    start = time.perf_counter()
    value = symbol_value((gamma, d, k))
    elapsed = time.perf_counter() - start
    assert value.contains(oracle_symbol(gamma, d, k))
    assert elapsed < 2.0, f"symbol_value at k = 10^6 took {elapsed:.2f} s"


# gamma = m/n with m <= symbol._WALK_PERIOD is walked; 4.663 is a double
# whose numerator is about 2^52, so every mode is a `symbol_value`
WALK_GAMMAS = (5.0, 3, Fraction(5, 2), 1.5, 4.5, 4.663)


def test_mode_walk_encloses_the_400_bit_oracle(monkeypatch):
    calls = []
    direct = symbol.symbol_value

    def counting(query):
        calls.append(query.k)
        return direct(query)

    monkeypatch.setattr(symbol, "symbol_value", counting)
    rng = random.Random(2028)
    k_max = 200
    saved = precision_bits()
    try:
        for gamma in WALK_GAMMAS:
            lo, hi = -1, 2 * (float(gamma) - 1) + 1  # I_0(gamma)
            d = lo + (hi - lo) * rng.uniform(0.05, 0.95)
            oracles = [oracle_symbol(gamma, d, k) for k in range(k_max + 1)]
            m = Fraction(gamma).numerator
            for bits in (120, 200):
                set_precision_bits(bits)
                calls.clear()
                walked = list(_mode_walk(gamma, d, k_max))
                assert calls == list(range(m if m <= symbol._WALK_PERIOD else k_max + 1)), (gamma, bits)
                assert len(walked) == k_max + 1
                for k, (v, ref) in enumerate(zip(walked, oracles)):
                    label = (gamma, d, k, bits)
                    assert v.contains(ref), label
                    assert v.error_radius <= DEFAULT_TOL, label
                    assert v.error_radius <= 3e-24 * v.value, label
                    w = direct(SymbolQuery(gamma, d, k))
                    assert v.lower <= w.upper and w.lower <= v.upper, label
    finally:
        set_precision_bits(saved)


def test_mode_walk_of_the_constant_line_encloses_one():
    # gamma = 2, d = 1: A = B = k + 1, so J = 1 at every mode and each step
    # multiplies by exactly 1
    for v in _mode_walk(2.0, 1.0, 200):
        assert v.contains(1) and v.error_radius <= 1e-23
