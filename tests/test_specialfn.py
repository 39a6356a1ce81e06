"""Verified special functions against independent summation oracles."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leraykit.specialfn as sf
from leraykit.errors import CrossCheckFailure, DomainError
from leraykit.specialfn import (
    BoundedFloat,
    log_gamma,
    phi,
    phi_sandwich,
    phi_series_partial,
    polygamma,
    polygamma_sandwich,
    theta,
)

PI2_6 = math.pi ** 2 / 6


def zeta2_oracle(n=200_000):
    """Direct summation of sum 1/j^2 with an integral tail bracket."""
    partial = sum(1.0 / (j * j) for j in range(1, n + 1))
    return partial + 1.0 / (n + 1), partial + 1.0 / n  # (lower, upper)


def zeta3_oracle(n=100_000):
    partial = sum(1.0 / j ** 3 for j in range(1, n + 1))
    return partial + 0.5 / (n + 1) ** 2, partial + 0.5 / n ** 2


def euler_const_oracle(n=100_000):
    """psi(1) = -euler_gamma via harmonic-minus-log with the 1/2n correction."""
    harmonic = sum(1.0 / j for j in range(1, n + 1))
    approx = harmonic - math.log(n) - 0.5 / n
    return approx, 1.0 / (8 * n * n)  # (value, error bound)


def test_trigamma_at_one_is_zeta2():
    v = polygamma(1, 1.0)
    lo, hi = zeta2_oracle()
    assert lo - 1e-9 <= float(v.value) <= hi + 1e-9
    assert abs(float(v.value) - PI2_6) <= float(v.error_radius) + 1e-15
    assert float(v.error_radius) <= 1e-12


def test_digamma_at_one_is_minus_euler():
    v = polygamma(0, 1.0)
    oracle, err = euler_const_oracle()
    assert abs(float(v.value) + oracle) <= err + 1e-10
    assert abs(float(v.value) + 0.5772156649015329) <= 1e-14


def test_tetragamma_negative_on_samples():
    for r in (0.5, 1.0, 5.0, 50.0):
        v = polygamma(2, r)
        assert v.separated_below(0)


def test_polygamma_matches_mpmath():
    for m in (0, 1, 2, 3):
        for r in (0.3, 1.7, 12.0, 400.0):
            v = polygamma(m, r)
            ref = mpmath.polygamma(m, mpmath.mpf(r)) if m else mpmath.digamma(mpmath.mpf(r))
            assert abs(float(v.value - ref)) <= float(v.error_radius) + 1e-18


def test_polygamma_domain_and_tolerance_errors():
    with pytest.raises(DomainError):
        polygamma(1, -2.0)
    with pytest.raises(DomainError):
        polygamma(-1, 1.0)
    # no tolerance here: the enclosure comes back whatever its radius, and
    # the command line rejects a radius above --tolerance
    assert polygamma(1, 1.0).error_radius > 1e-60


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=80.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_tail_bound_soundness(m, r):
    """Raising the argument-raising threshold (many more direct terms)
    moves the value by less than the reported radius."""
    coarse = polygamma(m, r)
    saved = sf._RAISE_TO
    try:
        sf._RAISE_TO = 160
        fine = polygamma(m, r)
    finally:
        sf._RAISE_TO = saved
    assert abs(float(coarse.value - fine.value)) <= float(
        coarse.error_radius + fine.error_radius
    )


def test_log_gamma_values():
    half = log_gamma(0.5)
    assert abs(float(half.value - mpmath.log(mpmath.sqrt(mpmath.pi)))) <= float(half.error_radius) + 1e-30
    six = log_gamma(6.0)
    assert abs(float(six.value - mpmath.log(120))) <= float(six.error_radius) + 1e-30


def test_theta_examples():
    v = theta(1.0, 0.0)
    assert abs(float(v.value) - (PI2_6 - 1)) <= float(v.error_radius) + 1e-15
    assert float(theta(0.0, 0.5).value) == 0.0
    with pytest.raises(DomainError):
        theta(1.0, 3.0)  # r + 1 - q <= 0


def test_theta_derivative_is_phi():
    h = 1e-4
    r, q = 2.0, 0.5
    fd = (theta(r + h, q).value - theta(r - h, q).value) / (2 * h)
    assert abs(float(fd) - float(phi(r, q).value)) < 1e-6


def test_phi_examples():
    v = phi(1e6, 0.0)
    assert abs(float(v.value) - 1.0) <= 1e-4
    lo, hi = zeta3_oracle()
    closed_lo = math.pi ** 2 / 3 - 2 * hi
    closed_hi = math.pi ** 2 / 3 - 2 * lo
    v = phi(1.0, 0.0)
    assert closed_lo - 1e-9 <= float(v.value) <= closed_hi + 1e-9
    for r in (0.7, 1.0, 10.0, 100.0):
        assert phi(r, 2.0 / 3.0).separated_above(1)


def test_phi_domain_errors():
    with pytest.raises(DomainError):
        phi(1.0, 2.5)  # r + 1 - q <= 0
    with pytest.raises(DomainError):
        phi(0.5, 0.5 + 1e-9)  # within the rejected neighborhood of r = q


@pytest.mark.parametrize("fn", [phi, theta])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, mpmath.inf, mpmath.nan])
def test_non_finite_arguments_rejected(fn, bad):
    with pytest.raises(DomainError, match=r"^r must be finite \(got "):
        fn(bad, 0.0)
    with pytest.raises(DomainError, match=r"^q must be finite \(got "):
        fn(1.0, bad)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda bad: polygamma(1, bad), "x"),
        (lambda bad: log_gamma(bad), "x"),
        (lambda bad: polygamma_sandwich(1, bad), "x"),
        (lambda bad: phi_sandwich(bad, 0.0), "r"),
    ],
    ids=["polygamma", "log_gamma", "polygamma_sandwich", "phi_sandwich"],
)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_argument_is_a_domain_error(call, name, bad):
    with pytest.raises(DomainError, match=rf"^{name} must be finite \(got "):
        call(bad)


def test_finite_check_accepts_values_beyond_double_range():
    # an mpf or int past float range is finite; only the domain check may reject it
    with pytest.raises(DomainError, match=r"r \+ 1 - q > 0"):
        phi(1.0, mpmath.mpf("1e400"))
    with pytest.raises(DomainError, match=r"r \+ 1 - q > 0"):
        theta(1, 10 ** 400)


def test_phi_series_bracket_contains_value():
    for r, q in ((0.8, 2.0 / 3.0), (3.0, 0.0), (50.0, 1.0), (-1.5, -2.0)):
        v = phi(r, q)
        partial, lo, hi = phi_series_partial(r, q)
        assert partial + float(lo) - float(v.error_radius) <= float(v.value)
        assert float(v.value) <= partial + float(hi) + float(v.error_radius)


def test_phi_consistent_with_polygamma_assembly_on_random_grid():
    """phi must sit within combined radii of the directly assembled
    2r psi'(x) + r^2 psi''(x) on a random 20-point grid."""
    import random

    rng = random.Random(404)
    for _ in range(20):
        q = -3.0 + 6.0 * rng.random()
        r = q + 0.2 + 30.0 * rng.random()
        rm = mpmath.mpf(r)
        x = rm + 1 - mpmath.mpf(q)  # full-precision argument
        direct = polygamma(1, x) * (2 * rm) + polygamma(2, x) * (rm * rm)
        v = phi(r, q)
        assert abs(float(v.value - direct.value)) <= float(
            v.error_radius + direct.error_radius
        )


def test_polygamma_sandwich_examples():
    lo, hi = polygamma_sandwich(1, 1.0)
    assert (lo, hi) == (1.5, 2.0)
    assert lo < PI2_6 < hi
    lo, hi = polygamma_sandwich(2, 2.0)
    assert (lo, hi) == (0.375, 0.5)
    v = polygamma(2, 2.0)
    assert lo < -float(v.value) < hi
    lo, hi = polygamma_sandwich(1, 1e9)
    assert hi < 1e-8
    with pytest.raises(DomainError):
        polygamma_sandwich(1, 0.0)
    with pytest.raises(DomainError):
        polygamma_sandwich(0, 1.0)


def test_phi_sandwich_examples():
    lo, hi = phi_sandwich(5.0, 0.0)
    assert abs(lo - (125 + 50 + 15) / 216) < 1e-15
    assert abs(hi - (125 + 100 + 20) / 216) < 1e-15
    v = phi(5.0, 0.0)
    assert lo < float(v.value) < hi
    # both bounds approach 1 at large r
    lo, hi = phi_sandwich(1e8, 0.3)
    assert abs(lo - 1) < 1e-6 and abs(hi - 1) < 1e-6
    with pytest.raises(DomainError):
        phi_sandwich(0.5, 2.0)


def test_sandwich_containment_grid():
    for q in (-1.0, 0.0, 0.5, 1.0, 2.0):
        start = max(q - 1, 0.0) + 0.1
        for i in range(20):
            r = start + (10.0 ** (i / 4.0)) / 10
            if abs(r - q) < 1e-3:
                continue
            lo, hi = phi_sandwich(r, q)
            val = float(phi(r, q).value)
            assert lo < val < hi, (r, q)


def test_sandwich_bounds_stay_finite_or_raise():
    # the bounds are exact rationals rounded outward, so a huge |q| cannot
    # overflow an intermediate and a bound past double range is a DomainError
    lo, hi = phi_sandwich(5.0, -1e300)
    assert lo == pytest.approx(1e-299, rel=1e-15) and hi == pytest.approx(1e-299, rel=1e-15)
    lo, hi = phi_sandwich(1.0, -1e155)
    assert 0 < lo < hi and math.isfinite(hi)
    with pytest.raises(DomainError, match="outside double range"):
        polygamma_sandwich(1, 1e-200)
    assert polygamma_sandwich(3, 1e200) == (0.0, 5e-324)


def test_phi_monotone_tails():
    """phi(., 0) and phi(., 1) stay below 1, phi(., 2/3) above 1, with the
    separation certified by the radii."""
    for q, above in ((0.0, False), (1.0, False), (2.0 / 3.0, True)):
        for i in range(30):
            r = q + 0.01 * (1e4 / 0.01) ** (i / 29.0)
            v = phi(r, q)
            if above:
                assert v.separated_above(1), (q, r)
            else:
                assert v.separated_below(1), (q, r)


def test_bounded_float_arithmetic():
    a = BoundedFloat(mpmath.mpf(2), mpmath.mpf(1e-20))
    b = BoundedFloat(mpmath.mpf(3), mpmath.mpf(1e-20))
    assert (a + b).contains(5)
    assert (a * b).contains(6)
    assert (a - b).contains(-1)
    assert (b / a).contains(1.5)
    assert a.sqrt().contains(mpmath.sqrt(2))
    assert a.exp().contains(mpmath.exp(2))
    assert a.separated_below(3) and b.separated_above(2.5)
    with pytest.raises(ValueError):
        BoundedFloat(mpmath.mpf(1), mpmath.mpf(-1))


def _iv_of(x):
    """The mpmath.iv interval a BoundedFloat operand is checked against: a
    Fraction as its numerator's interval divided by its denominator."""
    if isinstance(x, Fraction):
        return mpmath.iv.mpf(x.numerator) / x.denominator
    return mpmath.iv.mpf(x)


def _operands(rng, bits):
    """int, float, Fraction and mpf operands, including an int and an mpf
    wider than the working precision, which the conversion rounds or keeps."""
    with mpmath.workprec(bits + 60):
        wide = mpmath.sqrt(mpmath.mpf(rng.randint(2, 99)))
    return [
        rng.randint(-50, 50) or 7,
        2 ** (bits + 3) + rng.randrange(1, 2 ** bits),
        rng.uniform(-40, 40),
        rng.uniform(1e-6, 1e-3),
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999)),
        Fraction(1, 3),
        mpmath.mpf(rng.uniform(-10, 10)),
        wide,
    ]


@pytest.mark.parametrize("bits", (80, 120, 200))
def test_bounded_float_endpoints_match_mpmath_iv(bits):
    """Every BoundedFloat operation gives the endpoints mpmath.iv gives."""
    saved_bits, saved_iv = sf.precision_bits(), mpmath.iv.prec
    sf.set_precision_bits(bits)
    mpmath.iv.prec = bits
    try:
        rng = random.Random(bits)
        for _ in range(6):
            operands = _operands(rng, bits)
            for x in operands:
                bx, ix = BoundedFloat.exact(x), _iv_of(x)
                assert bx.endpoints == ix._mpi_, x
                assert (-bx).endpoints == (-ix)._mpi_
                assert (bx.value, bx.lower, bx.upper, bx.error_radius) == (
                    mpmath.mpf(ix.mid),
                    mpmath.mpf(ix.a, rounding="f"),
                    mpmath.mpf(ix.b, rounding="c"),
                    mpmath.mpf(abs(ix - ix.mid).b, rounding="c"),
                )
                if bx.lower >= 0:
                    assert bx.sqrt().endpoints == mpmath.iv.sqrt(ix)._mpi_
                if bx.lower > 0:
                    assert bx.log().endpoints == mpmath.iv.ln(ix)._mpi_
                if abs(bx.value) < 50:
                    assert bx.exp().endpoints == mpmath.iv.exp(ix)._mpi_
                for y in operands:
                    iy = _iv_of(y)
                    assert (bx + y).endpoints == (ix + iy)._mpi_, (x, y)
                    assert (bx - y).endpoints == (ix - iy)._mpi_, (x, y)
                    assert (y - bx).endpoints == (iy - ix)._mpi_, (x, y)
                    assert (bx * y).endpoints == (ix * iy)._mpi_, (x, y)
                    assert (bx / y).endpoints == (ix / iy)._mpi_, (x, y)
                    assert bx.contains(y) == (iy in ix), (x, y)
                    assert bx.separated_below(y) == bool(ix.b < iy.a), (x, y)
                    assert bx.separated_above(y) == bool(ix.a > iy.b), (x, y)
                    radius = abs(y)
                    made = BoundedFloat(x, radius).endpoints
                    assert made == (ix + mpmath.iv.mpf([-_iv_of(radius).b, _iv_of(radius).b]))._mpi_
    finally:
        sf.set_precision_bits(saved_bits)
        mpmath.iv.prec = saved_iv


def test_phi_cross_check_guards_corruption():
    good = phi(2.0, 0.25)
    corrupted = BoundedFloat(good.value + 1e-3, good.error_radius)
    with pytest.raises(CrossCheckFailure):
        sf._phi_series_check(mpmath.mpf(2.0), mpmath.mpf(0.25), corrupted)
