"""Verified special functions against independent summation oracles."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp
from mpmath.libmp import libmpi
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


def test_precision_below_the_minimum_is_rejected():
    saved = sf.precision_bits()
    with pytest.raises(ValueError, match="precision must be at least 80 bits"):
        sf.set_precision_bits(79)
    assert sf.precision_bits() == saved


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


def _three_hundred_term_bracket(r, q):
    """The cross-check bracket summed over 300 terms, the tail of each
    family bracketed by integral comparison alone: the reference the
    Euler-Maclaurin bracket must not be wider than."""
    rf, qf = float(r), float(q)
    x = math.fsum((rf, 1.0, -qf))
    terms = 300
    partial = magnitude = 0.0
    for j in range(1, terms + 1):
        d = x + (j - 1)
        t = 2 * (rf / d) * ((j - qf) / d) / d
        partial += t
        magnitude += abs(t)
    rho_n, rho_n1 = rf / (x + (terms - 1)), rf / (x + terms)
    lo1, hi1 = sorted((2 * rho_n1, 2 * rho_n))
    lo2, hi2 = -rho_n * rho_n, -rho_n1 * rho_n1
    magnitude += 2 * abs(rho_n) + rho_n * rho_n
    pad = 2 * terms * 2.0 ** -53 * magnitude + terms * 2.0 ** -1070
    return partial + lo1 + lo2 - pad, partial + hi1 + hi2 + pad


def test_phi_series_bracket_encloses_the_oracle_and_is_narrower():
    rng = random.Random(596)
    pairs = [(0.8, 2.0 / 3.0), (3.0, 0.0), (50.0, 1.0), (-1.5, -2.0)]
    for _ in range(120):
        pairs.append((10 ** rng.uniform(-3, 300), rng.uniform(-2, 3)))
    checked = 0
    for r, q in pairs:
        if not r + 1 - q > 0:
            continue
        checked += 1
        partial, tail_lo, tail_hi = phi_series_partial(r, q)
        lo, hi = partial + tail_lo, partial + tail_hi  # as the cross-check adds them
        with mpmath.workprec(400):
            rm, qm = mpmath.mpf(r), mpmath.mpf(q)
            x = rm + 1 - qm
            oracle = 2 * rm * mpmath.psi(1, x) + rm * rm * mpmath.psi(2, x)
        assert lo <= oracle <= hi, (r, q, lo, hi)
        ref_lo, ref_hi = _three_hundred_term_bracket(r, q)
        assert hi - lo <= ref_hi - ref_lo, (r, q)
    assert checked >= 100


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, mpmath.inf, -mpmath.inf, mpmath.nan])
def test_bounded_float_is_finite_by_construction(bad):
    """+-inf and NaN, as floats and as mpfs, are rejected wherever a
    BoundedFloat is built: the constructor, `exact` and every arithmetic
    operand."""
    one = BoundedFloat.exact(1)
    calls = [
        lambda: BoundedFloat(bad, 0.0),
        lambda: BoundedFloat(1.0, bad),
        lambda: BoundedFloat.exact(bad),
        lambda: one + bad,
        lambda: bad - one,
        lambda: one * bad,
        lambda: one / bad,
        lambda: one.contains(bad),
        lambda: one.separated_below(bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"must be finite \(got "):
            call()


def test_bounded_float_radius_may_be_any_scalar():
    for radius in (1e-20, Fraction(1, 10 ** 20), mpmath.mpf(1e-20), BoundedFloat.exact(1e-20)):
        b = BoundedFloat(1.0, radius)
        inside, outside = Fraction(99, 10 ** 22), Fraction(2, 10 ** 20)
        assert b.contains(1 + inside) and b.contains(1 - inside) and not b.contains(1 + outside), radius
    for negative in (-1e-20, Fraction(-1, 3), BoundedFloat.exact(-1e-20)):
        with pytest.raises(ValueError, match="error radius must be non-negative"):
            BoundedFloat(1.0, negative)


def test_doubles_rounds_the_radius_up():
    """`doubles()` as its docstring says: float(value), and the radius
    rounded up to a double, a tiny one to the smallest subnormal and one
    past the double range to inf."""
    assert BoundedFloat(0, Fraction(1, 10 ** 330)).doubles() == (0.0, 5e-324)
    assert BoundedFloat(0, Fraction(10 ** 400)).doubles() == (0.0, math.inf)
    assert BoundedFloat(2.5, 0).doubles() == (2.5, 0.0)
    rng = random.Random(5)
    for _ in range(300):
        radius = Fraction(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 30)) * Fraction(10) ** rng.randint(-320, 300)
        b = BoundedFloat(rng.uniform(-1e3, 1e3), radius)
        mid, half_width = b.doubles()
        _, exact = b._mid_radius()
        exact = Fraction(*libmp.to_rational(exact))
        assert mid == float(b) and exact >= radius
        assert Fraction(half_width) >= exact > Fraction(math.nextafter(half_width, 0.0)), radius


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


def test_midpoint_difference_is_the_mpf_difference():
    """`_mid_minus`, with which the mode search compares certified values,
    is the mpf difference of the two midpoints at the working precision."""
    rng = random.Random(11)
    for _ in range(200):
        a = BoundedFloat(mpmath.mpf(rng.uniform(-5, 5)), mpmath.mpf(rng.uniform(0, 1e-3)))
        b = a + rng.choice((0, 1e-30, -1e-30, rng.uniform(-5, 5)))
        assert a._mid_minus(b) == Fraction(*libmp.to_rational((a.value - b.value)._mpf_))


def test_e3_formats_a_radius_past_the_double_range():
    """`_e3`, which the command line's tolerance message prints, reads as
    format(float(x), ".3e"), and where float(x) is inf as the mpf's
    decimal string formatted the same way."""
    from decimal import Decimal

    for x in (mpmath.mpf(1.5), mpmath.mpf("1.23456e400"), mpmath.mpf(2) ** 5000, mpmath.mpf("9.9996e-400")):
        expected = format(float(x), ".3e") if math.isfinite(float(x)) else format(Decimal(str(x)), ".3e")
        assert sf._e3(x._mpf_) == expected


def test_mpmath_loads_only_when_an_mpf_is_read():
    code = """
import sys
import leraykit.specialfn as sf
v = sf.phi(3.0, 0.5)
float(v), v.doubles(), v.contains(1), v.sqrt(), v.log(), v.exp(), v / 3, sf.log_gamma(2.5), sf.polygamma(0, 3)
assert "mpmath" not in sys.modules
v.value
import mpmath
assert mpmath.mp.prec == sf.precision_bits() == 200
sf.set_precision_bits(96)
assert mpmath.mp.prec == 96
"""
    _run_at_200_bits(code)


def test_emcert_computes_at_the_working_precision_in_any_import_order():
    """An mpmath loaded after specialfn starts at 53 bits; emcert's import
    gives it the working precision, as specialfn's import did when it
    loaded mpmath itself."""
    code = """
import leraykit.specialfn, mpmath
assert mpmath.mp.prec == 53
import leraykit.emcert
assert mpmath.mp.prec == 200
"""
    _run_at_200_bits(code)


def _run_at_200_bits(code):
    env = {**os.environ, "LERAYKIT_PRECISION_BITS": "200"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_phi_cross_check_guards_corruption():
    good = phi(2.0, 0.25)
    corrupted = BoundedFloat(good.value + 1e-3, good.error_radius)
    with pytest.raises(CrossCheckFailure):
        sf._phi_series_check(mpmath.mpf(2.0), mpmath.mpf(0.25), corrupted)


# ----------------------------------------------------------------------
# reference kernels: every step a general mpi_* call at the working
# precision, as the kernels were written before they ran in fixed point
# ----------------------------------------------------------------------
_ZERO, _ONE, _TWO, _HALF = ((v, v) for v in map(libmp.from_float, (0.0, 1.0, 2.0, 0.5)))


def _ref_raise_count(x):
    lo = libmp.to_float(x[0])
    return 0 if lo >= sf._RAISE_TO else math.ceil(sf._RAISE_TO - lo)


def _ref_power(u, e, prec):
    out = u
    for _ in range(e - 1):
        out = libmp.mpi_mul(out, u, prec)
    return out


def _ref_bernoulli_terms(z, u, m, prec):
    """The Bernoulli terms with the kernels' switch points, each exact
    coefficient c_j as the raw interval `sf._raw` gives it and the
    remainder after n terms as [-|c_{n+1}|, |c_{n+1}|]."""
    switches = sf._bernoulli_fixed(m, prec)[3]
    zf = libmp.to_float(z[0])
    n = next((n for n, switch in enumerate(switches, 1) if zf > switch), sf._EM_TERMS)
    w = libmp.mpi_mul(u, u, prec)
    bound = sf._raw(abs(sf._bernoulli_coefficient(m, n + 1)))[1]
    acc = (libmp.mpf_neg(bound), bound)
    for j in range(n, 0, -1):
        acc = libmp.mpi_add(libmp.mpi_mul(acc, w, prec), sf._raw(sf._bernoulli_coefficient(m, j)), prec)
    return libmp.mpi_mul(acc, _ref_power(u, m + 2, prec), prec)


def _ref_polygamma_series(m, x, prec):
    z, head = x, _ZERO
    for _ in range(_ref_raise_count(x)):
        head = libmp.mpi_add(head, _ref_power(libmp.mpi_div(_ONE, z, prec), m + 1, prec), prec)
        z = libmp.mpi_add(z, _ONE, prec)
    u = libmp.mpi_div(_ONE, z, prec)
    lead = _ref_power(u, m, prec)
    tail = libmp.mpi_add(
        libmp.mpi_div(lead, sf._raw(m), prec),
        libmp.mpi_mul(_HALF, libmp.mpi_mul(lead, u, prec), prec),
        prec,
    )
    tail = libmp.mpi_add(tail, _ref_bernoulli_terms(z, u, m, prec), prec)
    total = libmp.mpi_mul(libmp.mpi_add(head, tail, prec), sf._raw(math.factorial(m)), prec)
    return libmp.mpi_neg(total, prec) if m % 2 == 0 else total


def _ref_digamma(x, prec):
    z, head = x, _ZERO
    for _ in range(_ref_raise_count(x)):
        head = libmp.mpi_add(head, libmp.mpi_div(_ONE, z, prec), prec)
        z = libmp.mpi_add(z, _ONE, prec)
    u = libmp.mpi_div(_ONE, z, prec)
    out = libmp.mpi_sub(libmp.mpi_log(z, prec), libmp.mpi_mul(_HALF, u, prec), prec)
    out = libmp.mpi_sub(out, _ref_bernoulli_terms(z, u, 0, prec), prec)
    return libmp.mpi_sub(out, head, prec)


def _ref_log_gamma(x, prec):
    n_head = _ref_raise_count(x)
    z, head = x, _ONE
    for _ in range(n_head):
        head = libmp.mpi_mul(head, z, prec)
        z = libmp.mpi_add(z, _ONE, prec)
    out = libmp.mpi_mul(libmp.mpi_sub(z, _HALF, prec), libmp.mpi_log(z, prec), prec)
    half_log_2pi = libmp.mpi_div(libmp.mpi_log(libmp.mpi_mul(_TWO, libmpi.mpi_pi(prec), prec), prec), _TWO, prec)
    out = libmp.mpi_add(libmp.mpi_sub(out, z, prec), half_log_2pi, prec)
    out = libmp.mpi_add(out, _ref_bernoulli_terms(z, libmp.mpi_div(_ONE, z, prec), -1, prec), prec)
    if n_head:
        out = libmp.mpi_sub(out, libmp.mpi_log(head, prec), prec)
    return out


def _ref_phi(r, q, prec):
    rv, qv = sf._raw(r), sf._raw(q)
    x = libmp.mpi_sub(libmp.mpi_add(rv, _ONE, prec), qv, prec)
    return libmp.mpi_add(
        libmp.mpi_mul(_ref_polygamma_series(1, x, prec), libmp.mpi_mul(_TWO, rv, prec), prec),
        libmp.mpi_mul(_ref_polygamma_series(2, x, prec), libmp.mpi_mul(rv, rv, prec), prec),
        prec,
    )


def _oracle(x):
    """x at 400 bits: a Fraction as numerator / denominator."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _width(endpoints):
    return libmp.mpf_sub(endpoints[1], endpoints[0])


@pytest.mark.parametrize("bits", (80, 120, 200, 300))
def test_kernels_match_general_interval_reference(bits):
    """The fixed-point kernels enclose the 400-bit mpmath value, and no
    interval is wider than the one the same steps give with general mpi_*
    calls at the working precision: on seeded arguments below, at and far
    above the raising threshold, either side of 16 and of every point where
    a series drops a Bernoulli term, and out to 1e300."""
    saved = sf.precision_bits()
    sf.set_precision_bits(bits)
    rng = random.Random(bits)
    misses, wider = [], []

    def check(label, kernel, reference, oracle):
        if not kernel.contains(oracle):
            misses.append(label)
        if not libmp.mpf_le(_width(kernel.endpoints), _width(reference)):
            wider.append(label)

    try:
        seeded = [
            rng.choice([
                rng.uniform(1e-3, 40.0),
                10 ** rng.uniform(-5, 9),
                Fraction(rng.randint(1, 500), rng.randint(1, 97)),
                rng.randint(1, 60),
            ])
            for _ in range(60)
        ]
        extra = [1e-5, math.nextafter(16.0, 0.0), 16.0, math.nextafter(16.0, math.inf), 1e300]
        switches = {m: [s * f for s in sf._bernoulli_fixed(m, bits)[3] for f in (1 - 1e-9, 1 + 1e-9)]
                    for m in range(-1, 4)}
        for x in seeded + extra + switches[-1]:
            raw = sf._raw(x)
            with mpmath.workprec(400):
                expected = mpmath.loggamma(_oracle(x))
            check(f"log_gamma({x!r})", log_gamma(x), _ref_log_gamma(raw, bits), expected)
        for m in range(4):
            for x in seeded + extra + switches[m]:
                raw = sf._raw(x)
                with mpmath.workprec(400):
                    expected = mpmath.psi(m, _oracle(x))
                reference = _ref_digamma(raw, bits) if m == 0 else _ref_polygamma_series(m, raw, bits)
                check(f"polygamma({m}, {x!r})", polygamma(m, x), reference, expected)
        for _ in range(60):
            q = rng.uniform(-3.0, 3.0)
            r = rng.uniform(max(q - 0.99, 0.0) + 1e-3, 60.0)
            with mpmath.workprec(400):
                rm, xm = mpmath.mpf(r), mpmath.mpf(r) + 1 - mpmath.mpf(q)
                expected = 2 * rm * mpmath.psi(1, xm) + rm * rm * mpmath.psi(2, xm)
            check(f"phi({r!r}, {q!r})", phi(r, q), _ref_phi(r, q, bits), expected)
    finally:
        sf.set_precision_bits(saved)
    assert not misses, f"{len(misses)} intervals miss the 400-bit value, e.g. {misses[:3]}"
    assert not wider, f"{len(wider)} intervals wider than the mpi_* reference, e.g. {wider[:3]}"


def test_fixed_point_steps_round_outward():
    """Each integer step of the kernels, checked exactly with Fractions: a
    lower end rounded down, an upper end up, by at most one unit."""
    rng = random.Random(7)
    w = sf.precision_bits() + sf._GUARD
    unit = Fraction(1, 2 ** w)
    for m in (-1, 0, 1, 3):
        floors, ceilings, remainders, _ = sf._bernoulli_fixed(m, sf.precision_bits())
        for j, (lo, hi) in enumerate(zip(floors, ceilings), 1):
            assert lo <= sf._bernoulli_coefficient(m, j) / unit <= hi <= lo + 1, (m, j)
        for n, bound in enumerate(remainders, 1):
            assert 0 <= bound - abs(sf._bernoulli_coefficient(m, n + 1)) / unit < 1, (m, n)
    c_lo, c_hi = sf._half_log_2pi(w)
    with mpmath.workprec(w + 100):
        assert c_lo <= mpmath.log(2 * mpmath.pi) / 2 * 2 ** w <= c_hi <= c_lo + 2
    assert sf._log_fixed((1 << 40, 1 << 40, -40), w) == (0, 0)  # log 1, as at gamma = 2
    for _ in range(200):
        n, e = rng.randint(-10 ** 40, 10 ** 40), rng.randint(-150, 20)
        exact = n * Fraction(2) ** e
        assert sf._shift(n, e) <= exact < sf._shift(n, e) + 1 and sf._shift(n, e, True) - 1 < exact <= sf._shift(n, e, True)
        p, q = rng.randint(1, 10 ** rng.randint(1, 60)), rng.randint(1, 10 ** rng.randint(1, 60))
        lo, hi, f = sf._ratio(p, q, w)
        assert lo * Fraction(2) ** f <= Fraction(p, q) <= hi * Fraction(2) ** f and hi - lo <= 1 and lo >= 2 ** (w - 1)
        v = 10 ** rng.uniform(-5, 30)
        x = sf._dyadic(BoundedFloat(v, v * rng.choice((0.0, 1e-20))).endpoints)
        (z_lo, z_hi, f), heads, (u_lo, u_hi) = sf._raised(x, w)
        count = len(heads)
        z = [v * Fraction(2) ** f for v in (z_lo, z_hi)]
        assert z[0] >= sf._RAISE_TO and (count == 0 or z[0] - 1 < sf._RAISE_TO)
        assert z[0] - count == x[0] * Fraction(2) ** x[2]
        assert z[1] - count == x[1] * Fraction(2) ** x[2]
        assert u_lo * unit <= 1 / z[1] and 1 / z[0] <= u_hi * unit
        log_lo, log_hi = sf._log_fixed((z_lo, z_hi, f), w)
        with mpmath.workprec(400):
            assert log_lo * mpmath.mpf(unit.numerator) / unit.denominator <= mpmath.log(mpmath.mpf(z_lo) * 2 ** f)
            assert mpmath.log(mpmath.mpf(z_hi) * 2 ** f) <= log_hi * mpmath.mpf(unit.numerator) / unit.denominator


# B_2 .. B_22, as the library once typed them by hand
_TYPED_BERNOULLI = {
    2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
    10: Fraction(5, 66), 12: Fraction(-691, 2730), 14: Fraction(7, 6),
    16: Fraction(-3617, 510), 18: Fraction(43867, 798), 20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
}


@pytest.mark.parametrize("m", [-1, 0, 1, 2])
def test_bernoulli_coefficients_match_the_typed_table(m):
    for j in range(1, 12):
        b = _TYPED_BERNOULLI[2 * j]
        if m < 0:
            expected = b / ((2 * j) * (2 * j - 1))
        else:
            expected = b * Fraction(math.perm(m + 2 * j - 1, 2 * j - 1), math.factorial(2 * j))
        assert sf._bernoulli_coefficient(m, j) == expected, (m, j)
