"""Euler-Maclaurin machinery and the exact certificate pipeline."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from leraykit import bwcert, emcert, tables
from leraykit.emcert import (
    bracket_certificates,
    bracket_high,
    bracket_low,
    em_certificate_suite,
    em_lower_bound,
    h_pipeline,
    integral_antiderivative_certificate,
    phi_preferred_reconstruction,
    pr_poly,
    preferred_series_term,
    q_root,
    q_root_mp,
    s_bound_certificate,
    s_function,
    s_integral_tail,
    s_integral_tail_quad,
    s_supremum_bound,
    series_decomposition_certificate,
)
from leraykit.errors import DomainError, TailUnbounded
from leraykit.exactpoly import BivariatePolynomial, RationalFunction, RationalPolynomial, descartes_sign_changes
from leraykit.specialfn import phi


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    f = Fraction(-man if sign else man)
    return f * Fraction(2) ** exp


# ----------------------------------------------------------------------
# elementary pieces
# ----------------------------------------------------------------------
def test_s_function_examples():
    assert s_function(Fraction(1), Fraction(0)) == Fraction(-891, 64)
    assert s_function(1.0, 1e9) == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(DomainError):
        s_function(0.5, 1.0)


def test_pr_poly_at_one():
    assert pr_poly(1).coefficients == (
        Fraction(161),
        Fraction(252),
        Fraction(0),
        Fraction(-108),
    )


def test_pr_descartes_count():
    for r in (0.7, 1.0, 3.0):
        assert descartes_sign_changes(pr_poly(Fraction(r).limit_denominator(10))) == 1


def test_q_root_examples():
    q1 = q_root(1.0)
    assert bracket_low(1.0) < q1 < bracket_high(1.0)
    m1 = Fraction(3, 2) + Fraction(1, 6) + Fraction(3, 25) - Fraction(21, 3125)
    assert bracket_low(Fraction(1)) == m1
    # residual at r = 5
    p5 = pr_poly(5)
    assert abs(float(p5(Fraction(q_root(5.0)).limit_denominator(10 ** 15)))) < 1e-6
    with pytest.raises(DomainError):
        q_root(0.5)


def test_q_root_taylor_tail():
    # Q_r = 3r/2 + 1/6 + 3/(25r) - 21/(3125 r^3) + O(r^-5)
    for r in (1e2, 1e3):
        q = q_root_mp(r)
        head = mpmath.mpf(1.5) * r + mpmath.mpf(1) / 6 + mpmath.mpf(3) / (25 * r)
        assert abs(float(q - head)) < 30 / r ** 3
        full = head - mpmath.mpf(21) / (3125 * r ** 3)
        assert abs(float(q - full)) < 10 / r ** 5


def test_q_root_residual_scaled():
    for r in (0.7, 1.0, 12.0, 300.0):
        q = q_root_mp(r)
        p = pr_poly(Fraction(r))
        scale = sum(abs(float(c)) * float(q) ** n for n, c in enumerate(p.coefficients))
        assert abs(float(p(q))) / scale < 1e-12


def test_peak_bound_example():
    q1 = q_root_mp(1.0)
    assert s_function(mpmath.mpf(1), q1) < 16 / 3125


# ----------------------------------------------------------------------
# the reconstruction identity and the tail integral
# ----------------------------------------------------------------------
def test_preferred_series_sums_to_phi():
    # every term is positive and below 2r/j^2, so the tail past N is below 2r/N
    r, n = 1.0, 2000
    assert preferred_series_term(Fraction(1), 1) == Fraction(9, 32)
    partial = sum(preferred_series_term(r, j) for j in range(1, n + 1))
    value = float(phi(r, 2.0 / 3.0).value)
    assert partial < value <= partial + 2 * r / n


def test_reconstruction_identity():
    for r in (0.7, 2.0, 5.0):
        recon, tail = phi_preferred_reconstruction(r)
        assert tail <= 1e-10
        assert abs(float(phi(r, 2.0 / 3.0).value) - recon) <= 1e-10


def test_reconstruction_truncation_bound():
    # phi_preferred_reconstruction's tail_bound sums |S(r, N)| <= (20/9) r N^-4
    # over N > n_stop >= max(r, 3); check that bound exactly at seeded samples
    rng = random.Random(2024)
    samples = [Fraction(2, 3) + Fraction(1, 10 ** 6), Fraction(2, 3) + Fraction(1, 1000), Fraction(1), Fraction(3)]
    samples += [Fraction(2, 3) + Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4)) for _ in range(40)]
    worst = Fraction(0)
    for r in samples:
        n_min = max(3, math.ceil(r))
        for n in {n_min, n_min + 1, 2 * n_min, 10 * n_min, n_min + rng.randint(0, 10 ** 4)}:
            ratio = abs(s_function(r, n)) / (Fraction(20, 9) * r / n ** 4)
            worst = max(worst, ratio)
            assert ratio <= 1, (r, n)
    assert worst > Fraction(1, 5)  # the samples come near the bound


def test_s_integral_closed_form_vs_quadrature():
    for r in (1.0, 2.0, 5.0):
        closed = s_integral_tail(r)
        oracle = s_integral_tail_quad(r)
        assert abs(closed - oracle) / abs(oracle) < 1e-8


def test_em_lower_bound_behavior():
    # positive, eventually tiny, with phi(r, 2/3) - 1 > H(r) (up to radii)
    grid = [0.68, 1.0, 3.0, 50.0, 1e4]
    for r in grid:
        h = em_lower_bound(r)
        assert h > 0
        excess = float(phi(r, 2.0 / 3.0).value) - 1
        assert excess > h - 1e-10
    assert em_lower_bound(1e4) < 1e-6


def _tail_and_h_mp(r):
    """The tail integral and H at r from their closed forms at 60 digits."""
    with mpmath.workdps(60):
        r = mpmath.mpf(r)

        def s(x):
            return 81 * r * (9 * x * x - 3 * x - 9 * r * r - 2) / ((3 * r + 3 * x + 1) ** 3 * (3 * r + 3 * x - 2) ** 3)

        tail = (3 * r * (108 * r ** 3 + 594 * r ** 2 + 1035 * r + 616) / (2 * (3 * r + 4) ** 2 * (3 * r + 7) ** 2)
                - 2 * r * mpmath.log((3 * r + 7) / (3 * r + 4)))
        h = (6 * r - 1) / (3 * r + 1) ** 3 + s(1) + s(2) + tail - 16 / (3125 * r ** 3)
        return tail, h


@pytest.mark.parametrize("r", [m * 10.0 ** e for e in range(3, 13) for m in (1.0, 3.7)] + [1e8, 1e10])
def test_tail_integral_and_h_at_large_r_against_60_digits(r):
    # the closed form's two terms both tend to 2: em_lower_bound(1e10) was
    # -4.4e-16 and s_integral_tail(1e8) 0.0 before the series in 1/r
    tail, h = _tail_and_h_mp(r)
    assert abs((s_integral_tail(r) - tail) / tail) <= 1e-10
    assert abs((em_lower_bound(r) - h) / h) <= 1e-10
    assert em_lower_bound(r) > 0 > s_integral_tail(r)


def test_large_r_series_meets_the_closed_form_at_its_cutoff():
    for r in (emcert._LARGE_R * (1 - 1e-9), float(emcert._LARGE_R), 40.0):
        tail, h = _tail_and_h_mp(r)
        assert abs((s_integral_tail(r) - tail) / tail) <= 1e-11
        assert abs((em_lower_bound(r) - h) / h) <= 1e-11


# ----------------------------------------------------------------------
# exact certificates
# ----------------------------------------------------------------------
def test_series_decomposition_certificate():
    cert = series_decomposition_certificate()
    assert cert.verdict == "verified"
    assert all(cert.witnesses.values())


def test_integral_antiderivative_certificate():
    cert = integral_antiderivative_certificate()
    assert cert.verdict == "verified"
    assert cert.witnesses["g_limit_at_infinity"] == {"p/(v^2(v+3)^2)": 0, "2ru": 0}


def test_bracket_certificates():
    cert = bracket_certificates()
    assert cert.verdict == "verified"
    assert cert.witnesses["variant_2_25_fails"] is True
    vals = cert.witnesses["endpoint_values"]
    assert vals["p(m(2/3))"] > 0 > vals["p(M(2/3))"]


def test_h_pipeline_matches_tables():
    cert = h_pipeline()
    assert cert.verdict == "verified"
    assert cert.witnesses["h2_at_1/3"] == tables.H2_AT_ONE_THIRD
    assert cert.witnesses["h2_at_2/3"] == tables.H2_AT_TWO_THIRDS
    assert cert.witnesses["h2_descartes_count"] == 1
    assert cert.witnesses["h_limits_at_infinity"] == {"F1/D1": 2, "2r(u-u^2/2)": 2, "2ru": 2, "F2/D2": 0}


def test_exact_certificates_reach_no_float_function(monkeypatch):
    # every float helper evaluates its formula through _finite
    def unreachable(*args, **kwargs):
        raise AssertionError("an exact certificate evaluated a float helper")

    for name in ("em_lower_bound", "s_integral_tail", "quad", "_finite"):
        monkeypatch.setattr(emcert, name, unreachable)
    assert [c.verdict for c in em_certificate_suite()] == ["verified"] * 5


def test_limit_at_infinity_reads_degrees_and_leading_coefficients():
    x = RationalPolynomial.variable()
    assert emcert._limit_at_infinity(RationalFunction(3 * x ** 2 + 1, 6 * x ** 2)) == Fraction(1, 2)
    assert emcert._limit_at_infinity(RationalFunction(x, x ** 2)) == 0
    assert emcert._limit_at_infinity(RationalFunction(x ** 2, x)) is None
    r, v = BivariatePolynomial.x(), BivariatePolynomial.y()
    assert emcert._limit_at_infinity(RationalFunction(r * v + 1, 2 * v + r)) == RationalFunction(x, 2)
    assert emcert._limit_at_infinity(RationalFunction(r * v, v * v)) == 0


def test_h_table_spot_values():
    assert tables.H_NUM_COEFFS[12] == 246037500 == 2 ** 2 * 3 ** 9 * 5 ** 5
    assert tables.H2_NUM_COEFFS[0] == -3304390656


def test_s_bound_certificate():
    cert = s_bound_certificate()
    assert cert.verdict == "verified"
    assert cert.witnesses["p_sign_changes"] == 6
    assert cert.witnesses["p14_sign_changes"] == 1
    assert cert.witnesses["p14_at_0"] == tables.P14_AT_ZERO
    assert cert.witnesses["p14_at_2/3"] == tables.P14_AT_TWO_THIRDS


def test_p_table_spot_values():
    assert tables.P_COEFFS[0] == Fraction(1000376035344, 5 ** 30)
    assert tables.P_COEFFS[1] == 0 and tables.P_COEFFS[21] == 0
    assert tables.P_COEFFS[22] == Fraction(455625, 2)
    # u6 and v5 coincide (the split's top corners)
    assert tables.U_COEFFS_BY_QPOW[6] == [11664]
    assert tables.V_COEFFS_BY_QPOW[5] == [11664]
    assert RationalPolynomial(tables.U_COEFFS_BY_QPOW[2]) == RationalPolynomial([864, 14256])
    assert RationalPolynomial(tables.V_COEFFS_BY_QPOW[2]) == RationalPolynomial(
        [0, 0, 23328, 116640, 2103165]
    )


def test_em_certificate_suite_all_verified():
    suite = em_certificate_suite()
    assert [c.verdict for c in suite] == ["verified"] * 5
    for cert in suite:
        assert cert.inputs == {}
        cert.to_json()


def _bump_constant_term(coeffs):
    return [coeffs[0] + 1] + list(coeffs[1:])


def _bump_middle_term(coeffs):
    mid = len(coeffs) // 2
    return list(coeffs[:mid]) + [coeffs[mid] + 1] + list(coeffs[mid + 1:])


def _bump_q2_constant(table):
    return {k: _bump_constant_term(v) if k == 2 else v for k, v in table.items()}


def _double(formula):
    return lambda *args: 2 * formula(*args)


@pytest.mark.parametrize(
    "certificate, owner, name, corrupt, label, helper",
    [
        (series_decomposition_certificate, BivariatePolynomial, "derivative",
         lambda dx: lambda p: 2 * dx(p), "f antiderivative", None),
        # a constant of integration leaves G' = S dx/dv as it is, but G no longer vanishes at infinity
        (integral_antiderivative_certificate, emcert, "_tail_antiderivative",
         lambda g: lambda r, v: g(r, v) + 1, "G limit at infinity", None),
        (integral_antiderivative_certificate, emcert, "_limit_at_infinity",
         lambda limit: lambda q: limit(q) + 1, "G limit at infinity", None),
        (bracket_certificates, emcert, "pr_bivariate",
         lambda pr: lambda: pr() + BivariatePolynomial.constant(1), "affine probe 1/6", None),
        (h_pipeline, tables, "H2_NUM_COEFFS", _bump_constant_term,
         "H'' numerator: first mismatch at exponent 0", None),
        (h_pipeline, tables, "H_NUM_COEFFS", _bump_constant_term,
         "H numerator: first mismatch at exponent 0 (got -702464, want -702463)", None),
        (h_pipeline, tables, "H1_NUM_COEFFS", _bump_middle_term,
         "H' numerator: first mismatch at exponent 8 (got 1512143688033, want 1512143688034)", None),
        (s_bound_certificate, tables, "P_COEFFS", _bump_constant_term,
         "P coefficients: first mismatch at exponent 0", None),
        (s_bound_certificate, tables, "P_COEFFS", _bump_middle_term,
         "P coefficients: first mismatch at exponent 11 (got 17635968/48828125, want 66464093/48828125)", None),
        (s_bound_certificate, tables, "U_COEFFS_BY_QPOW", _bump_q2_constant, "U table", None),
        (s_bound_certificate, tables, "V_COEFFS_BY_QPOW", _bump_q2_constant, "V table", None),
        # each public helper evaluates one formula, which the certificates read
        (series_decomposition_certificate, emcert, "_f", _double, "f antiderivative",
         lambda: preferred_series_term(1.0, 1)),
        (series_decomposition_certificate, emcert, "_s", _double, "per-period Bernoulli integral",
         lambda: s_function(1.0, 2.0)),
        (integral_antiderivative_certificate, emcert, "_tail_rational", _double, "boundary evaluation",
         lambda: s_integral_tail(2.0)),
        (s_bound_certificate, emcert, "_peak_bound", _double, "U table",
         lambda: s_supremum_bound(1.0)),
        (bracket_certificates, emcert, "_bracket_low",
         lambda low: lambda r, c: low(r, c) + Fraction(1, 10 ** 6), "low bracket identity",
         lambda: bracket_low(1.0)),
        (bracket_certificates, emcert, "_bracket_high", _double, "high bracket identity",
         lambda: bracket_high(1.0)),
        (h_pipeline, emcert, "_h", _double, "H numerator: first mismatch",
         lambda: em_lower_bound(1.0)),
        (h_pipeline, emcert, "_h", _double, "H limits at infinity", None),
        (bracket_certificates, emcert, "_s", _double, "dS/dx numerator p_r", lambda: s_function(1.0, 2.0)),
        # a change far below double resolution, which a float comparison cannot see
        (bwcert._structure_certificate, bwcert, "_d0",
         lambda d0: lambda t, e: d0(t, e) + t ** 9 * Fraction(1, 10 ** 40), "discriminant identity", None),
        (bwcert._structure_certificate, bwcert, "_h0",
         lambda h0: lambda t, e: h0(t, e) + t ** 9 * Fraction(1, 10 ** 40), "discriminant identity", None),
        (bwcert._structure_certificate, bwcert, "_h1",
         lambda h1: lambda t, e: h1(t, e) - t ** 9 * Fraction(1, 10 ** 40), "discriminant identity", None),
        # every derivative of a quotient is RationalFunction.derivative
        (series_decomposition_certificate, RationalFunction, "derivative", _double, "f antiderivative", None),
        (integral_antiderivative_certificate, RationalFunction, "derivative", _double,
         "antiderivative identity", None),
        (h_pipeline, RationalFunction, "derivative", _double, "H' numerator", None),
    ],
    ids=["series", "integral-constant", "integral-limit", "bracket", "h-pipeline", "h-numerator",
         "h1-numerator", "s-bound", "s-bound-middle", "u-table", "v-table",
         "preferred-series-term", "s-function", "s-integral-tail", "s-supremum-bound",
         "bracket-low", "bracket-high", "em-lower-bound", "h-limits", "s-derivative-p-r",
         "discriminant-identity", "discriminant-h0", "discriminant-h1",
         "series-quotient-derivative", "integral-quotient-derivative", "h-quotient-derivative"],
)
def test_exact_certificate_records_a_failed_check(monkeypatch, certificate, owner, name, corrupt, label, helper):
    before = helper() if helper else None
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    if helper:
        assert helper() != before
    cert = certificate()
    assert cert.verdict == "failed" and not cert.passed
    assert any(f.startswith(label) for f in cert.inputs["failures"])


def test_exact_suite_never_reduces_a_rational_function():
    # the certificates read num and den off the formulas evaluated on
    # quotients, so both must stay exactly as the formulas write them
    r, x = BivariatePolynomial.x(), BivariatePolynomial.y()
    s = emcert._s(RationalFunction(r), RationalFunction(x))
    assert s.num == 81 * r * (9 * x * x - 3 * x - 9 * r * r - 2)
    assert s.den == (3 * r + 3 * x + 1) ** 3 * (3 * r + 3 * x - 2) ** 3
    w = emcert._peak_bound(RationalFunction(r)) - s
    assert w.den == 3125 * r ** 3 * s.den
    u_minus_v = sum(
        (sign * RationalPolynomial(coeffs) * x ** k
         for sign, table in ((1, tables.U_COEFFS_BY_QPOW), (-1, tables.V_COEFFS_BY_QPOW))
         for k, coeffs in table.items()),
        BivariatePolynomial(),
    )
    assert w.num == u_minus_v


@pytest.mark.parametrize(
    "call",
    [
        lambda: phi_preferred_reconstruction(math.inf),
        lambda: pr_poly(math.inf),
        lambda: pr_poly(math.nan),
        lambda: em_lower_bound(math.inf),
        lambda: s_integral_tail(math.inf),
        lambda: s_function(math.inf, 1.0),
        lambda: s_function(1.0, math.inf),
        lambda: s_function(1.0, math.nan),
        lambda: s_supremum_bound(math.inf),
        lambda: q_root(math.inf),
        lambda: bracket_low(math.inf),
        lambda: bracket_high(0.0),
        lambda: preferred_series_term(math.inf, 1),
        lambda: preferred_series_term(math.nan, 1),
        lambda: preferred_series_term(1.0, math.inf),
        lambda: preferred_series_term(1.0, math.nan),
    ],
    ids=["reconstruction", "pr-poly", "pr-poly-nan", "h", "tail", "s-r", "s-x", "s-x-nan",
         "peak-bound", "q-root", "bracket-low", "bracket-high-zero",
         "series-term-r-inf", "series-term-r-nan", "series-term-j-inf", "series-term-j-nan"],
)
def test_helpers_reject_non_finite_input(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("r", [1e80, 1e200])
@pytest.mark.parametrize(
    "helper",
    [
        lambda r: s_function(r, 1.0),
        lambda r: preferred_series_term(r, 1),
        s_supremum_bound,
        bracket_low,
        s_integral_tail,
        em_lower_bound,
        s_integral_tail_quad,
    ],
    ids=["s-function", "series-term", "peak-bound", "bracket-low", "tail", "h", "tail-quad"],
)
def test_helpers_at_a_huge_r_give_a_finite_value_or_a_domain_error(helper, r):
    # a double overflow used to escape as a bare OverflowError, or as nan
    try:
        value = helper(r)
    except DomainError as exc:
        assert f"r = {r}" in str(exc)
        return
    assert math.isfinite(value)


def test_s_function_at_r_1e80_is_the_exact_quotient_not_a_signed_zero():
    # the float denominator (3r+3x+1)^3 (3r+3x-2)^3 overflows to inf without
    # raising, which used to return -0.0 where S(1e80, 1) is about -1e-240
    r = 1e80
    for x in (0.0, 1.0, 2.0, 1e40):
        value = s_function(r, x)
        assert value != 0 and value == float(emcert._s(Fraction(r), Fraction(x))), x
    assert s_integral_tail_quad(r) < 0
    # a quotient below the smallest double is a DomainError, not a zero
    with pytest.raises(DomainError, match=r"underflows doubles at r = 1e\+50 and x = 1e\+100"):
        s_function(1e50, 1e100)


def test_reconstruction_at_a_huge_r_is_tail_unbounded():
    # ceil(inf) raised a bare OverflowError
    with pytest.raises(TailUnbounded, match=r"at r = 1e\+300$"):
        phi_preferred_reconstruction(1e300)


def test_q_root_mp_polishes_against_the_exact_mpf_value():
    # 1/3 + 1 at 200 bits is 4/3 to 2^-200; rounding it to a double first
    # moved the root by ~5e-17 relative
    with mpmath.workprec(200):
        from_mpf = q_root_mp(mpmath.mpf(1) / 3 + 1)
        from_fraction = q_root_mp(Fraction(4, 3))
        assert abs(from_mpf - from_fraction) <= mpmath.mpf(2) ** -150 * from_fraction
