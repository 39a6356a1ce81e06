"""Kernel quadratic, F_q routes, and complete-monotonicity evidence."""

import math
from fractions import Fraction

import mpmath
import pytest

from leraykit import bwcert
from leraykit.bwcert import (
    S2_SMALL_T_LIMIT,
    cm_numeric_certificate,
    bw_certificate_suite,
    f_q,
    g0,
    g1,
    g2,
    h0,
    h1,
    m_kernel,
    one_minus_s1,
    quadratic_roots,
)
from leraykit.errors import CrossCheckFailure, DomainError
from leraykit.exactpoly import BivariatePolynomial, RationalFunction, exp_taylor_coefficient

T_GRID = [10 ** (-4 + 5.7 * i / 39) for i in range(40)]  # log grid 1e-4 .. 50


def test_g_positivity_on_grid():
    for t in T_GRID:
        assert g0(t) > 0 and g1(t) > 0 and g2(t) > 0, t


def test_h_functions_vanish_at_zero_and_stay_positive():
    # h0 and h1 vanish to third/second order; both positive for t > 0
    assert h0(1e-4) == pytest.approx((1e-12) / 6, rel=1e-3)
    assert h1(1e-4) == pytest.approx((1e-8) / 2, rel=1e-3)
    for t in T_GRID:
        assert h0(t) > 0 and h1(t) > 0


def test_m_kernel_examples():
    for t in (0.1, 1.0, 5.0):
        assert m_kernel(t, 0.0) == g0(t) > 0
    # leading small-t coefficient q^2 - q + 1/6 at q = 1/2 is -1/12
    assert m_kernel(1e-3, 0.5) == pytest.approx(-8.333e-11, rel=2e-3)
    # shrinking-t oracle for the t^3 coefficient
    for q in (0.3, 0.5):
        lead = q * q - q + 1 / 6
        ratios = [m_kernel(t, q) / t ** 3 for t in (1e-2, 1e-3, 1e-4)]
        assert ratios[-1] == pytest.approx(lead, rel=1e-3)
    # positive for q outside the root band, on a wide grid
    for q in (-1.0, 0.0, 1.0, 2.0):
        for t in T_GRID:
            assert m_kernel(t, q) > 0, (t, q)
    with pytest.raises(DomainError):
        m_kernel(0.0, 1.0)


# the kernel in (T, E = e^T) from bwcert's h0 and h1 formulas, with
# g0 = E h0, g1 = 2 (E-1) h1 and g2 = T (E-1)^2 as in the module docstring
T, E = BivariatePolynomial.x(), BivariatePolynomial.y()
G0 = E * bwcert._h0(T, E)
G1 = 2 * (E - 1) * bwcert._h1(T, E)
G2 = T * (E - 1) ** 2
EXACT_Q = [Fraction(-2), Fraction(0), Fraction(1, 5), Fraction(2, 3), Fraction(1), Fraction(3)]


def _kernel(q):
    return G0 - q * G1 + q * q * G2


def _c(n, q):
    """c_n(q), the closed form of the t^n/n! coefficient of M(t, q)."""
    if n < 2:
        return 0
    return 2 ** (n - 1) * (1 - q) * (n * (1 - q) - 4) + (n + 2) + 2 * q * (n - 2) - 2 * n * q * q


@pytest.mark.parametrize("q", EXACT_Q, ids=str)
def test_kernel_taylor_coefficients_have_the_closed_form(q):
    m = _kernel(q)
    for n in range(40):
        assert exp_taylor_coefficient(m, n) * math.factorial(n) == _c(n, q), n
    # the small-t expansion of the m_kernel docstring
    assert [exp_taylor_coefficient(m, n) for n in range(3)] == [0, 0, 0]
    assert exp_taylor_coefficient(m, 3) == q * q - q + Fraction(1, 6)
    assert exp_taylor_coefficient(m, 4) == q * q - Fraction(7, 6) * q + Fraction(1, 4)


def test_kernel_is_negative_near_zero_at_two_thirds():
    assert exp_taylor_coefficient(_kernel(Fraction(2, 3)), 3) * 6 == Fraction(-1, 3)


@pytest.mark.parametrize("q", EXACT_Q, ids=str)
def test_both_m_kernel_routes_state_one_kernel(q):
    a, b, c = bwcert._regrouped_coeffs(T, q)
    assert a * E * E + b * E + c == _kernel(q)


def test_discriminant_factors_through_d0_exactly():
    assert G1 * G1 - 4 * G0 * G2 == 4 * (E - 1) ** 2 * bwcert._d0(T, E)


def test_large_t_root_step_is_exact():
    # with y = e^-t, 1 - root = (1 - d0(t, y))/(1 + root) and 1 - d0(t, y) = y (2 - y + t^2)
    assert 1 - bwcert._d0(T, E) == E * (2 - E + T * T)


def test_d0_at_inverse_e_is_d0_scaled_by_e_squared():
    t, e = RationalFunction(T), RationalFunction(E)
    assert bwcert._d0(t, 1 / e) * e ** 2 == bwcert._d0(t, e)


def test_taylor_tables_match_the_hand_derived_coefficients():
    # the independent reference: the coefficients derived by hand
    n_max, fact = bwcert._SERIES_TERMS, math.factorial
    assert bwcert._H0_COEFFS == [float(Fraction(n - 2, fact(n))) for n in range(3, n_max)]
    assert bwcert._H1_COEFFS == [float(Fraction(n - 1, fact(n))) for n in range(2, n_max)]
    assert bwcert._D0_COEFFS == [
        float(Fraction(2 ** n - 2, fact(n)) - Fraction(1, fact(n - 2))) for n in range(4, n_max)
    ]


def test_cosh_inequality_inner_factor():
    # d0 = (e^t - 1)^2 - t^2 e^t > 0, the inner factor of the discriminant,
    # as quadratic_roots evaluates it: its Taylor table below the cutoff,
    # d0 e^-2t at e = e^-t above
    for t in T_GRID:
        if t < bwcert._SERIES_CUTOFF:
            d0 = bwcert._series_or_closed(bwcert._d0, bwcert._D0_COEFFS, t)
        else:
            d0 = bwcert._d0(t, math.exp(-t))
        assert d0 > 0, t


def test_quadratic_roots_examples():
    s1, s2 = quadratic_roots(1e-4)
    assert s2 == pytest.approx(S2_SMALL_T_LIMIT, abs=1e-4)
    assert 0 < s2 < s1 < 1
    gap = one_minus_s1(50.0)
    assert 0 < gap < 1e-6  # s1 approaches 1 from below
    s1, s2 = quadratic_roots(1.0)
    assert 0 < s2 < s1 < 1
    with pytest.raises(DomainError):
        quadratic_roots(-1.0)


def test_root_ordering_and_residual_on_grid():
    for t in T_GRID:
        if t > 30:
            continue  # 1 - s1 underflows double resolution near 1 beyond ~45
        s1, s2 = quadratic_roots(t)
        assert 0 < s2 < s1 < 1, t
        scale = g0(t) + abs(g1(t)) + g2(t)
        for s in (s1, s2):
            assert abs(m_kernel(t, s)) / scale < 1e-8, t


def _roots_oracle(t):
    """(s1, s2, M(t, 1)) at 300 bits, from the closed forms of g0, g1 and g2."""
    with mpmath.workprec(300):
        tm = mpmath.mpf(t)
        e = mpmath.exp(tm)
        a, b, c = e * (2 - 2 * e + tm + tm * e), 2 * (e - 1) * (1 - e + tm * e), tm * (e - 1) ** 2
        root = mpmath.sqrt(b * b - 4 * a * c)
        return (b + root) / (2 * c), (b - root) / (2 * c), a - b + c


@pytest.mark.parametrize("t", [1e-12, 1e-8, 1e-4, 1e-3, 0.5, 1.9])
def test_small_t_roots_and_kernel_match_a_300_bit_oracle(t):
    # e^t - 1 by subtraction lost digits like 1e-16/t: 8.9e-5 relative at 1e-12
    s1, s2, m_at_1 = _roots_oracle(t)
    got = quadratic_roots(t)
    assert abs(got[0] / s1 - 1) < 2e-15 and abs(got[1] / s2 - 1) < 2e-15
    assert abs(m_kernel(t, 1.0) / m_at_1 - 1) < 2e-15


def test_one_minus_s1_matches_direct_at_moderate_t():
    for t in (0.5, 1.0, 2.5, 5.0, 10.0):
        s1, _ = quadratic_roots(t)
        assert one_minus_s1(t) == pytest.approx(1 - s1, rel=1e-9)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: quadratic_roots(1e-300), r"^quadratic_roots: .* at t = 1e-300$"),
        (lambda: quadratic_roots(math.inf), r"^quadratic_roots requires finite t > 0 \(got inf\)$"),
        (lambda: one_minus_s1(800.0), r"^one_minus_s1: .* at t = 800.0$"),
        (lambda: m_kernel(800.0, 0.5), r"overflows a double at t = 800.0$"),
        (lambda: h0(800.0), r"overflows a double at t = 800.0$"),
        (lambda: g0(800.0), r"overflows a double at t = 800.0$"),
        (lambda: h1(math.nan), r"^h1 requires finite t > 0 \(got nan\)$"),
        (lambda: g2(-1.0), r"^g2 requires finite t > 0 \(got -1.0\)$"),
        # e^t is still a double here, but the helper's value is not
        (lambda: g0(352.0), r"^g0: the result is not finite in doubles at t = 352.0$"),
        (lambda: g1(352.0), r"^g1: the result is not finite in doubles at t = 352.0$"),
        (lambda: g2(352.0), r"^g2: the result is not finite in doubles at t = 352.0$"),
        (lambda: h0(705.0), r"^h0: the result is not finite in doubles at t = 705.0$"),
        (lambda: h0(709.7), r"^h0: the result is not finite in doubles at t = 709.7$"),
        (lambda: h1(705.0), r"^h1: the result is not finite in doubles at t = 705.0$"),
        (lambda: m_kernel(360.0, 0.5), r"^m_kernel: the result is not finite in doubles at t = 360.0$"),
    ],
    ids=["roots-tiny", "roots-inf", "gap-underflow", "m-kernel-overflow", "h0-overflow", "g0-overflow",
         "h1-nan", "g2-negative", "g0-inf", "g1-inf", "g2-inf", "h0-inf", "h0-nan", "h1-inf", "m-kernel-inf"],
)
def test_kernel_helpers_raise_domain_error_where_doubles_fail(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_f_q_positive_and_decreasing_at_q0():
    xs = (0.5, 1.0, 2.0, 4.0, 8.0)
    vals = [f_q(x, 0.0, cross_check=(x == 0.5)) for x in xs]
    for v in vals:
        assert v.separated_above(0)
    for a, b in zip(vals, vals[1:]):
        assert float(a.value) > float(b.value)


def test_f_q_alternating_differences_at_q1():
    h = 0.5
    for x in (0.5, 1.5, 3.0):
        vals = [f_q(x + i * h, 1.0, cross_check=False) for i in range(4)]
        d1 = vals[1] - vals[0]
        d2 = vals[2] - 2 * vals[1] + vals[0]
        d3 = vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]
        assert (-d1).separated_above(0)
        assert d2.separated_above(0)
        assert (-d3).separated_above(0)


def test_f_q_integrand_negative_somewhere_at_two_thirds():
    assert any(m_kernel(t, 2.0 / 3.0) < 0 for t in T_GRID)


def test_f_q_domain():
    with pytest.raises(DomainError):
        f_q(0.0, 0.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_f_q_rejects_non_finite_arguments_by_name(bad):
    with pytest.raises(DomainError, match=r"^x must be finite \(got "):
        f_q(bad, 0.0)
    with pytest.raises(DomainError, match=r"^q must be finite \(got "):
        f_q(1.0, bad)


SUITE_Q = (-2.0, 0.0, 1.0, 3.0, 2.0 / 3.0)
SUITE_X = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def _f_q_oracle(x, q):
    """(x+q)^2 psi'(x+1) - x - 2q + 1/2 at 400 bits, independent of the
    package's polygamma."""
    with mpmath.workprec(400):
        xm, qm = mpmath.mpf(x), mpmath.mpf(q)
        return (xm + qm) ** 2 * mpmath.polygamma(1, xm + 1) - xm - 2 * qm + mpmath.mpf(1) / 2


def test_laplace_route_matches_high_precision_oracle():
    tol = 1e-12
    for q in SUITE_Q:
        for x in SUITE_X:
            value, tail = bwcert._laplace_route(x, q)
            assert tail < tol
            assert abs(value - _f_q_oracle(x, q)) < tol, (x, q)


def test_f_q_radius_encloses_the_oracle_at_non_dyadic_q():
    # x + q is not a double for these q; rounding it before theta shifts
    # F_q by up to ~1e-15, far outside the ~1e-24 radius
    misses = [
        (x, q)
        for q in (2.0 / 3.0, 0.1, 0.3)
        for x in SUITE_X
        if not f_q(x, q, cross_check=False).contains(_f_q_oracle(x, q))
    ]
    assert not misses, f"{len(misses)} of 18 radii miss the oracle, e.g. {misses[0]}"


def test_cross_check_catches_a_shifted_polygamma_route(monkeypatch):
    tol = 1e-12
    f_q(0.5, 0.0)  # the unshifted routes agree
    original = bwcert.theta
    monkeypatch.setattr(bwcert, "theta", lambda r, q: original(r, q) + 100 * tol)
    with pytest.raises(CrossCheckFailure):
        f_q(0.5, 0.0)


def test_cross_check_below_quadrature_resolution_is_unreachable():
    # the polygamma route alone reaches a radius below 1e-14, which the
    # quadrature cannot resolve, so the quadrature's target is not a radius
    assert f_q(0.5, -2.0, cross_check=False).error_radius <= 1e-14


def test_integrand_finite_up_to_t_700():
    ts = [10 ** (-12 + 14.845 * i / 199) for i in range(200)] + [1.0, 2.0, 699.9, 700.0]
    for q in SUITE_Q:
        for x in SUITE_X:
            for t in ts:
                assert math.isfinite(bwcert._integrand(t, q, x)), (t, q, x)


def test_tail_constant_bounds_the_kernel_beyond_t_1():
    # C_q is proved for t >= 1; check the ratio it bounds on a dense grid
    ts = [1 + 0.01 * i for i in range(3901)]
    for q in range(-5, 6):
        c_q = bwcert._tail_constant(float(q))
        worst = max(abs(m_kernel(t, float(q))) / (t * math.exp(2 * t)) for t in ts)
        assert worst <= c_q, (q, worst, c_q)


def test_phi_below_one_on_supported_q_grid():
    """phi(r, q) stays below 1 with certified margins for the q ranges the
    kernel positivity covers, r on a log-offset grid up to 1e3."""
    from leraykit.specialfn import phi

    for q in (-5.0, -1.0, 2.0, 5.0):
        for i in range(25):
            r = q + 0.05 * ((1000.0 - q) / 0.05) ** (i / 24.0)
            v = phi(r, q)
            assert v.separated_below(1), (q, r)


def test_s2_grid_evidence_reported():
    # the structure certificate carries the s2 sample values (evidence for
    # the conjectured monotonicity; no invariant asserted)
    suite = bw_certificate_suite()
    structure = next(c for c in suite if c.claim_id == "bw.quadratic.structure")
    grid = structure.witnesses["s2_grid"]
    assert len(grid) >= 5
    assert grid[0][1] == pytest.approx(S2_SMALL_T_LIMIT, abs=1e-3)


def test_cm_certificates():
    assert cm_numeric_certificate(-2.0).verdict == "supports"
    assert cm_numeric_certificate(3.0).verdict == "supports"
    cert = cm_numeric_certificate(2.0 / 3.0)
    assert cert.verdict == "refutes"
    t_wit = cert.witnesses["kernel_witness_t"]
    assert m_kernel(t_wit, 2.0 / 3.0) < 0


def test_suite_passes_and_is_json_serializable():
    suite = bw_certificate_suite()
    assert all(c.passed for c in suite)
    ids = {c.claim_id for c in suite}
    assert "bw.cm-refuted.q=2/3" in ids
    for cert in suite:
        cert.to_json()  # must not raise
