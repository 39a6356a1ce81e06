"""The adaptive Gauss-Kronrod quadrature and the cross-checks built on it."""

import math
import random

import mpmath
import pytest

from leraykit import bwcert, emcert
from leraykit._quadrature import quad
from leraykit.bwcert import g0, g1, g2
from leraykit.errors import ToleranceUnreachable


def test_exponential_with_a_breakpoint():
    value, error = quad(lambda t: math.exp(-t), (0.0, 1.0, 5.0), epsabs=1e-13, limit=50)
    assert error <= 1e-13
    assert abs(value - (1 - math.exp(-5))) <= error


def test_kink_at_a_breakpoint():
    exact = (1 - math.exp(-1)) + (1 - math.exp(-2))
    value, error = quad(lambda t: math.exp(-abs(t - 1)), (0.0, 1.0, 3.0), epsabs=1e-13, limit=50)
    assert error <= 1e-13
    assert abs(value - exact) <= error


def test_infinite_last_end():
    value, error = quad(lambda x: x ** -4, (2.0, math.inf), epsabs=1e-13, limit=50)
    assert error <= 1e-13
    assert abs(value - 1 / 24) <= error


def test_suite_integrals_take_quadpacks_evaluation_count(monkeypatch):
    # QUADPACK's dqagp needs 3528 integrand calls for these 30 integrals;
    # a cruder error formula would bisect more often
    calls = []
    original = bwcert._integrand
    monkeypatch.setattr(bwcert, "_integrand", lambda t, q, x: calls.append(t) or original(t, q, x))
    for q in (-2.0, 0.0, 1.0, 3.0, 2.0 / 3.0):
        for x in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            bwcert._laplace_route(x, q)
    assert len(calls) == 3528


def test_exhausted_limit_leaves_the_estimate_above_epsabs():
    value, error = quad(lambda t: math.sin(50 * t), (0.0, 10.0), epsabs=1e-12, limit=3)
    assert math.isfinite(value)
    assert error > 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_fails_the_gate(bad):
    def f(t):
        return bad if 0.3 < t < 0.6 else 1.0

    value, error = quad(f, (0.0, 1.0), epsabs=1e-12, limit=200)
    assert not error <= 1e-12
    assert math.isnan(value)


def test_nan_integrand_makes_f_q_unreachable(monkeypatch):
    original = bwcert._integrand
    monkeypatch.setattr(
        bwcert, "_integrand", lambda t, q, x: math.nan if 0.3 < t < 0.6 else original(t, q, x)
    )
    with pytest.raises(ToleranceUnreachable, match="error estimate inf"):
        bwcert.f_q(0.5, 0.0)


def test_tail_quadrature_estimate_above_target_is_unreachable(monkeypatch):
    original = emcert.quad
    monkeypatch.setattr(emcert, "quad", lambda *a, **k: (original(*a, **k)[0], 1e-9))
    with pytest.raises(ToleranceUnreachable):
        emcert.s_integral_tail_quad(1.0)


def _f_q_oracle(x, q):
    with mpmath.workprec(400):
        xm, qm = mpmath.mpf(x), mpmath.mpf(q)
        return (xm + qm) ** 2 * mpmath.polygamma(1, xm + 1) - xm - 2 * qm + mpmath.mpf(1) / 2


def _sample_rounding_scale(t, q, x):
    """The integrand with every term of the kernel taken in absolute value.

    Inside 0 < q < 1 the terms of M(t, q) cancel (about 300x near
    q = 0.8), so one double sample of the integrand can be off by a few
    ulps of this, not of its own value; no quadrature estimate sees that
    rounding.
    """
    if t < 2:
        return (g0(t) + g1(t) * abs(q) + g2(t) * q * q) / math.expm1(t) ** 3 * math.exp(-x * t)
    emt, p = math.exp(-t), abs(1 - q)
    terms = p * (t * p + 2) + (t + 2 + 2 * abs(q) * (t + 2) + 2 * q * q * t) * emt
    terms += (q * q * t + 2 * abs(q)) * emt * emt
    return terms / (-math.expm1(-t)) ** 3 * math.exp(-(1 + x) * t)


def test_estimate_and_tail_bound_the_laplace_route_error(monkeypatch):
    estimates = []

    def recording_quad(*args, **kwargs):
        value, error = quad(*args, **kwargs)
        estimates.append(error)
        return value, error

    monkeypatch.setattr(bwcert, "quad", recording_quad)
    rng = random.Random(9)
    misses = []
    for _ in range(80):
        q = rng.uniform(-3.0, 4.0)
        x = math.exp(rng.uniform(math.log(0.25), math.log(32.0)))
        value, tail = bwcert._laplace_route(x, q)
        T, _ = bwcert._tail_cutoff(x, q)
        scale, _ = quad(
            lambda t: _sample_rounding_scale(t, q, x), (0.0, 1.0, T), epsabs=1e-20, limit=50
        )
        # eight roundings per sample: the kernel's terms, the cube, the exponential
        rounding = 8 * 2.0 ** -52 * scale
        actual = abs(value - _f_q_oracle(x, q))
        if not actual <= estimates[-1] + tail + rounding:
            misses.append((x, q, float(actual), estimates[-1], tail, rounding))
    assert not misses, misses
