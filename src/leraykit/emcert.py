"""Exact certification of the preferred-measure series argument.

The preferred-measure inequality phi(r, 2/3) > 1 for r > 2/3 reduces, via
first-order Euler-Maclaurin summation of the series

    phi(r, 2/3) = sum_{j>=1} f_r(j),   f_r(x) = 18 r (3x - 2)/(3r + 3x - 2)^3,

to the positivity of an explicit rational-plus-logarithm lower bound H(r)
and an upper estimate on the peak of the per-period remainder

    S(r, N) = 81 r (9N^2 - 3N - 9r^2 - 2) / ((3r+3N+1)^3 (3r+3N-2)^3).

Each formula of that argument (f_r, its antiderivative, S, the tail
integral's rational part, the peeled first term, the peak bound, the
brackets m and M, and H) is written once, as plain arithmetic.  A public
helper is its domain check plus one formula, on floats, Fractions or mpfs;
the certificates evaluate the same formulas on never-reduced
:class:`~leraykit.exactpoly.RationalFunction` variables, take each
derivative of a quotient with its ``derivative()``, and check each
identity as an equality of quotients.  The certificates cover:

* the Euler-Maclaurin decomposition identities of the series (antiderivative
  witnesses, the peeled N = 0 term, the per-period Bernoulli integral);
* the closed form of integral_2^inf S(r, x) dx (antiderivative witness with
  logarithmic part -2r log((3r+7)/(3r+4)), which vanishes at infinity);
* the cubic p_r locating the remainder peak Q_r as the numerator of
  dS/dx, its bracket m(r) < Q_r < M(r), and the exact bracket
  evaluations;
* the pipeline H -> H' -> H'' with re-derived integer numerators, the
  sign/Descartes analysis of the H'' numerator, the exact values of
  H'' at 1/3 and 2/3, and the limits H, H' -> 0 at infinity read off
  degrees and leading coefficients, which together give H > 0;
* the peak bound S(r, Q_r) < 16/(3125 r^3) via the sign-split polynomials
  U, V, the degree-22 cleared polynomial P(r), its fourteen derivatives,
  and the exact endpoint evaluations.

No certificate evaluates a float: the doubles live only in the public
helpers, and the quadrature of :mod:`leraykit._quadrature` only in the
oracle route ``s_integral_tail_quad``.  Each certificate records every
check as a witness through :class:`~leraykit.certificates.Checks`; any
check that fails turns its verdict to ``failed`` and is named in
``inputs["failures"]``.

Bracket coefficient note: the 1/r term of m(r) and M(r) is 3/25.  The
bracket evaluation identities pin this down exactly (they fail for the
2/25 variant, which is recorded as a refuting witness in the bracket
certificate), and the asymptotic expansion of the root,
Q_r = 3r/2 + 1/6 + 3/(25r) - 21/(3125 r^3) + O(r^-5), agrees.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import List, Tuple

from . import tables
from ._quadrature import quad
from .certificates import Certificate, Checks
from .errors import DomainError, TailUnbounded, ToleranceUnreachable
from .exactpoly import (
    BivariatePolynomial,
    RationalFunction,
    RationalPolynomial,
    descartes_sign_changes,
    sign_pattern,
)
from .specialfn import _mpmath, _sync_mpmath

# q_root_mp computes at mpmath.mp.prec, which a specialfn imported before
# mpmath was loaded has not set yet
_sync_mpmath()

__all__ = [
    "s_function",
    "s_supremum_bound",
    "preferred_series_term",
    "pr_poly",
    "pr_bivariate",
    "bracket_low",
    "bracket_high",
    "q_root",
    "q_root_mp",
    "phi_preferred_reconstruction",
    "s_integral_tail",
    "s_integral_tail_quad",
    "em_lower_bound",
    "series_decomposition_certificate",
    "integral_antiderivative_certificate",
    "bracket_certificates",
    "h_pipeline",
    "s_bound_certificate",
    "em_certificate_suite",
]

TWO_THIRDS = Fraction(2, 3)
# the 1/r coefficient of the brackets m(r) and M(r)
_BRACKET_C = Fraction(3, 25)


def _require_r(r) -> None:
    threshold = TWO_THIRDS if isinstance(r, Fraction) else float(TWO_THIRDS)
    if not threshold < r < math.inf:
        raise DomainError(f"requires finite r > 2/3 (got {r})")


def _finite(helper: str, formula, **args):
    """formula(*args), unless a double cannot hold it: a float overflow or a
    non-finite float result is a DomainError naming the arguments."""
    try:
        value = formula(*args.values())
    except OverflowError:
        value = math.inf
    if isinstance(value, float) and not math.isfinite(value):
        at = " and ".join(f"{k} = {v}" for k, v in args.items())
        raise DomainError(f"{helper}: the result is not finite in doubles at {at}")
    return value


# ----------------------------------------------------------------------
# the formulas of the argument, each written once (see the module docstring)
# ----------------------------------------------------------------------
def _f(r, x):
    return 18 * r * (3 * x - 2) / (3 * r + 3 * x - 2) ** 3


def _antiderivative(r, x):
    """An antiderivative of f_r in x."""
    u = 3 * r + 3 * x - 2
    return (9 * r * r - 6 * r * u) / u ** 2


def _s(r, x):
    return 81 * r * (9 * x * x - 3 * x - 9 * r * r - 2) / ((3 * r + 3 * x + 1) ** 3 * (3 * r + 3 * x - 2) ** 3)


def _tail_antiderivative(r, v):
    """p(v)/(v^2 (v+3)^2), the rational part of an antiderivative of S dx/dv
    in v = 3x + 3r - 2."""
    return (Fraction(81, 2) * r * r - 27 * r * v - 27 * r * v * v - 6 * r * v ** 3) / (v * v * (v + 3) ** 2)


def _tail_rational(r):
    """The rational part of integral_2^inf S(r, x) dx."""
    return 3 * r * (108 * r ** 3 + 594 * r ** 2 + 1035 * r + 616) / (2 * (3 * r + 4) ** 2 * (3 * r + 7) ** 2)


def _first_term(r):
    """The N = 0 term peeled off the series."""
    return (6 * r - 1) / (3 * r + 1) ** 3


def _peak_bound(r):
    return 16 / (3125 * r ** 3)


# A Fraction constant meeting a float rounds to the nearest double first, so
# float input gets the double expression 1.5 r + 1/6 + 0.12/r - ... bit for bit.
def _bracket_high(r, c):
    return Fraction(3, 2) * r + Fraction(1, 6) + c / r


def _bracket_low(r, c):
    return _bracket_high(r, c) - Fraction(21, 3125) / r ** 3


def _h(r, tail):
    """H(r), with `tail` standing for integral_2^inf S(r, x) dx."""
    return _first_term(r) + _s(r, 1) + _s(r, 2) + tail - _peak_bound(r)


def _h_base(r):
    """s = r(3r+1)(3r+4)(3r+7): H, H' and H'' have the denominators
    D1 = 6250 s^3, D2 = 3125 s^4 and D3 = 3125 s^5."""
    return r * (3 * r + 1) * (3 * r + 4) * (3 * r + 7)


# ----------------------------------------------------------------------
# the elementary functions of the argument
# ----------------------------------------------------------------------
def preferred_series_term(r, j):
    """f_r(j) = 18 r (3j - 2) / (3r + 3j - 2)^3; phi(r, 2/3) = sum_{j>=1} f_r(j)."""
    _require_r(r)
    if not 1 <= j < math.inf:
        raise DomainError(f"f_r(j) is used on finite j >= 1 (got {j})")
    return _finite("preferred_series_term", _f, r=r, j=j)


def s_function(r, x):
    """Per-period Euler-Maclaurin remainder S(r, x).

    Starts negative, crosses zero once (the derivative sign change sits at
    the unique positive root of p_r), peaks at Q_r, and decays like x^-4.
    Accepts float/Fraction/mpf arithmetic polymorphically.
    """
    _require_r(r)
    if not 0 <= x < math.inf:
        raise DomainError(f"S(r, x) is used on finite x >= 0 (got {x})")
    value = _finite("s_function", _s, r=r, x=x)
    if isinstance(value, float) and value == 0:
        # a float denominator overflows to inf without raising (from
        # r + x ~ 1e80 on), leaving a signed zero: take the exact quotient
        exact = _s(Fraction(r), Fraction(x))
        value = float(exact)
        if exact and not value:
            raise DomainError(f"s_function: S(r, x) underflows doubles at r = {r} and x = {x}")
    return value


def s_supremum_bound(r):
    """16/(3125 r^3): a strict upper bound for S(r, Q_r) when r > 2/3
    (the leading term of the peak value's expansion at infinity)."""
    _require_r(r)
    return _finite("s_supremum_bound", _peak_bound, r=r)


def pr_bivariate() -> BivariatePolynomial:
    """The cubic p_r(x) as a polynomial in (r, x): the numerator bracket of
    243 r p_r(x) / ((3r+3x+1)^4 (3r+3x-2)^4) = dS/dx."""
    return BivariatePolynomial({
        (0, 0): -4, (1, 0): 39, (2, 0): -36, (3, 0): 162,
        (0, 1): 18, (1, 1): 18, (2, 1): 216,
        (0, 2): 54, (1, 2): -54,
        (0, 3): -108,
    })


def pr_poly(r) -> RationalPolynomial:
    """p_r(x) with the numeric (rationalized) r substituted; exactly one
    positive root for r > 2/3, located where S(r, .) peaks."""
    if not -math.inf < r < math.inf:
        raise DomainError(f"pr_poly requires finite r (got {r})")
    rv = Fraction(r)
    return RationalPolynomial([pk(rv) for pk in pr_bivariate().coefficients])


def bracket_low(r):
    """m(r) = 3r/2 + 1/6 + 3/(25r) - 21/(3125 r^3) < Q_r.  Exact for
    Fraction input."""
    _require_r(r)
    return _finite("bracket_low", lambda r: _bracket_low(r, _BRACKET_C), r=r)


def bracket_high(r):
    """M(r) = 3r/2 + 1/6 + 3/(25r) > Q_r.  Exact for Fraction input."""
    _require_r(r)
    return _bracket_high(r, _BRACKET_C)


def q_root_mp(r) -> "mpmath.mpf":
    """Peak location Q_r at working precision: closed cubic form

        Q_r = (3 + 25 r^2 + (1-r) alpha + alpha^2) / (6 alpha),
        alpha = (125 r^3 + 36 r - 3 sqrt(375 r^4 + 69 r^2 - 3))^(1/3),

    polished with two Newton steps (the bracket width shrinks like r^-5,
    far below double resolution, so high precision is not optional).  The
    steps use p_r at the exact value of r: a Fraction as given, any other
    input at the dyadic value of its working-precision mpf."""
    mpmath = _mpmath()
    mpf = mpmath.mpf
    rv = mpf(r) if not isinstance(r, Fraction) else mpf(r.numerator) / r.denominator
    if not (rv > mpf(2) / 3 and mpmath.isfinite(rv)):
        raise DomainError(f"q_root requires finite r > 2/3 (got {float(rv)})")
    disc = 375 * rv ** 4 + 69 * rv ** 2 - 3
    alpha = (125 * rv ** 3 + 36 * rv - 3 * mpmath.sqrt(disc)) ** (mpf(1) / 3)
    q = (3 + 25 * rv ** 2 + (1 - rv) * alpha + alpha ** 2) / (6 * alpha)
    if isinstance(r, Fraction):
        p = pr_poly(r)
    else:
        man, exp = rv.man_exp
        p = pr_poly(Fraction(man) * Fraction(2) ** exp)
    dp = p.derivative()
    for _ in range(2):
        q = q - p(q) / dp(q)
    return q


def q_root(r: float) -> float:
    """Q_r as a double; see q_root_mp for the full-precision value."""
    return float(q_root_mp(r))


# ----------------------------------------------------------------------
# the reconstruction identity and the tail integral
# ----------------------------------------------------------------------
_RECONSTRUCTION_TAIL = 1e-11  # target of the truncation bound


def phi_preferred_reconstruction(r: float) -> Tuple[float, float]:
    """(value, tail_bound) for 1 + (6r-1)/(3r+1)^3 + sum_{N>=1} S(r, N).

    Truncates the sum when the integral-comparison bound on the discarded
    tail (|S(r, N)| <= (20/9) r N^-4 for N >= max(r, 3)) is below
    _RECONSTRUCTION_TAIL.  The value equals phi(r, 2/3) exactly; the
    returned bound covers only the truncation.
    """
    _require_r(r)
    n_stop = max(3, r, (20 * r / (27 * _RECONSTRUCTION_TAIL)) ** (1 / 3))
    if n_stop > 10_000_000:
        raise TailUnbounded(f"tail target requires more than 1e7 terms at r = {r}")
    n_stop = math.ceil(n_stop)
    total = 1 + _first_term(r)
    for n in range(1, n_stop + 1):
        total += _s(r, n)
    tail_bound = 20 * r / (27 * n_stop ** 3)
    return total, tail_bound


def s_integral_tail(r) -> float:
    """Closed form of integral_2^inf S(r, x) dx:

        3r (108 r^3 + 594 r^2 + 1035 r + 616) / (2 (3r+4)^2 (3r+7)^2)
        - 2 r log((3r+7)/(3r+4)).

    Certified exactly by integral_antiderivative_certificate().  The two
    terms tend to 2 and cancel to about -1/(6 r^2), so from r = _LARGE_R on
    the integral is summed from its series in 1/r (see _large_r_series),
    which cancels nothing.
    """
    _require_r(r)
    if r >= _LARGE_R:
        return _from_series("s_integral_tail", _large_r_series()[0], r)
    return _finite("s_integral_tail", lambda r: _tail_rational(r) - 2 * r * math.log1p(3 / (3 * r + 4)), r=r)


# absolute target of the tail quadrature; the integrals are O(1e-3)
_TAIL_QUAD_TOL = 1e-12


def s_integral_tail_quad(r) -> float:
    """The same integral by adaptive quadrature (oracle route).

    Raises ToleranceUnreachable when the quadrature's own error estimate
    stays above 1e-12.
    """
    _require_r(r)
    value, error = quad(lambda x: s_function(r, x), (2, math.inf), epsabs=_TAIL_QUAD_TOL, limit=400)
    if not error <= _TAIL_QUAD_TOL:
        raise ToleranceUnreachable(
            f"s_integral_tail_quad({r}) cannot reach {_TAIL_QUAD_TOL}: error estimate {error:.3e}"
        )
    return value


def em_lower_bound(r: float) -> float:
    """H(r): the certified lower bound for phi(r, 2/3) - 1 on r > 2/3.

    H(r) = (6r-1)/(3r+1)^3 + S(r,1) + S(r,2)
           + integral_2^inf S(r, x) dx - 16/(3125 r^3);

    positive on (2/3, inf), tending to 0 from above like 1/(18 r^2).  From
    r = _LARGE_R on it is summed from its series in 1/r, as the tail
    integral's terms cancel (see _large_r_series).
    """
    _require_r(r)
    if r >= _LARGE_R:
        return _from_series("em_lower_bound", _large_r_series()[1], r)
    return _finite("em_lower_bound", lambda r: _h(r, s_integral_tail(r)), r=r)


# From here on the tail integral and H are summed from their series in
# u = 1/r: in doubles the closed form loses about 2e-15 r^2 of relative
# accuracy, and the series' ratio is about 7/(3r), so _SERIES_TERMS terms
# reach double resolution with a wide margin.
_LARGE_R = 16
_SERIES_TERMS = 24


def _at_infinity(q: RationalFunction, terms: int) -> List[Fraction]:
    """c_0 ... c_(terms-1) of q(r) = sum_p c_p r^-p, for a quotient in r
    with a finite limit at infinity, by power-series division in u = 1/r."""
    num, den = q.num.coefficients[::-1], q.den.coefficients[::-1]
    shift = q.den.degree - q.num.degree
    quotient: List[Fraction] = []
    for i in range(terms - shift):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * quotient[i - j]
        quotient.append(acc / den[0])
    return [Fraction(0)] * shift + quotient


@functools.cache
def _large_r_series() -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The coefficients of u^0 ... u^(_SERIES_TERMS-1), rounded once to
    doubles, of the tail integral and of H at r = 1/u, derived exactly
    (once per process) from their formulas: the rational parts
    _tail_rational and _h expanded at infinity, plus the log part
    -2r log((3r+7)/(3r+4)) = -2r (log(1 + 7u/3) - log(1 + 4u/3)), whose
    u^p coefficient is 2 (-1)^(p+1) ((7/3)^(p+1) - (4/3)^(p+1)) / (p+1)."""
    log_part = [2 * (-1) ** (p + 1) * (Fraction(7, 3) ** (p + 1) - Fraction(4, 3) ** (p + 1)) / (p + 1)
                for p in range(_SERIES_TERMS)]
    tail = _at_infinity(_tail_rational(_R), _SERIES_TERMS)
    h = _at_infinity(_h(_R, _tail_rational(_R)), _SERIES_TERMS)
    return tuple(tuple(float(a + b) for a, b in zip(part, log_part)) for part in (tail, h))


def _from_series(helper: str, coeffs: Tuple[float, ...], r):
    """sum_p coeffs[p] r^-p by Horner in u = 1/r; a sum that underflows
    doubles is a DomainError naming r."""
    u = 1 / r
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    if not acc:
        raise DomainError(f"{helper}: the result underflows doubles at r = {r}")
    return acc


# ----------------------------------------------------------------------
# exact certificates
# ----------------------------------------------------------------------
# r over Q[r], and r and a second variable (x, N, v or Q) over Q[r][x]
_R = RationalFunction(RationalPolynomial.variable())
_R2, _Y = RationalFunction(BivariatePolynomial.x()), RationalFunction(BivariatePolynomial.y())


def series_decomposition_certificate() -> Certificate:
    """Exact identities behind the Euler-Maclaurin rewrite of the series.

    Each check evaluates the formulas f_r, its antiderivative A and S on
    quotients in (r, N), takes derivatives in N with
    RationalFunction.derivative, and compares the quotients: A' = f_r, the
    value of integral_0^inf f_r = -A(0), the derivative formula for f_r,
    the per-period Bernoulli integral equalling S(r, N), and the peel of
    the N = 0 term.
    """
    c = Checks()

    r, n = _R2, _Y
    f, anti = _f(r, n), _antiderivative(r, n)
    c.check("f_antiderivative_identity", anti.derivative() == f, "f antiderivative")

    # integral_0^inf f_r dx = -A(0), as A vanishes at infinity
    integral = 1 - 4 / (3 * _R - 2) ** 2
    ok_integral = anti.num.degree < anti.den.degree and -_antiderivative(_R, 0) == integral
    c.check("f_integral_value", ok_integral, "integral of f")

    f_prime = 54 * r * (4 + 3 * r - 6 * n) / (3 * r + 3 * n - 2) ** 4
    c.check("f_derivative_formula", f.derivative() == f_prime, "f derivative")

    # per-period Bernoulli integral (integration by parts):
    #   integral_0^1 f'(x+N) (x - 1/2) dx = (f(N+1)+f(N))/2 - A(N+1) + A(N)
    period = (_f(r, n + 1) + f) / 2 - _antiderivative(r, n + 1) + anti
    c.check("bernoulli_period_equals_s", period == _s(r, n), "per-period Bernoulli integral")

    # peel the N = 0 term: integral_0^inf f - f(0)/2 + S(r, 0) == 1 + (6r-1)/(3r+1)^3
    peeled = integral - _f(_R, 0) / 2 + _s(_R, 0)
    c.check("peeled_n0_term", peeled == 1 + _first_term(_R), "peeled N=0 term")

    return c.certificate(
        "em.series.decomposition",
        "Euler-Maclaurin rewrite of the preferred-mode series: "
        "antiderivative, boundary, per-period remainder, and peel identities",
    )


def integral_antiderivative_certificate() -> Certificate:
    """Exact witness for integral_2^inf S(r, x) dx.

    In the variable v = 3x + 3r - 2 (so S dx = 27 r (v^2 + (3-6r) v - 9r)
    / (v^3 (v+3)^3) dv), the antiderivative is

        G(v) = p(v)/(v^2 (v+3)^2) - 2r (log v - log(v+3)),
        p(v) = 81 r^2/2 - 27 r v - 27 r v^2 - 6 r v^3.

    Four steps, each exact: the change of variable is checked against S's
    numerator; G' (RationalFunction.derivative of the rational part, plus
    the derivative of the logarithms) against S dx/dv as quotients in
    (r, v); -p(v)/(v^2 (v+3)^2) at v = 3r + 4 against the tail formula's
    rational part, by cross-multiplication; and G -> 0 as v -> inf.  The
    rational part's limit is read off degrees in v (3 < 4, over a monic
    denominator), and the log part 2r log(1 + 3/v) is squeezed to 0 by
    0 <= log(1 + u) <= u with u = 3/v, as 2ru -> 0.  So
    integral_2^inf S dx = lim G - G(3r + 4) = -G(3r + 4), the closed form
    of s_integral_tail.
    """
    c = Checks()

    r, v = BivariatePolynomial.x(), BivariatePolynomial.y()

    def s_dx_dv(v):
        """The numerator of S dx/dv over v^3 (v+3)^3."""
        return 27 * r * (v * v + (3 - 6 * r) * v - 9 * r)

    # S's numerator in (r, x) is 3 S dx/dv at v = 3x + 3r - 2 (x in the second slot)
    c.check("numerator_in_v", _s(_R2, _Y).num == 3 * s_dx_dv(3 * v + 3 * r - 2), "numerator transform")

    # G' = (p/(v^2 (v+3)^2))' - 2r (1/v - 1/(v+3)) equals S dx/dv
    g_rational = _tail_antiderivative(_R2, _Y)
    g_prime = g_rational.derivative() - 2 * _R2 * (1 / _Y - 1 / (_Y + 3))
    s_dv = RationalFunction(s_dx_dv(v), v ** 3 * (v + 3) ** 3)
    c.check("antiderivative_identity", g_prime == s_dv, "antiderivative identity")

    # evaluation: -p(v)/(v^2 (v+3)^2) at v = 3r + 4 is the tail's rational part
    boundary = -_tail_antiderivative(_R, 3 * _R + 4)
    c.check("boundary_evaluation", boundary == _tail_rational(_R), "boundary evaluation")

    # G -> 0: 0 <= log(1 + u) <= u with u = 3/v squeezes 2r log(1 + 3/v) to 0
    limits = {
        "p/(v^2(v+3)^2)": _limit_at_infinity(g_rational),
        "2ru": _limit_at_infinity(2 * _R2 * (3 / _Y)),
    }
    monic = g_rational.den.leading_coefficient() == 1
    c.check("g_limit_at_infinity", monic and limits == {"p/(v^2(v+3)^2)": 0, "2ru": 0}, "G limit at infinity", limits)

    return c.certificate(
        "em.integral.tail-closed-form",
        "closed form of the remainder tail integral over [2, inf): "
        "rational part plus -2r log((3r+7)/(3r+4)); the antiderivative "
        "vanishes at infinity",
    )


def bracket_certificates() -> Certificate:
    """Exact bracket for the remainder peak Q_r (r > 2/3).

    Checks dS/dx = 243 r p_r(x) / ((3r+3x+1)^4 (3r+3x-2)^4) as quotients
    in (r, x), from S's formula and RationalFunction.derivative.  Evaluates
    p_r at the bracket formulas, as quotients in r, and verifies by
    cross-multiplication

        p_r(3r/2 + 1/6) = 81 r
        p_r(3r/2 + 1/3) = 4 + 66 r - (225/2) r^2
        p_r(m(r)) = 81 (12348 + 125 r^2 (1515625 r^4 + 21000 r^2 - 5292)) / (5^15 r^9)
        p_r(M(r)) = -81 (36 + 875 r^2) / (5^6 r^3)

    with m, M carrying the 3/(25r) term.  It also certifies positivity of
    the inner quartic for r > 2/3 by a shift-and-Descartes argument;
    evaluates the sign claims at r = 2/3 exactly; and records that the
    2/(25r) bracket variant, the same formulas with 2/25 for 3/25, fails
    the same identities (misprint witness).
    """
    c = Checks()
    p_biv = pr_bivariate()
    r = _R

    # p_r is the numerator of dS/dx, so its positive root is where S peaks
    ds_dx = 243 * _R2 * RationalFunction(p_biv) / ((3 * _R2 + 3 * _Y + 1) ** 4 * (3 * _R2 + 3 * _Y - 2) ** 4)
    c.check("s_derivative_numerator_is_p_r", _s(_R2, _Y).derivative() == ds_dx, "dS/dx numerator p_r")

    # affine probes: the brackets without their 1/r terms, and 1/6 above
    head = _bracket_high(r, 0)
    c.check("probe_at_3r/2+1/6", p_biv.substitute_y(head) == 81 * r, "affine probe 1/6")
    probe2 = p_biv.substitute_y(head + Fraction(1, 6))
    c.check("probe_at_3r/2+1/3", probe2 == RationalPolynomial([4, 66, Fraction(-225, 2)]), "affine probe 1/3")

    r_poly = RationalPolynomial.variable()
    inner = RationalPolynomial([-5292, 0, 21000, 0, 1515625])
    target_m = RationalFunction(81 * (12348 + 125 * r_poly ** 2 * inner), RationalPolynomial.monomial(5 ** 15, 9))
    p_at_m = p_biv.substitute_y(_bracket_low(r, _BRACKET_C))
    c.check("bracket_low_identity", p_at_m == target_m, "low bracket identity")

    target_mu = RationalFunction(-81 * (36 + 875 * r_poly ** 2), RationalPolynomial.monomial(5 ** 6, 3))
    p_at_mu = p_biv.substitute_y(_bracket_high(r, _BRACKET_C))
    c.check("bracket_high_identity", p_at_mu == target_mu, "high bracket identity")

    # positivity of the inner quartic for r > 2/3: shift to s = r - 2/3 and
    # count sign changes (none) with a positive value at s = 0.
    shifted = inner.compose(RationalPolynomial([TWO_THIRDS, 1]))
    ok_pos = descartes_sign_changes(shifted) == 0 and inner(TWO_THIRDS) > 0
    c.check("inner_quartic_positive", ok_pos, "inner quartic positivity")
    c.witnesses["inner_quartic_at_2/3"] = inner(TWO_THIRDS)

    # exact endpoint signs of p_r(m(r)) and p_r(M(r))
    p_m_val = p_at_m(TWO_THIRDS)
    p_mu_val = p_at_mu(TWO_THIRDS)
    c.check(
        "endpoint_values", p_m_val > 0 and p_mu_val < 0, "endpoint signs",
        {"p(m(2/3))": p_m_val, "p(M(2/3))": p_mu_val},
    )

    # misprint witness: the 2/(25r) variant does NOT satisfy the identities
    diff_m = p_biv.substitute_y(_bracket_low(r, Fraction(2, 25))) - target_m
    diff_mu = p_biv.substitute_y(_bracket_high(r, Fraction(2, 25))) - target_mu
    c.check(
        "variant_2_25_fails", diff_m != 0 and diff_mu != 0,
        "misprint witness unexpectedly verified",
    )
    # the degree of the residual p_r(m(r)) - target as a rational function
    c.witnesses["variant_2_25_low_residual_degree"] = diff_m.num.degree - diff_m.den.degree

    return c.certificate(
        "em.qroot.bracket",
        "m(r) < Q_r < M(r) via exact bracket evaluations; "
        "1/r coefficient pinned to 3/25 (2/25 variant refuted)",
    )


def h_pipeline() -> Certificate:
    """Exact reconstruction of H, H', H''.

    Evaluates the rational part of H, the formula of em_lower_bound with
    the tail's rational part, on a quotient in r, clears it over the common
    denominator D1 by exact division and asserts the numerator equals the
    embedded table.  With s = r(3r+1)(3r+4)(3r+7), D1 = 6250 s^3, and the
    tail's log term -2r log L, L = (3r+7)/(3r+4), the derivatives are
    H' = F2/D2 - 2 log L and H'' = F3/D3 over D2 = 3125 s^4 and
    D3 = 3125 s^5, where (log L)' = L'/L gives

        F2 = ((F1/D1)' - 2r L'/L) D2,    F3 = ((F2/D2)' - 2 L'/L) D3,

    each derivative RationalFunction.derivative and each division exact;
    F2 and F3 are asserted against their tables.  It then certifies the H''
    numerator's sign pattern (negative through r^7, positive from r^8) and
    its single Descartes sign change, and evaluates H'' = F3/D3 exactly at
    1/3 and 2/3, so H'' > 0 on (2/3, inf).  Last it reads the limits at
    infinity off degrees and leading coefficients: F1/D1 -> 2, F2/D2 -> 0,
    and 2r(u - u^2/2) -> 2 and 2ru -> 2 with u = L - 1 = 3/(3r+4), which
    squeeze 2r log L to 2 (as u - u^2/2 <= log(1+u) <= u), hence 2 log L
    to 0.  So H, H' -> 0, H' < 0 and H > 0 on (2/3, inf).
    """
    c = Checks()

    s = _h_base(RationalPolynomial.variable())
    d1, d2, d3 = 6250 * s ** 3, 3125 * s ** 4, 3125 * s ** 5
    log_arg = (3 * _R + 7) / (3 * _R + 4)
    dlog = log_arg.derivative() / log_arg

    f1 = (_h(_R, _tail_rational(_R)) * d1).as_polynomial()
    _check_table(c, "h_numerator_matches_table", "H numerator", f1, tables.H_NUM_COEFFS)

    f2 = ((RationalFunction(f1, d1).derivative() - 2 * _R * dlog) * d2).as_polynomial()
    _check_table(c, "h1_numerator_matches_table", "H' numerator", f2, tables.H1_NUM_COEFFS)

    f3 = ((RationalFunction(f2, d2).derivative() - 2 * dlog) * d3).as_polynomial()
    _check_table(c, "h2_numerator_matches_table", "H'' numerator", f3, tables.H2_NUM_COEFFS)

    pattern = sign_pattern(f3)
    ok_pattern = all(s == "-" for s in pattern[:8]) and all(s == "+" for s in pattern[8:])
    c.check("h2_sign_pattern", ok_pattern, "H'' sign pattern", "".join(pattern))
    changes = descartes_sign_changes(f3)
    c.check("h2_descartes_count", changes == 1, "H'' Descartes count", changes)

    c.witnesses["h2_at_1/3"] = val_third = f3(Fraction(1, 3)) / d3(Fraction(1, 3))
    c.witnesses["h2_at_2/3"] = val_two_thirds = f3(TWO_THIRDS) / d3(TWO_THIRDS)
    ok_vals = val_third == tables.H2_AT_ONE_THIRD and val_two_thirds == tables.H2_AT_TWO_THIRDS
    c.check(None, ok_vals, "H'' endpoint values")

    # H, H' -> 0: u - u^2/2 <= log L <= u with u = L - 1 squeezes 2r log L to 2
    u = log_arg - 1
    limits = {
        "F1/D1": _limit_at_infinity(RationalFunction(f1, d1)),
        "2r(u-u^2/2)": _limit_at_infinity(2 * _R * (u - u * u / 2)),
        "2ru": _limit_at_infinity(2 * _R * u),
        "F2/D2": _limit_at_infinity(RationalFunction(f2, d2)),
    }
    want = {"F1/D1": 2, "2r(u-u^2/2)": 2, "2ru": 2, "F2/D2": 0}
    c.check("h_limits_at_infinity", limits == want, "H limits at infinity", limits)

    return c.certificate(
        "em.h.pipeline",
        "H, H', H'' numerators re-derived and equal to tables; "
        "H''(1/3) = -437616243/25600000 < 0 < 49618/2278125 = H''(2/3); "
        "unique positive root of the H'' numerator; H, H' -> 0 at infinity, "
        "hence H > 0 on (2/3, inf)",
    )


def _limit_at_infinity(q: RationalFunction):
    """The limit of a quotient in r as r -> inf, or of one in (r, v) as
    v -> inf, read off the degrees and leading coefficients: a Fraction, a
    quotient in r, or None where it diverges."""
    if q.num.degree != q.den.degree:
        return Fraction(0) if q.num.degree < q.den.degree else None
    top, bottom = q.num.leading_coefficient(), q.den.leading_coefficient()
    if isinstance(top, RationalPolynomial):
        return RationalFunction(top, bottom)
    return Fraction(top) / bottom


def _check_table(c: Checks, key: str, label: str, got: RationalPolynomial, coeffs) -> None:
    """Check a re-derived polynomial against its embedded coefficient table;
    a failure names the first coefficient that differs."""
    want = RationalPolynomial(coeffs)
    ok = got == want
    if not ok:
        n = next(n for n in range(max(got.degree, want.degree) + 1) if got.coeff(n) != want.coeff(n))
        label = f"{label}: first mismatch at exponent {n} (got {got.coeff(n)}, want {want.coeff(n)})"
    c.check(key, ok, label)


def s_bound_certificate() -> Certificate:
    """Exact proof skeleton of S(r, Q_r) < 16/(3125 r^3) for r > 2/3.

    Evaluates W(r, Q), the numerator of 16/(3125 r^3) - S(r, Q) from their
    formulas on quotients in (r, Q), whose positivity at Q = Q_r is
    equivalent to the bound; splits it by coefficient sign into U - V
    (tables checked both ways); forms P(r) = r^18 (U(r, m(r)) - V(r, M(r)))
    with m and M the bracket formulas on a quotient in r, divided exactly,
    and asserts all 23 coefficients against the embedded table (including
    the two zero entries); counts six sign changes; differentiates fourteen
    times, after which a single sign change remains; and pins the endpoint
    values P14(0) < 0 < P14(2/3) plus positivity of every lower-order
    derivative at 2/3.  Together these force P > 0 on (2/3, inf), hence
    U(r, Q_r) > V(r, Q_r) by the bracket monotonicity, hence the bound.
    """
    c = Checks()

    w = (_peak_bound(_R2) - _s(_R2, _Y)).num
    u_part, v_part = w.split_by_sign()
    c.check("w_equals_u_minus_v", (u_part - v_part) == w, "sign split re-expansion")

    u_table = {k: RationalPolynomial(v) for k, v in tables.U_COEFFS_BY_QPOW.items()}
    v_table = {k: RationalPolynomial(v) for k, v in tables.V_COEFFS_BY_QPOW.items()}
    c.check("u_coefficients_match_table", u_part.coefficients_in_y() == u_table, "U table")
    c.check("v_coefficients_match_table", v_part.coefficients_in_y() == v_table, "V table")

    gap = u_part.substitute_y(_bracket_low(_R, _BRACKET_C)) - v_part.substitute_y(_bracket_high(_R, _BRACKET_C))
    p_poly = (_R ** 18 * gap).as_polynomial()
    _check_table(c, "p_coefficients_match_table", "P coefficients", p_poly, tables.P_COEFFS)

    ok_zeros = p_poly.coeff(1) == 0 and p_poly.coeff(21) == 0
    c.check("beta1_beta21_zero", ok_zeros, "beta_1/beta_21 zero entries")
    changes = descartes_sign_changes(p_poly)
    c.check("p_sign_changes", changes == tables.P_SIGN_CHANGES, f"P sign changes: got {changes}", changes)

    # P and its first 13 derivatives are positive at 2/3; P14 is the next
    lower_orders_positive = True
    p14 = p_poly
    for _ in range(14):
        lower_orders_positive = lower_orders_positive and p14(TWO_THIRDS) > 0
        p14 = p14.derivative()
    p14_changes = descartes_sign_changes(p14)
    c.check("p14_sign_changes", p14_changes == 1, "P14 Descartes count", p14_changes)
    c.witnesses["p14_at_0"] = p14_zero = p14(Fraction(0))
    c.witnesses["p14_at_2/3"] = p14_two_thirds = p14(TWO_THIRDS)
    ok_p14_vals = p14_zero == tables.P14_AT_ZERO and p14_two_thirds == tables.P14_AT_TWO_THIRDS
    c.check(None, ok_p14_vals, "P14 endpoint values")

    c.check("lower_derivatives_positive_at_2/3", lower_orders_positive, "derivative positivity at 2/3")

    return c.certificate(
        "em.s.peak-bound",
        "S(r, Q_r) < 16/(3125 r^3) for r > 2/3 via the positivity "
        "chain of the degree-22 cleared polynomial",
    )


def em_certificate_suite() -> List[Certificate]:
    """The full exact suite, in dependency order."""
    return [
        series_decomposition_certificate(),
        integral_antiderivative_certificate(),
        bracket_certificates(),
        h_pipeline(),
        s_bound_certificate(),
    ]
