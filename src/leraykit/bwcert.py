"""Complete-monotonicity evidence via the Laplace-kernel quadratic.

The auxiliary function

    F_q(x) = theta(x+q, q) - x - 2q + 1/2
           = integral_0^inf  M(t, q) / (e^t - 1)^3 * e^(-x t) dt,

with the kernel quadratic (in q)

    M(t, q) = g0(t) - g1(t) q + g2(t) q^2,
    g0(t) = e^t (2 - 2 e^t + t + t e^t),
    g1(t) = 2 (e^t - 1)(1 - e^t + t e^t),
    g2(t) = t (e^t - 1)^2,

is strictly completely monotone in x exactly when the kernel density stays
non-negative, i.e. when q avoids the open root interval (s2(t), s1(t)) of
the quadratic for every t > 0.  Since 0 < s2(t) < s1(t) < 1, complete
monotonicity holds for q <= 0 and q >= 1, which forces phi(r, q) < 1 for
r > q there; it demonstrably fails for q between (3-sqrt(3))/6 and 1.

This module evaluates the kernel pieces, the roots s1/s2, F_q through two
independent routes, and emits numeric-evidence certificates for complete
monotonicity at sample q: finite-difference sign tests up to fourth order
plus a kernel-sign scan.  Those verdicts are evidence, not proof.  The two
claims the suite reports as ``verified`` are exact, read off one statement
of g0, g1 and g2 in (t, e) with e = e^t
(:func:`~leraykit.exactpoly.exp_series_nonnegative` proves a series in t
has no negative coefficient):

* the structure claim 0 < s2 < s1 < 1 for every t > 0: d0, g0 = M(t, 0),
  M(t, 1), g2, g1 and 2 g2 - g1 are non-zero series in t with no negative
  coefficient, hence positive for t > 0, and the discriminant
  g1^2 - 4 g0 g2 equals 4 (e - 1)^2 d0 as polynomials in (t, e).  So the
  roots are real and distinct, 0 and 1 lie outside them, and the vertex
  g1 / (2 g2) between them lies in (0, 1);
* the refutation at q = 2/3: the t^0..t^3 coefficients of M(t, 2/3) are
  0, 0, 0, -1/18, so the Laplace density is negative near t = 0, and by
  Bernstein's theorem and the uniqueness of the Laplace transform F_{2/3}
  is not completely monotone.

The two F_q routes are the certified polygamma value and the Laplace
integral, taken by a double-precision adaptive 21-point Gauss-Kronrod rule
(QUADPACK's QK21, :mod:`leraykit._quadrature`) on [0, T] with a breakpoint
at t = 1 and an explicit bound on the tail beyond T.  The integrand is
written so that no exponential in it grows.  The quadrature's target is
the constant DEFAULT_TOL = 1e-12, not a parameter: the error estimate must
stay below it, or ToleranceUnreachable is raised, and the routes must then
agree within 10*DEFAULT_TOL + tail + radius, or CrossCheckFailure is
raised.  The polygamma route's radius is returned as it is, like every
certified value in the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from ._quadrature import quad
from .certificates import Certificate, Checks
from .errors import CrossCheckFailure, DomainError, ToleranceUnreachable
from .exactpoly import BivariatePolynomial, exp_series_nonnegative, exp_taylor_coefficient
from .specialfn import DEFAULT_TOL, BoundedFloat, _mpmath, _require_finite, theta

__all__ = [
    "g0",
    "g1",
    "g2",
    "h0",
    "h1",
    "m_kernel",
    "quadratic_roots",
    "one_minus_s1",
    "f_q",
    "cm_numeric_certificate",
    "bw_certificate_suite",
    "S2_SMALL_T_LIMIT",
]


def __getattr__(name: str):
    # nothing here computes with mpmath; perfbench/spans.py traces the
    # module's `mpmath`, which loads it on first access (PEP 562)
    if name == "mpmath":
        return _mpmath()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# limit of the lower root as t -> 0+
S2_SMALL_T_LIMIT = (3 - math.sqrt(3)) / 6

_SERIES_CUTOFF = 2.0
_SERIES_TERMS = 60


def _require_t(helper: str, t) -> None:
    if not 0 < t < math.inf:
        raise DomainError(f"{helper} requires finite t > 0 (got {t})")


def _exp(t: float, fn=math.exp) -> float:
    """fn(t), math.exp or math.expm1, with overflow a DomainError."""
    try:
        return fn(t)
    except OverflowError:
        raise DomainError(f"e^t overflows a double at t = {t}") from None


def _finite(helper: str, t, value, q=None):
    """value, unless a double cannot hold it; the error names q if given."""
    if not math.isfinite(value):
        at = f"t = {t}" if q is None else f"t = {t} and q = {q}"
        raise DomainError(f"{helper}: the result is not finite in doubles at {at}")
    return value


# The cancelling kernel pieces in (t, e), see the module docstring; at
# e = e^-t, d0 is d0(t, e^t) e^-2t.
def _h0(t, e):
    return 2 - 2 * e + t + t * e


def _h1(t, e):
    return 1 - e + t * e


def _d0(t, e):
    return (e - 1) * (e - 1) - t * t * e


def _kernel_pieces(t, e):
    """(g0, g1, g2) in (t, e): the one statement the exact certificates read."""
    return e * _h0(t, e), 2 * (e - 1) * _h1(t, e), t * (e - 1) ** 2


def _taylor_table(formula) -> List[float]:
    """The t^n coefficients of formula(t, e^t) for n < _SERIES_TERMS, exact
    and then rounded once to doubles, from the first nonzero one; the
    formula vanishes at 0 to the order _SERIES_TERMS - len(table)."""
    p = formula(BivariatePolynomial.x(), BivariatePolynomial.y())
    coeffs = [exp_taylor_coefficient(p, n) for n in range(_SERIES_TERMS)]
    return [float(c) for c in itertools.dropwhile(lambda c: not c, coeffs)]


_H0_COEFFS, _H1_COEFFS, _D0_COEFFS = (_taylor_table(f) for f in (_h0, _h1, _d0))


def _series_or_closed(formula, coeffs: Sequence[float], t):
    """formula(t, e^t); below the cutoff, where it cancels, its Taylor
    table `coeffs` by Horner from the top."""
    if t < _SERIES_CUTOFF:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc * t ** (_SERIES_TERMS - len(coeffs))
    return formula(t, _exp(t))


def h0(t):
    """(t-2) e^t + t + 2, vanishing to third order at 0; positive for t > 0."""
    _require_t("h0", t)
    return _finite("h0", t, _series_or_closed(_h0, _H0_COEFFS, t))


def h1(t):
    """1 - e^t + t e^t, vanishing to second order at 0; positive for t > 0."""
    _require_t("h1", t)
    return _finite("h1", t, _series_or_closed(_h1, _H1_COEFFS, t))


def g0(t):
    _require_t("g0", t)
    return _finite("g0", t, _exp(t) * h0(t))


def g1(t):
    _require_t("g1", t)
    return _finite("g1", t, 2 * _exp(t, math.expm1) * h1(t))


def g2(t):
    _require_t("g2", t)
    em1 = _exp(t, math.expm1)
    return _finite("g2", t, t * em1 * em1)


def m_kernel(t, q):
    """M(t, q) = g0(t) - g1(t) q + g2(t) q^2.

    Positive for every t > 0 exactly when q lies outside (s2(t), s1(t)).
    Small-t behavior: (q^2 - q + 1/6) t^3 + (q^2 - 7q/6 + 1/4) t^4 + O(t^5).

    For large t the e^(2t) coefficient (1-q)(t(1-q) - 2) vanishes
    identically at q = 1, so the g-combination would cancel exponentially
    badly there; the evaluation regroups by powers of e^t instead:

        M = [(1-q)(t(1-q) - 2)] e^(2t)
            + [(t+2) + 2q(t-2) - 2 q^2 t] e^t + (q^2 t + 2q).
    """
    _require_t("m_kernel", t)
    if not -math.inf < q < math.inf:
        raise DomainError(f"q must be finite (got {q})")
    # a result past the double range is q's doing, and named so, unless
    # t e^(2t), the size of the largest piece g2, is past it already
    if t < _SERIES_CUTOFF:
        return _finite("m_kernel", t, g0(t) - g1(t) * q + g2(t) * q * q, q)
    e = _exp(t)
    a, b, c = _regrouped_coeffs(t, q)
    return _finite("m_kernel", t, (a * e + b) * e + c, q if math.isfinite(t * e * e) else None)


def _regrouped_coeffs(t, q):
    """Coefficients (a, b, c) of M(t, q) = a e^(2t) + b e^t + c."""
    a = (1 - q) * (t * (1 - q) - 2)
    b = (t + 2) + 2 * q * (t - 2) - 2 * q * q * t
    c = q * q * t + 2 * q
    return a, b, c


def quadratic_roots(t) -> Tuple[float, float]:
    """Roots (s1, s2) of q |-> M(t, q), with 0 < s2 < s1 < 1 for t > 0.

    s1 -> 1 as t -> infinity; s2 -> (3 - sqrt(3))/6 as t -> 0.  Evaluation
    is series-stabilized near 0 and rescaled by e^-t for large t, so no
    catastrophic cancellation or overflow occurs on the working range.
    The gap 1 - s1 shrinks like t e^-t / 2; once it falls below the
    resolution of a double near 1 (t around 45) the returned s1 rounds to
    exactly 1.0 -- use :func:`one_minus_s1` for the stable gap.
    """
    _require_t("quadratic_roots", t)
    if t < _SERIES_CUTOFF:
        num_mid = h1(t)          # t e^t + 1 - e^t
        root = math.sqrt(_series_or_closed(_d0, _D0_COEFFS, t))
        den = t * _exp(t, math.expm1)
        if not den:
            raise DomainError(f"quadratic_roots: t (e^t - 1) rounds to 0 at t = {t}")
        return (num_mid + root) / den, (num_mid - root) / den
    gap, s2 = _large_t_roots(t)
    return 1 - gap, s2


def one_minus_s1(t) -> float:
    """1 - s1(t), computed without the cancellation that makes the direct
    difference underflow for large t.  Always strictly positive: where the
    gap underflows to 0 (t beyond about 745) it raises DomainError."""
    _require_t("one_minus_s1", t)
    if t < _SERIES_CUTOFF:
        s1, _ = quadratic_roots(t)
        gap = 1.0 - s1
    else:
        gap = _large_t_roots(t)[0]
    if not gap > 0:
        raise DomainError(f"one_minus_s1: 1 - s1 underflows to 0 at t = {t}")
    return gap


def _large_t_roots(t):
    """(1 - s1, s2) for t >= _SERIES_CUTOFF, with numerators and
    denominator divided by e^t so nothing overflows: the root is
    sqrt(d0) e^-t = sqrt(d0(t, e^-t)), and 1 - root = e^-t (2 - e^-t +
    t^2)/(1 + root) keeps the subtraction in 1 - s1 between terms of
    commensurate size."""
    emt = _exp(-t)
    root = math.sqrt(_d0(t, emt))
    den = t * (1 - emt)
    return emt * ((2 - emt + t * t) / (1 + root) - (t + 1)) / den, (t + emt - 1 - root) / den


# ----------------------------------------------------------------------
# F_q through two routes
# ----------------------------------------------------------------------
def _integrand(t: float, q: float, x: float) -> float:
    """M(t, q) / (e^t - 1)^3 * e^(-x t) in doubles, free of overflow.

    For t >= 2 the regrouped kernel is divided through by e^(3t), so every
    exponential that appears decays.
    """
    if t < _SERIES_CUTOFF:
        return m_kernel(t, q) / math.expm1(t) ** 3 * math.exp(-x * t)
    a, b, c = _regrouped_coeffs(t, q)
    emt = math.exp(-t)
    return (a + (b + c * emt) * emt) / (-math.expm1(-t)) ** 3 * math.exp(-(1 + x) * t)


def _tail_cutoff(x: float, q: float) -> Tuple[float, float]:
    """(T, tail_bound) with the integral over [T, inf) below DEFAULT_TOL,
    from |M(t, q)| <= C_q t e^(2t) and (e^t - 1)^3 >= e^(3t) (1 - e^-1)^3
    on t >= 1."""
    scale = _tail_constant(q) / (1 - math.exp(-1)) ** 3
    s = 1 + x
    T = max(4.0, 40.0 / s)
    while True:
        bound = scale * math.exp(-s * T) * (T / s + 1 / s / s)
        if bound < DEFAULT_TOL or T > 1e4:
            return T, bound
        T *= 1.5


def _tail_constant(q: float) -> float:
    """C_q = (1-q)^2 + 2|1-q| + (3 + 2|q| + 2q^2)/e + (q^2 + 2|q|)/e^2, so
    that |M(t, q)| <= C_q t e^(2t) for every t >= 1: bound |a|/t, |b|/t and
    |c|/t in M = a e^(2t) + b e^t + c by 1/t <= 1 and |t - 2|/t <= 1, and
    e^-t by e^-1."""
    p, aq = abs(1 - q), abs(q)
    return p * p + 2 * p + (3 + 2 * aq + 2 * q * q) * math.exp(-1) + (q * q + 2 * aq) * math.exp(-2)


def _laplace_route(x: float, q: float) -> Tuple[float, float]:
    """(integral of the Laplace integrand over [0, T], bound on the rest).

    Adaptive 21-point Gauss-Kronrod in double precision
    (:mod:`leraykit._quadrature`) with a breakpoint at t = 1.  An error
    estimate above DEFAULT_TOL, or a non-finite one, raises
    ToleranceUnreachable rather than passing a value the quadrature cannot
    vouch for.
    """
    T, tail = _tail_cutoff(x, q)
    qf, xf = float(q), float(x)
    value, error = quad(lambda t: _integrand(t, qf, xf), (0.0, 1.0, T), epsabs=DEFAULT_TOL / 10, limit=200)
    if not error <= DEFAULT_TOL:
        raise ToleranceUnreachable(
            f"f_q({x}, {q}) quadrature cannot reach tol={DEFAULT_TOL}: error estimate {error:.3e}"
        )
    return value, tail


def f_q(x: float, q: float, cross_check: bool = True) -> BoundedFloat:
    """F_q(x) = theta(x+q, q) - x - 2q + 1/2, with certified radius.

    Computed from the polygamma route.  When cross_check is set, the
    Laplace-integral route (double-precision adaptive Gauss-Kronrod on
    [0, T] plus an explicit exponential tail bound) must agree within
    10*DEFAULT_TOL + tail + radius, else CrossCheckFailure.  DEFAULT_TOL is
    the quadrature's target and sizes that gate; it does not bound the
    radius of the returned value.
    """
    _require_finite("x", x)
    _require_finite("q", q)
    if not x > 0:
        raise DomainError("f_q requires x > 0")
    # x + q as an interval: rounding it to a double would shift the argument
    # of theta by up to half an ulp, far more than the certified radius
    out = theta(BoundedFloat.exact(x) + q, q) - x - 2 * q + Fraction(1, 2)
    if cross_check:
        quad_val, tail = _laplace_route(x, q)
        gate = 10 * DEFAULT_TOL + tail
        diff = out - quad_val
        if diff.separated_above(gate) or diff.separated_below(-gate):
            raise CrossCheckFailure(
                f"f_q({x}, {q}): theta route {float(out)} vs quadrature "
                f"{quad_val} differ by {abs(float(diff)):.3e}"
            )
    return out


# ----------------------------------------------------------------------
# complete-monotonicity evidence
# ----------------------------------------------------------------------
_CM_GRID = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_CM_ORDERS = 4  # finite differences up to this order
_FD_STEP = 0.5
_KERNEL_T_GRID = [10 ** (-3 + 4.5 * i / 79) for i in range(80)]  # log grid 1e-3 .. ~30
_KERNEL_NEG_THRESHOLD = -1e-18


def _forward_difference(values: List[BoundedFloat], order: int) -> BoundedFloat:
    acc = values[order]
    for i in range(1, order + 1):
        acc = acc + values[order - i] * ((-1) ** i * math.comb(order, i))
    return acc


def cm_numeric_certificate(q: float) -> Certificate:
    """Numeric evidence for/against strict complete monotonicity of F_q.

    Checks (-1)^m Delta_h^m F_q(x) > 0 for m = 0.._CM_ORDERS at each point
    of _CM_GRID (signs separated from zero by the propagated error radii),
    and scans the kernel sign M(t, q) on a log t-grid.  Any certified sign
    violation refutes; a clean sweep supports; otherwise inconclusive.
    Evidence only: no finite computation proves complete monotonicity.
    """
    fd_violations: List[dict] = []
    fd_inconclusive: List[dict] = []
    for x in _CM_GRID:
        values = [
            f_q(x + i * _FD_STEP, q, cross_check=(i == 0))
            for i in range(_CM_ORDERS + 1)
        ]
        for m in range(_CM_ORDERS + 1):
            fd = _forward_difference(values[: m + 1], m)
            signed = fd if m % 2 == 0 else -fd
            if signed.separated_above(0):
                continue
            record = {"x": x, "order": m, "value": float(signed)}
            if signed.separated_below(0):
                fd_violations.append(record)
            else:
                fd_inconclusive.append(record)

    kernel_min, kernel_min_t = min((m_kernel(t, q), t) for t in _KERNEL_T_GRID)
    kernel_negative = kernel_min < _KERNEL_NEG_THRESHOLD

    witnesses = {
        "fd_violations": fd_violations,
        "fd_inconclusive": fd_inconclusive,
        "kernel_min": kernel_min,
        "kernel_min_t": kernel_min_t,
    }
    if fd_violations or kernel_negative:
        verdict = "refutes"
        if kernel_negative:
            witnesses["kernel_witness_t"] = kernel_min_t
    elif fd_inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "supports"
    return Certificate(
        claim_id=f"bw.cm.q={q:g}",
        method="bounded-numeric",
        verdict=verdict,
        anchor=f"strict complete monotonicity of F_q on x>0 at q={q:g} "
        "(finite differences to order "
        f"{_CM_ORDERS} plus kernel sign scan)",
        inputs={"q": q, "orders": _CM_ORDERS, "grid": list(_CM_GRID)},
        witnesses=witnesses,
    )


def bw_certificate_suite() -> List[Certificate]:
    """The standard battery: numeric evidence of complete monotonicity at
    q in {-2, 0, 1, 3}, then the two exact certificates: the refutation at
    the preferred-measure value q = 2/3 (verified when the kernel is proved
    negative near t = 0) and the structure of the kernel quadratic."""
    certs = [cm_numeric_certificate(q) for q in (-2.0, 0.0, 1.0, 3.0)]
    return certs + [_refutation_certificate(), _structure_certificate()]


def _refutation_certificate() -> Certificate:
    """M(t, 2/3) = -t^3/18 + O(t^4): the t^0..t^3 coefficients, exactly."""
    q = Fraction(2, 3)
    k0, k1, k2 = _kernel_pieces(BivariatePolynomial.x(), BivariatePolynomial.y())
    coeffs = [exp_taylor_coefficient(k0 - q * k1 + q * q * k2, n) for n in range(4)]
    c = Checks()
    c.check("kernel_taylor_coefficients", coeffs[:3] == [0, 0, 0] and coeffs[3] < 0,
            "kernel negative near t = 0", coeffs)
    return c.certificate(
        "bw.cm-refuted.q=2/3",
        "complete monotonicity of F_q fails at q = 2/3: M(t, 2/3) = -t^3/18 + O(t^4) "
        "is negative near t = 0 (Bernstein's theorem, uniqueness of the Laplace transform)",
        {"q": q},
    )


def _structure_certificate() -> Certificate:
    """0 < s2 < s1 < 1 for every t > 0 from six series signs and the
    discriminant identity, as in the module docstring; a non-zero
    polynomial in (t, e) is a non-zero function of t, as e^t is
    transcendental over Q(t), so a non-negative series of it is positive
    for t > 0."""
    t, e = BivariatePolynomial.x(), BivariatePolynomial.y()
    k0, k1, k2 = _kernel_pieces(t, e)
    c = Checks()
    c.check("discriminant_identity", k1 * k1 - 4 * k0 * k2 == 4 * (e - 1) ** 2 * _d0(t, e), "discriminant identity")
    positive = {"d0": _d0(t, e), "g0": k0, "M(t,1)": k0 - k1 + k2, "g2": k2, "g1": k1, "2g2-g1": 2 * k2 - k1}
    for name, p in positive.items():
        c.check(f"positive_{name}", bool(p) and exp_series_nonnegative(p), f"{name} > 0")
    return c.certificate(
        "bw.quadratic.structure",
        "kernel quadratic roots satisfy 0 < s2 < s1 < 1 for every t > 0 (d0, g0, M(t, 1), g2, g1 "
        "and 2 g2 - g1 are positive series in t); "
        "discriminant equals 4 (e^t - 1)^2 ((e^t - 1)^2 - t^2 e^t) exactly",
    )
