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
monotonicity: finite-difference sign tests up to fourth order plus a
kernel-sign scan.  These verdicts are explicitly evidence, not proof; the
exact-arithmetic burden lives in :mod:`leraykit.emcert`.  The structure
certificate checks the discriminant identity exactly, as polynomials in
(t, e), and the root ordering and residual on sampled doubles.

The cancelling pieces h0 = 2 - 2e + t + te (g0 = e h0), h1 = 1 - e + te
(g1 = 2 (e - 1) h1) and d0 = (e - 1)^2 - t^2 e (the discriminant is
4 (e - 1)^2 d0; d0 > 0 as cosh t > 1 + t^2/2), with e = e^t, are each
written once in (t, e).  They are evaluated at e = e^t, at e = e^-t in
the large-t roots, and below t = 2, where they cancel, through Taylor
tables read off the same formulas exactly
(:func:`~leraykit.exactpoly.exp_taylor_coefficient`) and rounded once;
e^t - 1 is formed by expm1.  The kernel helpers take finite t > 0 in
doubles and raise DomainError where a double cannot hold the result
(e^t overflowing, a value past the double range, 1 - s1 or t (e^t - 1)
rounding to 0).

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
from typing import List, Optional, Sequence, Tuple

# unused here, but perfbench/spans.py rebinds this module's `mpmath`
import mpmath

from ._quadrature import quad
from .certificates import Certificate
from .errors import CrossCheckFailure, DomainError, ToleranceUnreachable
from .exactpoly import BivariatePolynomial, exp_taylor_coefficient
from .specialfn import DEFAULT_TOL, BoundedFloat, _require_finite, theta

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


def _finite(helper: str, t, value):
    """value, unless a double cannot hold it."""
    if not math.isfinite(value):
        raise DomainError(f"{helper}: the result is not finite in doubles at t = {t}")
    return value


# The cancelling kernel pieces in (t, e), see the module docstring; at
# e = e^-t, d0 is d0(t, e^t) e^-2t.
def _h0(t, e):
    return 2 - 2 * e + t + t * e


def _h1(t, e):
    return 1 - e + t * e


def _d0(t, e):
    return (e - 1) * (e - 1) - t * t * e


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
    if t < _SERIES_CUTOFF:
        return _finite("m_kernel", t, g0(t) - g1(t) * q + g2(t) * q * q)
    e = _exp(t)
    a, b, c = _regrouped_coeffs(t, q)
    return _finite("m_kernel", t, (a * e + b) * e + c)


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
        bound = scale * math.exp(-s * T) * (T / s + 1 / s ** 2)
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
        disagreement = abs(out.value - quad_val)
        if disagreement > 10 * DEFAULT_TOL + tail + out.error_radius:
            raise CrossCheckFailure(
                f"f_q({x}, {q}): theta route {float(out.value)} vs quadrature "
                f"{float(quad_val)} differ by {float(disagreement):.3e}"
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
    acc: Optional[BoundedFloat] = None
    for i in range(order + 1):
        term = values[order - i] * ((-1) ** i * math.comb(order, i))
        acc = term if acc is None else acc + term
    assert acc is not None
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
            record = {"x": x, "order": m, "value": float(signed.value)}
            if signed.separated_below(0):
                fd_violations.append(record)
            else:
                fd_inconclusive.append(record)

    kernel_min_t = None
    kernel_min = math.inf
    for t in _KERNEL_T_GRID:
        mval = m_kernel(t, q)
        if mval < kernel_min:
            kernel_min, kernel_min_t = mval, t
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
    """The standard evidence battery: supported q values from the closed
    intervals, the refuted preferred-measure value q = 2/3 (wrapped so
    that finding the refutation counts as the suite succeeding), and
    structural checks on the quadratic (root ordering on sampled doubles,
    the exact discriminant identity)."""
    certs = [cm_numeric_certificate(q) for q in (-2.0, 0.0, 1.0, 3.0)]
    raw = cm_numeric_certificate(2.0 / 3.0)
    certs.append(
        Certificate(
            claim_id="bw.cm-refuted.q=2/3",
            method="bounded-numeric",
            verdict="verified" if raw.verdict == "refutes" else "failed",
            anchor="complete monotonicity of F_q fails at q = 2/3 "
            "(kernel goes negative; witness t recorded)",
            inputs=raw.inputs,
            witnesses=raw.witnesses,
        )
    )

    certs.append(_structure_certificate())
    return certs


def _structure_certificate() -> Certificate:
    """0 < s2 < s1 < 1 and the residual of the roots on a sampled t grid,
    and the discriminant identity exactly."""
    t_grid = [1e-4, 1e-2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
    roots = [quadratic_roots(t) for t in t_grid]
    residual_max = max(
        abs(m_kernel(t, s)) / (g0(t) + abs(g1(t)) + g2(t)) for t, pair in zip(t_grid, roots) for s in pair
    )
    # g1^2 - 4 g0 g2 = 4 (e - 1)^2 d0 as polynomials in (t, e), e = e^t
    t, e = BivariatePolynomial.x(), BivariatePolynomial.y()
    k0, k1, k2 = e * _h0(t, e), 2 * (e - 1) * _h1(t, e), t * (e - 1) ** 2
    disc_ok = k1 * k1 - 4 * k0 * k2 == 4 * (e - 1) ** 2 * _d0(t, e)
    checks = {
        "root ordering": all(0 < s2 < s1 < 1 for s1, s2 in roots),
        "root residual": residual_max < 1e-8,
        "discriminant identity": disc_ok,
    }
    failures = [label for label, ok in checks.items() if not ok]
    return Certificate(
        claim_id="bw.quadratic.structure",
        method="bounded-numeric",
        verdict="failed" if failures else "verified",
        anchor="kernel quadratic roots satisfy 0 < s2 < s1 < 1; "
        "discriminant equals 4 (e^t - 1)^2 ((e^t - 1)^2 - t^2 e^t) exactly",
        inputs={"t_grid": t_grid, **({"failures": failures} if failures else {})},
        witnesses={
            "max_root_residual": residual_max,
            "discriminant_identity": disc_ok,
            "s2_small_t_limit": S2_SMALL_T_LIMIT,
            # evidence only: s2 monotonicity is conjectural, not asserted
            "s2_grid": [(t, s2) for t, (_, s2) in zip(t_grid, roots)],
        },
    )
