"""High-precision special functions with guaranteed absolute error bounds.

Everything here returns a :class:`BoundedFloat`: a closed interval that
provably encloses the represented real number.  Its width has two
sources:

* analytic truncation remainders, which are the package's own: each
  asymptotic series is cut after n Bernoulli terms and widened by the
  first omitted term, which bounds the remainder on the positive axis
  for every n because each summand function is completely monotone
  there.  n is the fewest terms, at most _EM_TERMS = 10, whose first
  omitted term c_{n+1} z^-(m+2n+2) lies below 2^-prec z^-(m+1) (m = -1
  for log-Gamma, m >= 0 for psi^(m)), i.e. below the rounding of the
  series' z^-(m+1) term, so large arguments sum fewer terms: at 120
  bits log-Gamma sums all 10 terms below z ~ 81, 5 from z ~ 1089 and 1
  beyond z ~ 1.5e11.  An argument below the raising threshold is raised
  to z >= 16, where the remainder after all 10 terms, |c_11| 16^-21 ~ 7e-25
  for log-Gamma, floors the radius at every precision: more bits do not
  narrow it.  phi(3, 0.5) has radius 1.14e-23 and log_gamma(1.5) 3.6e-25
  at 120, 200 and 400 bits alike; and
* rounding, bounded by rounding every operation outward (directed
  rounding), so no operation count is kept anywhere.  A BoundedFloat
  holds the raw (a, b) endpoint pair of ``mpmath.libmp``, and it and the
  kernels (log-Gamma, digamma, the polygamma series and their Bernoulli
  tails) compute with that library's ``mpi_*`` primitives at the working
  precision: the functions behind ``mpmath.iv``'s operators, so every
  endpoint is the one ``iv`` gives, without its per-operation dispatch.
  No other module touches a raw pair.

One working precision, set by LERAYKIT_PRECISION_BITS or
:func:`set_precision_bits`, drives the interval arithmetic and
``mpmath.mp``.  No function here takes a tolerance: each returns its certified enclosure
at the working precision, whatever its radius, and a caller that needs a
bound on the radius checks it (the command line rejects a radius above
``--tolerance``).  More bits narrow only the rounding part of a radius.

The polygamma functions psi^(m) for m >= 1 are evaluated from their series

    psi^(m)(r) = (-1)^(m+1) m! * sum_{j>=1} (r+j-1)^-(m+1),

summed directly up to an argument-raising threshold and finished with the
Euler-Maclaurin tail whose remainder is dominated by the first omitted
Bernoulli term.  The digamma (m = 0) and log-Gamma use the analogous
recurrence-plus-asymptotic-expansion scheme.

Composite functions:

    theta(r, q) = r^2 psi'(r+1-q)
    phi(r, q)   = 2r psi'(r+1-q) + r^2 psi''(r+1-q)
                = sum_{j>=1} 2r (j-q) / (r+j-q)^3

phi is additionally cross-checked on every call against a double-precision
partial sum of its series with a two-sided integral bracket on the
discarded tail.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, fsum, inf, isfinite, log2, nextafter, perm
from typing import Tuple, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_float,
    from_int,
    mpf_le,
    mpf_lt,
    mpf_neg,
    mpf_sign,
    mpi_abs,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mid,
    mpi_mul,
    mpi_neg,
    mpi_sqrt,
    mpi_sub,
    round_ceiling,
    round_floor,
    to_float,
)
from mpmath.libmp.libmpi import mpi_pi

from .errors import CrossCheckFailure, DomainError

# ----------------------------------------------------------------------
# working precision
# ----------------------------------------------------------------------
_MIN_PREC = 80
DEFAULT_PRECISION_BITS = 120
DEFAULT_TOL = 1e-12  # the CLI's default --tolerance and bwcert.f_q's fixed quadrature target

_env = os.environ.get("LERAYKIT_PRECISION_BITS")
_PREC = max(_MIN_PREC, int(_env)) if _env else DEFAULT_PRECISION_BITS
mpmath.mp.prec = _PREC


def precision_bits() -> int:
    return _PREC


def set_precision_bits(bits: int) -> None:
    """Set the global working precision (significand bits, >= 80) of the
    point and the interval arithmetic alike."""
    global _PREC
    if bits < _MIN_PREC:
        raise ValueError(f"precision must be at least {_MIN_PREC} bits")
    _PREC = int(bits)
    mpmath.mp.prec = _PREC


Scalar = Union[int, float, Fraction, mpf, "BoundedFloat"]

# raw intervals of exact constants, the same at every precision
_RAW_ZERO, _RAW_ONE, _RAW_TWO, _RAW_HALF = ((v, v) for v in map(from_float, (0.0, 1.0, 2.0, 0.5)))


def _raw(x: Scalar) -> tuple:
    """The narrowest raw interval enclosing x at the working precision, as
    ``mpmath.iv`` converts it: an int or float rounded outward, an mpf as
    it is, NaN as the whole line, a Fraction as numerator / denominator."""
    if isinstance(x, BoundedFloat):
        return x.endpoints
    if isinstance(x, Fraction):
        return mpi_div(_raw(x.numerator), _raw(x.denominator), _PREC)
    if isinstance(x, int):
        return from_int(x, _PREC, round_floor), from_int(x, _PREC, round_ceiling)
    # a double is exact at the working precision (at least 80 bits)
    a = from_float(x) if isinstance(x, float) else x._mpf_
    return (fninf, finf) if a == fnan else (a, a)


def _require_finite(name: str, value: Scalar) -> None:
    # inf and nan would otherwise reach int(), Fraction() or overflow in
    # log-Gamma, and None would raise a bare TypeError.  Only floats take
    # math.isfinite: on an int or mpf beyond double range it raises or reads
    # inf although the value is finite.
    if isinstance(value, BoundedFloat):
        value = value.value
    finite = isfinite(value) if isinstance(value, float) else value is not None and mpmath.isfinite(value)
    if not finite:
        raise DomainError(f"{name} must be finite (got {value})")


# ----------------------------------------------------------------------
# BoundedFloat
# ----------------------------------------------------------------------
class BoundedFloat:
    """A real number enclosed by a closed interval.

    The represented real lies in [lower, upper].  ``value`` is the
    interval's midpoint and ``error_radius`` its half-width rounded up, so
    the real also lies in [value - error_radius, value + error_radius];
    both are rounded at the working precision in force when read.
    ``endpoints`` is the raw (a, b) pair of ``mpmath.libmp``, and every
    operation is one outward-rounded ``mpi_*`` call on it at the working
    precision, giving the endpoints ``mpmath.iv`` gives.
    """

    __slots__ = ("endpoints",)

    def __init__(self, value: Scalar, error_radius: Scalar) -> None:
        if error_radius < 0:
            raise ValueError("error radius must be non-negative")
        radius = _raw(error_radius)[1]
        self.endpoints = mpi_add(_raw(value), (mpf_neg(radius, _PREC, round_floor), radius), _PREC)

    # -- constructors ---------------------------------------------------
    @classmethod
    def _of(cls, endpoints: tuple) -> "BoundedFloat":
        out = object.__new__(cls)
        out.endpoints = endpoints
        return out

    @classmethod
    def exact(cls, x: Scalar) -> "BoundedFloat":
        """x itself, widened only when the working precision cannot hold it
        (a non-dyadic Fraction, say)."""
        return cls._of(_raw(x))

    # -- interval accessors ---------------------------------------------
    @property
    def value(self) -> mpf:
        return mpf(mpi_mid(self.endpoints, _PREC))

    @property
    def error_radius(self) -> mpf:
        mid = mpi_mid(self.endpoints, _PREC)
        return mpf(mpi_abs(mpi_sub(self.endpoints, (mid, mid), _PREC), _PREC)[1], rounding="c")

    @property
    def lower(self) -> mpf:
        return mpf(self.endpoints[0], rounding="f")

    @property
    def upper(self) -> mpf:
        return mpf(self.endpoints[1], rounding="c")

    def contains(self, x: Scalar) -> bool:
        a, b = _raw(x)
        return mpf_le(self.endpoints[0], a) and mpf_le(b, self.endpoints[1])

    def separated_below(self, c: Scalar) -> bool:
        """Certified strict inequality (self < c)."""
        return mpf_lt(self.endpoints[1], _raw(c)[0])

    def separated_above(self, c: Scalar) -> bool:
        """Certified strict inequality (self > c)."""
        return mpf_lt(_raw(c)[1], self.endpoints[0])

    def __float__(self) -> float:
        return float(self.value)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(mpi_add(self.endpoints, _raw(other), _PREC))

    __radd__ = __add__

    def __neg__(self) -> "BoundedFloat":
        return BoundedFloat._of(mpi_neg(self.endpoints, _PREC))

    def __sub__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(mpi_sub(self.endpoints, _raw(other), _PREC))

    def __rsub__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(mpi_sub(_raw(other), self.endpoints, _PREC))

    def __mul__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(mpi_mul(self.endpoints, _raw(other), _PREC))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BoundedFloat":
        divisor = _raw(other)
        if mpf_sign(divisor[0]) <= 0 <= mpf_sign(divisor[1]):
            raise ZeroDivisionError("divisor interval contains zero")
        return BoundedFloat._of(mpi_div(self.endpoints, divisor, _PREC))

    def sqrt(self) -> "BoundedFloat":
        if self.lower < 0:
            raise DomainError("sqrt of an interval reaching below zero")
        return BoundedFloat._of(mpi_sqrt(self.endpoints, _PREC))

    def exp(self) -> "BoundedFloat":
        return BoundedFloat._of(mpi_exp(self.endpoints, _PREC))

    def log(self) -> "BoundedFloat":
        if not self.lower > 0:
            raise DomainError("log of an interval reaching zero or below")
        return BoundedFloat._of(mpi_log(self.endpoints, _PREC))

    def __repr__(self) -> str:
        return f"BoundedFloat({mpmath.nstr(self.value, 17)} ± {mpmath.nstr(self.error_radius, 3)})"


# ----------------------------------------------------------------------
# Bernoulli numbers B_2..B_28 (exact)
# ----------------------------------------------------------------------
_BERNOULLI: dict[int, Fraction] = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(-23749461029, 870),
}

_RAISE_TO = 16          # argument-raising threshold for the asymptotic tails
_EM_TERMS = 10          # most Bernoulli terms summed; remainder bounded by the next


def _bernoulli_coefficient(m: int, j: int) -> Fraction:
    b = _BERNOULLI[2 * j]
    if m < 0:
        return b / ((2 * j) * (2 * j - 1))
    # rising factorial (m+1)(m+2)...(m+2j-1) over (2j)!
    return b * Fraction(perm(m + 2 * j - 1, 2 * j - 1), factorial(2 * j))


@lru_cache(maxsize=64)
def _bernoulli_series(m: int, prec: int) -> tuple:
    """(coefficients, remainders, switch points) at `prec` bits.

    coefficients[j-1] is the raw interval enclosing c_j for
    j = 1 .. _EM_TERMS, where c_j z^-(m+2j) is the j-th Bernoulli term of
    the Stirling series of log Gamma(z) (m = -1) or of the Euler-Maclaurin
    expansion of sum_{i>=0} (z+i)^-(m+1) (m >= 0).  remainders[n-1] is the
    raw [-|c_{n+1}|, |c_{n+1}|], the remainder after n terms in units of
    z^-(m+2n+2).  switches[n-1] is the float
    (|c_{n+1}| 2^prec)^(1/(2n+1)) for n < _EM_TERMS: above it the first
    omitted term is below 2^-prec z^-(m+1), so n terms suffice.
    """
    coefficients, remainders, switches = [], [], []
    for n in range(1, _EM_TERMS + 1):
        coefficients.append(_raw(_bernoulli_coefficient(m, n)))
        omitted = abs(_bernoulli_coefficient(m, n + 1))
        bound = _raw(omitted)[1]
        remainders.append((mpf_neg(bound), bound))
        log2_switch = (log2(omitted.numerator) - log2(omitted.denominator) + prec) / (2 * n + 1)
        switches.append(2.0 ** log2_switch if log2_switch < 1000 else inf)
    return tuple(coefficients), tuple(remainders), tuple(switches[:-1])


@lru_cache(maxsize=8)
def _half_log_2pi(prec: int) -> tuple:
    return mpi_div(mpi_log(mpi_mul(_RAW_TWO, mpi_pi(prec), prec), prec), _RAW_TWO, prec)


@lru_cache(maxsize=8)
def _log_gamma_floor(prec: int) -> float:
    """The truncation part of a `log_gamma` radius at `prec` bits, whatever
    the argument: `_log_gamma` raises its argument to z >= _RAISE_TO and
    sums at most _EM_TERMS Stirling terms, and the remainder interval
    [-|c_11|, |c_11|] of `_bernoulli_series(-1, prec)` enters with the
    factor z^-(2 _EM_TERMS + 1) <= 16^-21, about 7e-25 at every precision.
    (With fewer terms the remainder is below 2^-prec and counts as
    rounding.)"""
    _, remainders, _ = _bernoulli_series(-1, prec)
    return to_float(remainders[-1][1]) * float(_RAISE_TO) ** -(2 * _EM_TERMS + 1)


def _power(u, e: int):
    """u^e for e >= 1 by products: faster than an integer power."""
    out = u
    for _ in range(e - 1):
        out = mpi_mul(out, u, _PREC)
    return out


def _bernoulli_terms(z, u, m: int):
    """sum_{j=1}^{n} c_j z^-(m+2j) plus the remainder after n terms, for
    z > 0 and u = 1/z (raw intervals).

    n is the fewest terms, at most _EM_TERMS, whose first omitted term
    c_{n+1} z^-(m+2n+2) is below 2^-prec z^-(m+1), which holds once
    z > (|c_{n+1}| 2^prec)^(1/(2n+1)).  For z > 0 the remainder after any
    n terms is bounded by the first omitted term, so the enclosure holds
    whichever n the float comparison picks.  That term enters Horner's
    scheme as the interval [-|c_{n+1}|, |c_{n+1}|], so the sum and its
    remainder come out in one pass.
    """
    prec = _PREC
    coefficients, remainders, switches = _bernoulli_series(m, prec)
    zf = to_float(z[0])
    n = next((n for n, switch in enumerate(switches, 1) if zf > switch), _EM_TERMS)
    w = mpi_mul(u, u, prec)
    acc = remainders[n - 1]
    for j in range(n - 1, -1, -1):
        acc = mpi_add(mpi_mul(acc, w, prec), coefficients[j], prec)
    return mpi_mul(acc, _power(u, m + 2), prec)


def _raise_count(x) -> int:
    """Recurrence steps that lift the raw interval x to at least the
    raising threshold."""
    lo = to_float(x[0])
    return 0 if lo >= _RAISE_TO else ceil(_RAISE_TO - lo)


def _positive_argument(fn: str, x: Scalar) -> BoundedFloat:
    """x, after the finiteness and sign checks."""
    _require_finite("x", x)
    xv = BoundedFloat.exact(x)
    if not xv.separated_above(0):
        raise DomainError(f"{fn} requires a positive argument")
    return xv


def polygamma(m: int, x: Scalar) -> BoundedFloat:
    """psi^(m)(x) for x > 0 with a certified error radius."""
    xv = _positive_argument("polygamma", x).endpoints
    m = int(m)
    if m < 0:
        raise DomainError("polygamma order must be non-negative")
    return BoundedFloat._of(_digamma(xv) if m == 0 else _polygamma_series(m, xv))


def _polygamma_series(m: int, x):
    """Direct series head + Euler-Maclaurin tail for m >= 1, on the raw
    interval x > 0."""
    prec = _PREC
    z, head = x, _RAW_ZERO
    for _ in range(_raise_count(x)):
        head = mpi_add(head, _power(mpi_div(_RAW_ONE, z, prec), m + 1), prec)
        z = mpi_add(z, _RAW_ONE, prec)
    u = mpi_div(_RAW_ONE, z, prec)
    lead = _power(u, m)
    tail = mpi_add(
        mpi_div(lead, _raw(m), prec),
        mpi_mul(_RAW_HALF, mpi_mul(lead, u, prec), prec),
        prec,
    )
    tail = mpi_add(tail, _bernoulli_terms(z, u, m), prec)
    total = mpi_mul(mpi_add(head, tail, prec), _raw(factorial(m)), prec)
    return mpi_neg(total, prec) if m % 2 == 0 else total


def _digamma(x):
    """Recurrence to x >= threshold, then the asymptotic expansion whose
    remainder is bounded by the first omitted Bernoulli term (raw
    intervals)."""
    prec = _PREC
    z, head = x, _RAW_ZERO
    for _ in range(_raise_count(x)):
        head = mpi_add(head, mpi_div(_RAW_ONE, z, prec), prec)
        z = mpi_add(z, _RAW_ONE, prec)
    u = mpi_div(_RAW_ONE, z, prec)
    out = mpi_sub(mpi_log(z, prec), mpi_mul(_RAW_HALF, u, prec), prec)
    out = mpi_sub(out, _bernoulli_terms(z, u, 0), prec)
    return mpi_sub(out, head, prec)


def log_gamma(x: Scalar) -> BoundedFloat:
    """log Gamma(x) for x > 0 via argument raising and the Stirling series
    (remainder bounded by the first omitted term)."""
    return _log_gamma(_positive_argument("log_gamma", x))


def _log_gamma(x: BoundedFloat) -> BoundedFloat:
    """log Gamma of an interval the caller has proven positive, without
    `log_gamma`'s argument checks."""
    prec, x = _PREC, x.endpoints
    n_head = _raise_count(x)
    z, head = x, _RAW_ONE
    for _ in range(n_head):
        head = mpi_mul(head, z, prec)
        z = mpi_add(z, _RAW_ONE, prec)
    out = mpi_mul(mpi_sub(z, _RAW_HALF, prec), mpi_log(z, prec), prec)
    out = mpi_add(mpi_sub(out, z, prec), _half_log_2pi(prec), prec)
    out = mpi_add(out, _bernoulli_terms(z, mpi_div(_RAW_ONE, z, prec), -1), prec)
    if n_head:
        out = mpi_sub(out, mpi_log(head, prec), prec)
    return BoundedFloat._of(out)


# ----------------------------------------------------------------------
# the composite functions
# ----------------------------------------------------------------------
_NEAR_THRESHOLD = 1e-6  # comparisons with 1 are open-interval claims in r > q


def _shifted_argument(fn: str, r: Scalar, q: Scalar):
    """r, q and r + 1 - q as raw intervals, after the finiteness and domain
    checks."""
    _require_finite("r", r)
    _require_finite("q", q)
    prec, rv, qv = _PREC, _raw(r), _raw(q)
    x = mpi_sub(mpi_add(rv, _RAW_ONE, prec), qv, prec)
    if not mpf_sign(x[0]) > 0:
        raise DomainError(
            f"{fn} requires r + 1 - q > 0, which cannot be certified at {prec}-bit "
            f"precision: r + 1 - q lies in [{to_float(x[0]):.6g}, {to_float(x[1]):.6g}]"
        )
    return rv, qv, x


def theta(r: Scalar, q: Scalar) -> BoundedFloat:
    """theta(r, q) = r^2 psi'(r + 1 - q); its r-derivative is phi(r, q)."""
    rv, _, x = _shifted_argument("theta", r, q)
    r_squared = mpi_mul(rv, rv, _PREC)
    return BoundedFloat._of(mpi_mul(_polygamma_series(1, x), r_squared, _PREC))


def phi(r: Scalar, q: Scalar) -> BoundedFloat:
    """phi(r, q) = 2r psi'(r+1-q) + r^2 psi''(r+1-q).

    Equals sum_{j>=1} 2r(j-q)/(r+j-q)^3.  Inputs with r within 1e-6 of q
    are rejected: every comparison against 1 downstream is an open-interval
    claim on r > q, and no behavior is specified at the endpoint.  Every
    value is cross-checked against the double-precision series bracket of
    `phi_series_partial`.
    """
    rv, qv, x = _shifted_argument("phi", r, q)
    prec = _PREC
    if mpf_lt(mpi_abs(mpi_sub(rv, qv, prec), prec)[1], from_float(_NEAR_THRESHOLD)):
        raise DomainError("phi rejected: r within 1e-6 of q (endpoint not specified)")
    value = mpi_add(
        mpi_mul(_polygamma_series(1, x), mpi_mul(_RAW_TWO, rv, prec), prec),
        mpi_mul(_polygamma_series(2, x), mpi_mul(rv, rv, prec), prec),
        prec,
    )
    out = BoundedFloat._of(value)
    _phi_series_check(r, q, out)
    return out


_PHI_SERIES_TERMS = 300


def phi_series_partial(r: Scalar, q: Scalar) -> Tuple[float, float, float]:
    """Partial sum of the first _PHI_SERIES_TERMS terms of the phi series
    plus a two-sided bracket for its tail.

    Returns (partial, tail_lo, tail_hi) in double precision: the true value
    at the doubles nearest r and q lies in [partial + tail_lo,
    partial + tail_hi].  Each term is a product of ratios of moderate size,
    so nothing overflows even for r near 1e300.  The bracket is padded by
    2 * terms * 2^-53 times the summed magnitudes (plus terms * 2^-1070
    for subnormal results), which bounds every rounding in the sum.  Used
    as the independent summation route when cross-checking `phi`.
    """
    rf, qf = float(r), float(q)
    if not (isfinite(rf) and isfinite(qf)):
        raise DomainError("phi series check needs r and q within double range")
    try:
        x = fsum((rf, 1.0, -qf))  # r + 1 - q rounded once, so no cancellation below
    except OverflowError:
        raise DomainError("phi series check needs r + 1 - q within double range") from None
    if not x > 0:
        raise DomainError("phi series requires r + 1 - q > 0")
    # term j is 2r (j - q) / d^3 with d = x + j - 1 = r + j - q > 0
    terms = _PHI_SERIES_TERMS
    partial = magnitude = 0.0
    for j in range(1, terms + 1):
        d = x + (j - 1)
        t = 2 * (rf / d) * ((j - qf) / d) / d
        partial += t
        magnitude += abs(t)
    # tail = sum_{j>N} [ 2r/d_j^2 - 2r^2/d_j^3 ]; both summand families are
    # monotone in j, so integral comparison brackets each: with
    # rho(a) = r / (x + a - 1), the first lies between 2 rho(N+1) and
    # 2 rho(N), the second between -rho(N)^2 and -rho(N+1)^2
    rho_n, rho_n1 = rf / (x + (terms - 1)), rf / (x + terms)
    lo1, hi1 = sorted((2 * rho_n1, 2 * rho_n))
    lo2, hi2 = -rho_n * rho_n, -rho_n1 * rho_n1
    magnitude += 2 * abs(rho_n) + rho_n * rho_n
    pad = 2 * terms * 2.0 ** -53 * magnitude + terms * 2.0 ** -1070
    return partial, lo1 + lo2 - pad, hi1 + hi2 + pad


def _phi_series_check(r: Scalar, q: Scalar, out: BoundedFloat) -> None:
    partial, tail_lo, tail_hi = phi_series_partial(r, q)
    lo, hi = partial + tail_lo, partial + tail_hi
    if out.upper < lo or out.lower > hi:
        raise CrossCheckFailure(
            f"phi({float(r)}, {float(q)}): polygamma route [{float(out.lower)}, "
            f"{float(out.upper)}] outside series bracket [{lo}, {hi}]"
        )


# ----------------------------------------------------------------------
# closed-form sandwich bounds, each evaluated exactly at the double
# arguments and rounded outward
# ----------------------------------------------------------------------
def _outward(lower: Fraction, upper: Fraction) -> Tuple[float, float]:
    """Doubles lo <= lower and hi >= upper: each exact bound rounded to
    nearest, then moved one ulp outward unless that was exact."""
    try:
        lo, hi = float(lower), float(upper)
    except OverflowError:
        raise DomainError("sandwich bound outside double range") from None
    lo = nextafter(lo, -inf) if lo > lower else lo
    hi = nextafter(hi, inf) if hi < upper else hi
    if not (isfinite(lo) and isfinite(hi)):
        raise DomainError("sandwich bound outside double range")
    return lo, hi


def polygamma_sandwich(m: int, x: float) -> Tuple[float, float]:
    """Two-sided closed-form bounds on (-1)^(m+1) psi^(m)(x) for x > 0:

        (m-1)!/x^m + m!/(2 x^(m+1))  <  (-1)^(m+1) psi^(m)(x)
                                     <  (m-1)!/x^m + m!/x^(m+1)
    """
    _require_finite("x", x)
    if m < 1:
        raise DomainError("sandwich bounds require order m >= 1")
    if not x > 0:
        raise DomainError("sandwich bounds require x > 0")
    xf = Fraction(x)
    base = factorial(m - 1) / xf ** m
    corr = factorial(m) / xf ** (m + 1)
    return _outward(base + corr / 2, base + corr)


def phi_sandwich(r: float, q: float) -> Tuple[float, float]:
    """Rational two-sided bounds on phi(r, q), valid for r > max(q-1, 0):

        (r^3 + (2-3q) r^2 + (3-5q+2q^2) r) / (r+1-q)^3  <  phi(r,q)
        phi(r,q)  <  (r^3 + (4-3q) r^2 + (4-6q+2q^2) r) / (r+1-q)^3
    """
    _require_finite("r", r)
    _require_finite("q", q)
    if not r > max(q - 1, 0.0):
        raise DomainError("phi sandwich requires r > max(q - 1, 0)")
    rf, qf = Fraction(r), Fraction(q)
    cube = (rf + 1 - qf) ** 3
    lower = rf * (rf * rf + (2 - 3 * qf) * rf + 3 - 5 * qf + 2 * qf * qf) / cube
    upper = rf * (rf * rf + (4 - 3 * qf) * rf + 4 - 6 * qf + 2 * qf * qf) / cube
    return _outward(lower, upper)
