"""High-precision special functions with guaranteed absolute error bounds.

Everything here returns a :class:`BoundedFloat`: an mpmath value at the
working precision together with an error radius that provably encloses the
represented real number.  The radii combine

* analytic truncation remainders (bounded by the first omitted term of the
  relevant asymptotic series, valid on the positive axis because each
  summand function is completely monotone there), and
* a conservative rounding allowance proportional to the number of floating
  operations performed.

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

phi is additionally cross-checked on every call against a direct partial
sum of its series with a two-sided integral bracket on the discarded tail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite
from typing import Tuple, Union

import mpmath
from mpmath import mpf

from .errors import CrossCheckFailure, DomainError, ToleranceUnreachable

# ----------------------------------------------------------------------
# working precision
# ----------------------------------------------------------------------
_MIN_PREC = 80
DEFAULT_PRECISION_BITS = 120
DEFAULT_TOL = 1e-12

_env = os.environ.get("LERAYKIT_PRECISION_BITS")
_PREC = max(_MIN_PREC, int(_env)) if _env else DEFAULT_PRECISION_BITS
mpmath.mp.prec = _PREC


def precision_bits() -> int:
    return _PREC


def set_precision_bits(bits: int) -> None:
    """Set the global working precision (significand bits, >= 80)."""
    global _PREC
    if bits < _MIN_PREC:
        raise ValueError(f"precision must be at least {_MIN_PREC} bits")
    _PREC = int(bits)
    mpmath.mp.prec = _PREC


def _slack(value: mpf, ops: int = 1) -> mpf:
    """Rounding allowance for `ops` operations ending in `value`.

    Nearest rounding at p bits has relative error 2^-p per operation; we
    inflate by a factor 4 and add an absolute epsilon to stay conservative
    near zero.
    """
    return abs(value) * ops * mpf(2) ** (2 - _PREC) + mpf(2) ** (-_PREC - 60)


Scalar = Union[int, float, Fraction, mpf]


def _to_mpf(x: Scalar) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def _require_finite(name: str, value: Scalar) -> None:
    # inf and nan would otherwise reach int(), Fraction() or overflow in
    # log-Gamma.  Only floats take math.isfinite: on an int or mpf beyond
    # double range it raises or reads inf although the value is finite.
    finite = isfinite(value) if isinstance(value, float) else mpmath.isfinite(value)
    if not finite:
        raise DomainError(f"{name} must be finite (got {value})")


# ----------------------------------------------------------------------
# BoundedFloat
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundedFloat:
    """A value together with a guaranteed absolute error radius.

    The represented real lies in [value - error_radius, value + error_radius].
    All arithmetic widens radii outward (never optimistically).
    """

    value: mpf
    error_radius: mpf

    def __post_init__(self) -> None:
        if self.error_radius < 0:
            raise ValueError("error radius must be non-negative")

    # -- constructors ---------------------------------------------------
    @classmethod
    def exact(cls, x: Scalar) -> "BoundedFloat":
        v = _to_mpf(x)
        # conversion of a non-dyadic Fraction rounds once
        rad = _slack(v) if isinstance(x, Fraction) and (x.denominator & (x.denominator - 1)) else mpf(0)
        return cls(v, rad)

    # -- interval accessors ---------------------------------------------
    @property
    def lower(self) -> mpf:
        return self.value - self.error_radius

    @property
    def upper(self) -> mpf:
        return self.value + self.error_radius

    def contains(self, x: Scalar) -> bool:
        xv = _to_mpf(x)
        return self.lower <= xv <= self.upper

    def separated_below(self, c: Scalar) -> bool:
        """Certified strict inequality (self < c)."""
        return self.upper < _to_mpf(c)

    def separated_above(self, c: Scalar) -> bool:
        """Certified strict inequality (self > c)."""
        return self.lower > _to_mpf(c)

    def __float__(self) -> float:
        return float(self.value)

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other) -> "BoundedFloat":
        if isinstance(other, BoundedFloat):
            return other
        return BoundedFloat.exact(other)

    def __add__(self, other) -> "BoundedFloat":
        o = self._coerce(other)
        v = self.value + o.value
        return BoundedFloat(v, self.error_radius + o.error_radius + _slack(v))

    __radd__ = __add__

    def __neg__(self) -> "BoundedFloat":
        return BoundedFloat(-self.value, self.error_radius)

    def __sub__(self, other) -> "BoundedFloat":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "BoundedFloat":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "BoundedFloat":
        o = self._coerce(other)
        v = self.value * o.value
        rad = (
            abs(self.value) * o.error_radius
            + abs(o.value) * self.error_radius
            + self.error_radius * o.error_radius
            + _slack(v)
        )
        return BoundedFloat(v, rad)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BoundedFloat":
        o = self._coerce(other)
        if abs(o.value) <= o.error_radius:
            raise ZeroDivisionError("divisor interval contains zero")
        v = self.value / o.value
        lo_d = abs(o.value) - o.error_radius
        rad = (abs(self.value) + self.error_radius) / lo_d - abs(v) + _slack(v, 4)
        return BoundedFloat(v, rad)

    def sqrt(self) -> "BoundedFloat":
        if self.lower < 0:
            raise DomainError("sqrt of an interval reaching below zero")
        v = mpmath.sqrt(self.value)
        hi = mpmath.sqrt(self.upper)
        lo = mpmath.sqrt(self.lower)
        return BoundedFloat(v, max(hi - v, v - lo) + _slack(v))

    def exp(self) -> "BoundedFloat":
        v = mpmath.exp(self.value)
        hi = mpmath.exp(self.upper)
        lo = mpmath.exp(self.lower)
        return BoundedFloat(v, max(hi - v, v - lo) + _slack(v, 4))

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
_EM_TERMS = 10          # Bernoulli terms used; remainder bounded by the next


def _rising(a: int, k: int) -> int:
    """Rising factorial a (a+1) ... (a+k-1)."""
    out = 1
    for i in range(k):
        out *= a + i
    return out


@dataclass(frozen=True)
class PolygammaQuery:
    """Order and (positive) argument addressing one polygamma value."""

    order: int
    argument: float

    def __post_init__(self) -> None:
        if self.order < 0:
            raise DomainError("polygamma order must be non-negative")
        if not self.argument > 0:
            raise DomainError("polygamma argument must be positive")


def _tail_sum_inverse_powers(z: mpf, m: int, em_terms: int) -> Tuple[mpf, mpf]:
    """(value, remainder bound) for sum_{i>=0} (z+i)^-(m+1) for large z.

    Euler-Maclaurin with `em_terms` Bernoulli corrections; the remainder of
    the expansion is bounded by the first omitted term because all
    derivatives of t |-> (z+t)^-(m+1) keep a constant sign on t >= 0.
    """
    s = m + 1
    inv = 1 / z
    total = z ** (-m) / m + z ** (-s) / 2
    zpow = z ** (-s)  # z^-(m+2j) built incrementally
    for j in range(1, em_terms + 1):
        zpow = zpow * inv * inv
        coeff = _BERNOULLI[2 * j] * Fraction(_rising(s, 2 * j - 1), factorial(2 * j))
        total += _to_mpf(coeff) * zpow * z  # zpow*z = z^-(m+2j)
    j = em_terms + 1
    rem_coeff = abs(_BERNOULLI[2 * j]) * Fraction(_rising(s, 2 * j - 1), factorial(2 * j))
    remainder = _to_mpf(rem_coeff) * z ** (-(m + 2 * j))
    return total, remainder


def polygamma(query: "PolygammaQuery | int", argument: Scalar | None = None, tol: float | None = DEFAULT_TOL) -> BoundedFloat:
    """psi^(m)(r) with a certified error radius.

    Accepts either a PolygammaQuery or (order, argument).  The returned
    radius is checked against `tol` when given; ToleranceUnreachable is
    raised if the working precision cannot honor it.
    """
    if isinstance(query, PolygammaQuery):
        m, r = query.order, _to_mpf(query.argument)
    else:
        m = int(query)
        if argument is None:
            raise TypeError("argument required when order is given directly")
        r = _to_mpf(argument)
    if not r > 0:
        raise DomainError("polygamma requires a positive argument")
    if m < 0:
        raise DomainError("polygamma order must be non-negative")

    if m == 0:
        bf = _digamma(r)
    else:
        bf = _polygamma_series(m, r)
    if tol is not None and bf.error_radius > tol:
        raise ToleranceUnreachable(
            f"requested tol={tol} below attainable radius {float(bf.error_radius):.3e} "
            f"at {_PREC}-bit precision"
        )
    return bf


def _polygamma_series(m: int, r: mpf) -> BoundedFloat:
    """Direct series head + Euler-Maclaurin tail for m >= 1."""
    n_head = max(0, int(mpmath.ceil(_RAISE_TO - r)))
    head = mpf(0)
    for i in range(n_head):
        head += (r + i) ** (-(m + 1))
    z = r + n_head
    tail, remainder = _tail_sum_inverse_powers(z, m, _EM_TERMS)
    total = head + tail
    mfact = factorial(m)
    value = mfact * total
    if m % 2 == 0:
        value = -value
    rad = mfact * (remainder + _slack(total, (n_head + _EM_TERMS + 8) * (m + 3)))
    return BoundedFloat(value, rad)


def _digamma(x: mpf) -> BoundedFloat:
    """Recurrence to x >= threshold, then the asymptotic expansion whose
    remainder is bounded by the first omitted Bernoulli term."""
    n_head = max(0, int(mpmath.ceil(_RAISE_TO - x)))
    head = mpf(0)
    for i in range(n_head):
        head += 1 / (x + i)
    z = x + n_head
    val = mpmath.ln(z) - 1 / (2 * z)
    zpow = mpf(1)
    inv2 = 1 / (z * z)
    for j in range(1, _EM_TERMS + 1):
        zpow *= inv2
        val -= _to_mpf(_BERNOULLI[2 * j] / (2 * j)) * zpow
    j = _EM_TERMS + 1
    remainder = _to_mpf(abs(_BERNOULLI[2 * j]) / (2 * j)) * z ** (-2 * j)
    value = val - head
    rad = remainder + _slack(val, _EM_TERMS + 8) + _slack(head, n_head + 4)
    return BoundedFloat(value, rad)


def log_gamma(x: Scalar, tol: float | None = None) -> BoundedFloat:
    """log Gamma(x) for x > 0 via argument raising and the Stirling series
    (remainder bounded by the first omitted term)."""
    xv = _to_mpf(x)
    if not xv > 0:
        raise DomainError("log_gamma requires a positive argument")
    n_head = max(0, int(mpmath.ceil(_RAISE_TO - xv)))
    head = mpf(0)
    for i in range(n_head):
        head += mpmath.ln(xv + i)
    z = xv + n_head
    val = (z - mpf(1) / 2) * mpmath.ln(z) - z + mpmath.ln(2 * mpmath.pi) / 2
    zpow = 1 / z
    inv2 = 1 / (z * z)
    for j in range(1, _EM_TERMS + 1):
        coeff = _BERNOULLI[2 * j] / Fraction((2 * j) * (2 * j - 1))
        val += _to_mpf(coeff) * zpow
        zpow *= inv2
    j = _EM_TERMS + 1
    remainder = _to_mpf(abs(_BERNOULLI[2 * j]) / Fraction((2 * j) * (2 * j - 1))) * z ** (-(2 * j - 1))
    value = val - head
    rad = remainder + _slack(val, _EM_TERMS + 10) + _slack(head, n_head + 4)
    bf = BoundedFloat(value, rad)
    if tol is not None and bf.error_radius > tol:
        raise ToleranceUnreachable(f"log_gamma radius {float(bf.error_radius):.3e} exceeds tol={tol}")
    return bf


# ----------------------------------------------------------------------
# the composite functions
# ----------------------------------------------------------------------
_NEAR_THRESHOLD = 1e-6  # comparisons with 1 are open-interval claims in r > q


def theta(r: Scalar, q: Scalar, tol: float = DEFAULT_TOL) -> BoundedFloat:
    """theta(r, q) = r^2 psi'(r + 1 - q); its r-derivative is phi(r, q)."""
    _require_finite("r", r)
    _require_finite("q", q)
    rv, qv = _to_mpf(r), _to_mpf(q)
    x = rv + 1 - qv
    if not x > 0:
        raise DomainError(f"theta requires r + 1 - q > 0 (got {float(x)})")
    if rv == 0:
        return BoundedFloat(mpf(0), mpf(0))
    psi1 = polygamma(1, x, tol=None)
    out = psi1 * (rv * rv)
    if out.error_radius > tol:
        raise ToleranceUnreachable(f"theta radius {float(out.error_radius):.3e} exceeds tol={tol}")
    return out


def phi(r: Scalar, q: Scalar, tol: float = DEFAULT_TOL, cross_check: bool = True) -> BoundedFloat:
    """phi(r, q) = 2r psi'(r+1-q) + r^2 psi''(r+1-q).

    Equals sum_{j>=1} 2r(j-q)/(r+j-q)^3.  Inputs with r within 1e-6 of q
    are rejected: every comparison against 1 downstream is an open-interval
    claim on r > q, and no behavior is specified at the endpoint.
    """
    _require_finite("r", r)
    _require_finite("q", q)
    rv, qv = _to_mpf(r), _to_mpf(q)
    x = rv + 1 - qv
    if not x > 0:
        raise DomainError(f"phi requires r + 1 - q > 0 (got {float(x)})")
    if abs(rv - qv) < _NEAR_THRESHOLD:
        raise DomainError("phi rejected: r within 1e-6 of q (endpoint not specified)")
    psi1 = polygamma(1, x, tol=None)
    psi2 = polygamma(2, x, tol=None)
    out = psi1 * (2 * rv) + psi2 * (rv * rv)
    if out.error_radius > tol:
        raise ToleranceUnreachable(f"phi radius {float(out.error_radius):.3e} exceeds tol={tol}")
    if cross_check:
        _phi_series_check(rv, qv, out)
    return out


def phi_series_partial(r: Scalar, q: Scalar, terms: int = 300) -> Tuple[mpf, mpf, mpf]:
    """Partial sum of the phi series plus a two-sided bracket for its tail.

    Returns (partial, tail_lo, tail_hi): the true value lies in
    [partial + tail_lo, partial + tail_hi].  Used as the independent
    summation route when cross-checking `phi`.
    """
    rv, qv = _to_mpf(r), _to_mpf(q)
    x0 = rv - qv  # series terms are 2r (j - q) / (x0 + j)^3, x0 + j > 0 for j >= 1
    if not x0 + 1 > 0:
        raise DomainError("phi series requires r + 1 - q > 0")
    partial = mpf(0)
    for j in range(1, terms + 1):
        partial += 2 * rv * (j - qv) / (x0 + j) ** 3
    # tail = sum_{j>N} [ 2r/(x0+j)^2 - 2r^2/(x0+j)^3 ]; both summand families
    # are positive decreasing in j, so integral comparison brackets each.
    n = terms

    def bracket(c: mpf, s: int) -> Tuple[mpf, mpf]:
        # sum_{j>N} c/(x0+j)^s in [c*I(N+1), c*I(N)] for c >= 0, flipped else,
        # with I(a) = (x0+a)^(1-s)/(s-1)
        hi_mag = (x0 + n) ** (1 - s) / (s - 1)
        lo_mag = (x0 + n + 1) ** (1 - s) / (s - 1)
        if c >= 0:
            return c * lo_mag, c * hi_mag
        return c * hi_mag, c * lo_mag

    lo1, hi1 = bracket(2 * rv, 2)
    lo2, hi2 = bracket(-2 * rv * rv, 3)
    pad = _slack(partial, terms * 4)
    return partial, lo1 + lo2 - pad, hi1 + hi2 + pad


def _phi_series_check(rv: mpf, qv: mpf, out: BoundedFloat, terms: int = 300) -> None:
    partial, tail_lo, tail_hi = phi_series_partial(rv, qv, terms)
    lo = partial + tail_lo - out.error_radius
    hi = partial + tail_hi + out.error_radius
    if not (lo <= out.value <= hi):
        raise CrossCheckFailure(
            f"phi({float(rv)}, {float(qv)}): polygamma route {float(out.value)} "
            f"outside series bracket [{float(lo)}, {float(hi)}]"
        )


# ----------------------------------------------------------------------
# closed-form sandwich bounds
# ----------------------------------------------------------------------
def polygamma_sandwich(m: int, x: float) -> Tuple[float, float]:
    """Two-sided closed-form bounds on (-1)^(m+1) psi^(m)(x) for x > 0:

        (m-1)!/x^m + m!/(2 x^(m+1))  <  (-1)^(m+1) psi^(m)(x)
                                     <  (m-1)!/x^m + m!/x^(m+1)
    """
    if m < 1:
        raise DomainError("sandwich bounds require order m >= 1")
    if not x > 0:
        raise DomainError("sandwich bounds require x > 0")
    base = factorial(m - 1) / x ** m
    corr = factorial(m) / x ** (m + 1)
    return base + corr / 2, base + corr


def phi_sandwich(r: float, q: float) -> Tuple[float, float]:
    """Rational two-sided bounds on phi(r, q), valid for r > max(q-1, 0):

        (r^3 + (2-3q) r^2 + (3-5q+2q^2) r) / (r+1-q)^3  <  phi(r,q)
        phi(r,q)  <  (r^3 + (4-3q) r^2 + (4-6q+2q^2) r) / (r+1-q)^3
    """
    if not r > max(q - 1, 0.0):
        raise DomainError("phi sandwich requires r > max(q - 1, 0)")
    den = (r + 1 - q) ** 3
    lower = (r ** 3 + (2 - 3 * q) * r ** 2 + (3 - 5 * q + 2 * q ** 2) * r) / den
    upper = (r ** 3 + (4 - 3 * q) * r ** 2 + (4 - 6 * q + 2 * q ** 2) * r) / den
    return lower, upper
