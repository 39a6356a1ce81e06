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
  holds the raw (a, b) endpoint pair of ``mpmath.libmp``: each endpoint a
  finite (sign, mantissa, exponent, bit count) tuple, normalised as that
  library normalises it (+-inf and NaN raise DomainError wherever a
  BoundedFloat is built).  The operations on raw numbers and pairs are
  integer functions in ``leraykit._libmp`` that give libmp's own results
  bit for bit on finite arguments (+ - * /, sqrt, the midpoint,
  comparisons, conversions from and to doubles: each the exact result
  rounded once, as ``mpmath.iv``'s operators round it), and exp, log and
  pi rounded from proven fixed-point enclosures; Bernoulli numbers come
  from an integer recurrence.  The kernels (log-Gamma, digamma, the
  polygamma series and their Bernoulli tails) run on Python integers in
  fixed point: an argument enters as exact integer endpoints times a power of two, every
  O(1) quantity is an integer interval in units of 2^-w, w = precision +
  _GUARD, whose lower end is rounded down and upper end up, and a result
  leaves as a raw pair rounded outward.  Their logarithms (of the raised
  argument, the head product and 2 pi) are ``_libmp``'s fixed-point log
  enclosure, at least 48 bits finer than w, shifted to units of 2^-w; no
  log is rounded to a raw number on the way.  The polygamma series sums in
  units scaled by z^-m, so huge and tiny arguments keep a relative
  radius.  phi takes psi' and psi'' from one raising pass.  No module but
  this one and ``_libmp`` touches a raw pair.

mpmath itself is imported only when a caller reads an mpf: a
BoundedFloat's ``value``, ``error_radius``, ``lower`` or ``upper``, or
its repr.  One working precision, set by LERAYKIT_PRECISION_BITS or
:func:`set_precision_bits`, drives the interval arithmetic and, whenever
mpmath is loaded, ``mpmath.mp``.  No function here takes a tolerance:
each returns its certified enclosure at the working precision, whatever
its radius, and a caller that needs a bound on the radius checks it (the
command line rejects a radius above ``--tolerance``).  More bits narrow
only the rounding part of a radius.

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
partial sum of its first ten terms with a two-sided Euler-Maclaurin
bracket on the discarded tail.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, fsum, inf, isfinite, log2, nextafter, perm
from typing import Tuple, Union

from ._libmp import (
    _C,
    _F,
    _N,
    _ONE,
    _ZERO,
    _add,
    _exp,
    _from_float,
    _iadd,
    _idiv,
    _imid,
    _imul,
    _ineg,
    _isub,
    _le,
    _log,
    _log_fixed_core,
    _lt,
    _make,
    _neg,
    _pi,
    _pos,
    _sign,
    _sqrt,
    _to_float,
    _val,
)
from .errors import CrossCheckFailure, DomainError

# ----------------------------------------------------------------------
# working precision
# ----------------------------------------------------------------------
_MIN_PREC = 80
DEFAULT_PRECISION_BITS = 120
DEFAULT_TOL = 1e-12  # the CLI's default --tolerance and bwcert.f_q's fixed quadrature target

_env = os.environ.get("LERAYKIT_PRECISION_BITS")
_PREC = max(_MIN_PREC, int(_env)) if _env else DEFAULT_PRECISION_BITS


def _sync_mpmath() -> None:
    """Give a loaded mpmath the working precision (``emcert`` computes at
    ``mpmath.mp.prec``).  An mpmath loaded later gets it from `_mpmath`,
    or from ``emcert``'s import."""
    if "mpmath" in sys.modules:
        sys.modules["mpmath"].mp.prec = _PREC


def _mpmath():
    """mpmath, imported on first use."""
    if "mpmath" not in sys.modules:
        import mpmath  # noqa: F401

        _sync_mpmath()
    return sys.modules["mpmath"]


_sync_mpmath()


def precision_bits() -> int:
    return _PREC


def set_precision_bits(bits: int) -> None:
    """Set the global working precision (significand bits, >= 80) of the
    point and the interval arithmetic alike."""
    global _PREC
    if bits < _MIN_PREC:
        raise ValueError(f"precision must be at least {_MIN_PREC} bits")
    _PREC = int(bits)
    _sync_mpmath()


Scalar = Union[int, float, Fraction, "mpmath.mpf", "BoundedFloat"]

# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------
# raw intervals of exact constants, the same at every precision
_RAW_ONE, _RAW_TWO = (_ONE, _ONE), ((0, 1, 1, 1),) * 2


def _raw(x: Scalar) -> tuple:
    """The narrowest raw interval enclosing x at the working precision, as
    ``mpmath.iv`` converts it: an int or float rounded outward, an mpf as
    it is, a Fraction as numerator / denominator.  A BoundedFloat holds
    only what this returns, so it is finite: +-inf and NaN raise."""
    if isinstance(x, BoundedFloat):
        return x.endpoints
    if isinstance(x, Fraction):
        return _idiv(_raw(x.numerator), _raw(x.denominator), _PREC)
    if isinstance(x, int):
        return _make(x, 0, _PREC, _F), _make(x, 0, _PREC, _C)
    # a double is exact at the working precision (at least 80 bits)
    a = x._mpf_ if not isinstance(x, float) else _from_float(x) if isfinite(x) else None
    if a is None or a[2] and not a[1]:  # libmp's +-inf and NaN have no mantissa
        raise DomainError(f"a BoundedFloat operand must be finite (got {x})")
    return a, a


def _require_finite(name: str, value: Scalar) -> None:
    # inf and nan would otherwise reach int(), Fraction() or overflow in
    # log-Gamma, and None would raise a bare TypeError.  Only floats take
    # math.isfinite: on an int or mpf beyond double range it raises or reads
    # inf although the value is finite.  A BoundedFloat is always finite.
    if isinstance(value, float):
        finite = isfinite(value)
    else:  # an int, a Fraction, an mpf or a BoundedFloat
        s = getattr(value, "_mpf_", _ZERO)
        finite = value is not None and (s[1] or not s[2])
    if not finite:
        raise DomainError(f"{name} must be finite (got {value})")


def _e3(s: tuple) -> str:
    """The raw s as format(float(s), ".3e") prints it, also past the
    double range, where float(s) is inf."""
    x = _to_float(s)
    if isfinite(x):
        return format(x, ".3e")
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        return format(_val(s) * Decimal(2) ** s[2], ".3e")


# ----------------------------------------------------------------------
# BoundedFloat
# ----------------------------------------------------------------------
class BoundedFloat:
    """A real number enclosed by a closed, finite interval.

    The represented real lies in [lower, upper]; every constructor and
    operand is finite (+-inf and NaN raise DomainError).  ``value`` is the
    interval's midpoint and ``error_radius`` its half-width rounded up, so
    the real also lies in [value - error_radius, value + error_radius];
    both are rounded at the working precision in force when read.
    ``endpoints`` is the raw (a, b) pair of ``mpmath.libmp``, and every
    operation rounds outward at the working precision, giving the
    endpoints ``mpmath.iv`` gives (exp and log: see `_libmp._exp`).  ``value``,
    ``error_radius``, ``lower`` and ``upper`` are mpfs, and reading one
    imports mpmath; nothing else here does.
    """

    __slots__ = ("endpoints",)

    def __init__(self, value: Scalar, error_radius: Scalar) -> None:
        low, radius = _raw(error_radius)
        if low[0]:
            raise ValueError("error radius must be non-negative")
        self.endpoints = _iadd(_raw(value), (_neg(radius, _PREC, _F), radius), _PREC)

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
    def value(self) -> "mpmath.mpf":
        return _mpmath().mp.make_mpf(_imid(self.endpoints, _PREC))

    @property
    def error_radius(self) -> "mpmath.mpf":
        return _mpmath().mp.make_mpf(self._mid_radius()[1])

    def _mid_radius(self) -> tuple:
        """The raw midpoint and the raw half-width rounded up."""
        a, b = self.endpoints
        mid = _imid(self.endpoints, _PREC)
        below, above = _add(mid, _neg(a), _PREC, _C), _add(b, _neg(mid), _PREC, _C)
        return mid, above if _lt(below, above) else below

    def _mid_minus(self, other: "BoundedFloat") -> Fraction:
        """This midpoint minus that of `other`, rounded to nearest at the
        working precision, exactly: an mpf ``self.value - other.value``."""
        d = _add(_imid(self.endpoints, _PREC), _neg(_imid(other.endpoints, _PREC)), _PREC, _N)
        return Fraction(_val(d)) * Fraction(2) ** d[2]

    def doubles(self) -> Tuple[float, float]:
        """``float(value)`` and ``error_radius`` rounded up to a double, read
        from one midpoint: a radius below the smallest subnormal reads as
        that, not as 0, and one past the double range as inf."""
        mid, radius = self._mid_radius()
        bound = _to_float(radius)
        if isfinite(bound) and _lt(_from_float(bound), radius):
            bound = nextafter(bound, inf)
        return _to_float(mid), bound

    @property
    def lower(self) -> "mpmath.mpf":
        return _mpmath().mp.make_mpf(_pos(self.endpoints[0], _PREC, _F))

    @property
    def upper(self) -> "mpmath.mpf":
        return _mpmath().mp.make_mpf(_pos(self.endpoints[1], _PREC, _C))

    def contains(self, x: Scalar) -> bool:
        a, b = _raw(x)
        return _le(self.endpoints[0], a) and _le(b, self.endpoints[1])

    def separated_below(self, c: Scalar) -> bool:
        """Certified strict inequality (self < c)."""
        return _lt(self.endpoints[1], _raw(c)[0])

    def separated_above(self, c: Scalar) -> bool:
        """Certified strict inequality (self > c)."""
        return _lt(_raw(c)[1], self.endpoints[0])

    def __float__(self) -> float:
        return _to_float(_imid(self.endpoints, _PREC))

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(_iadd(self.endpoints, _raw(other), _PREC))

    __radd__ = __add__

    def __neg__(self) -> "BoundedFloat":
        return BoundedFloat._of(_ineg(self.endpoints, _PREC))

    def __sub__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(_isub(self.endpoints, _raw(other), _PREC))

    def __rsub__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(_isub(_raw(other), self.endpoints, _PREC))

    def __mul__(self, other) -> "BoundedFloat":
        return BoundedFloat._of(_imul(self.endpoints, _raw(other), _PREC))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BoundedFloat":
        divisor = _raw(other)
        if _sign(divisor[0]) <= 0 <= _sign(divisor[1]):
            raise ZeroDivisionError("divisor interval contains zero")
        return BoundedFloat._of(_idiv(self.endpoints, divisor, _PREC))

    def sqrt(self) -> "BoundedFloat":
        a, b = self.endpoints
        if _lt(a, _ZERO):
            raise DomainError("sqrt of an interval reaching below zero")
        return BoundedFloat._of((_sqrt(a, _PREC, _F), _sqrt(b, _PREC, _C)))

    def exp(self) -> "BoundedFloat":
        a, b = self.endpoints
        return BoundedFloat._of((_exp(a, _PREC, _F), _exp(b, _PREC, _C)))

    def log(self) -> "BoundedFloat":
        a, b = self.endpoints
        if not _lt(_ZERO, a):
            raise DomainError("log of an interval reaching zero or below")
        return BoundedFloat._of((_log(a, _PREC, _F), _log(b, _PREC, _C)))

    def __repr__(self) -> str:
        mpmath = _mpmath()
        return f"BoundedFloat({mpmath.nstr(self.value, 17)} ± {mpmath.nstr(self.error_radius, 3)})"


# ----------------------------------------------------------------------
# Bernoulli terms of the asymptotic tails
# ----------------------------------------------------------------------
_RAISE_TO = 16          # argument-raising threshold for the asymptotic tails
_EM_TERMS = 10          # most Bernoulli terms summed; remainder bounded by the next


@lru_cache(maxsize=32)
def _bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n, exact: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from the tangent numbers T_k (1, 2, 16, 272, ...), which an integer
    recurrence gives (Knuth and Buckholtz).  Cached: every series order m
    reads the same few."""
    if n < 2 or n % 2:
        return {0: Fraction(1), 1: Fraction(-1, 2)}.get(n, Fraction(0))
    k = n // 2
    tangent = [factorial(i - 1) for i in range(1, k + 1)]
    for i in range(1, k):
        for j in range(i, k):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    return Fraction((-1) ** (k - 1) * n * tangent[-1], 4 ** k * (4 ** k - 1))


def _bernoulli_coefficient(m: int, j: int) -> Fraction:
    b = _bernoulli(2 * j)
    if m < 0:
        return b / ((2 * j) * (2 * j - 1))
    # rising factorial (m+1)(m+2)...(m+2j-1) over (2j)!
    return b * Fraction(perm(m + 2 * j - 1, 2 * j - 1), factorial(2 * j))


@lru_cache(maxsize=1)
def _log_gamma_floor() -> float:
    """The truncation part of a `log_gamma` radius, whatever the argument
    and the precision: `_log_gamma` raises its argument to z >= _RAISE_TO
    and sums at most _EM_TERMS Stirling terms, and the remainder
    [-|c_11|, |c_11|] enters with the factor z^-(2 _EM_TERMS + 1) <= 16^-21:
    |c_11| rounded down to a double, times 16^-21, about 7e-25.  (With fewer
    terms the remainder is below 2^-prec and counts as rounding.)"""
    bound = abs(_bernoulli_coefficient(-1, _EM_TERMS + 1))
    floor = float(bound)
    return (nextafter(floor, 0.0) if floor > bound else floor) * float(_RAISE_TO) ** -(2 * _EM_TERMS + 1)


# ----------------------------------------------------------------------
# fixed-point kernels
# ----------------------------------------------------------------------
# An O(1) quantity is an integer interval [lo, hi] in units of 2^-w,
# w = precision + _GUARD, lower ends rounded down and upper ends up; an
# argument is a dyadic interval (lo, hi, f): the integers lo <= hi with
# lo 2^f <= x <= hi 2^f and f <= 0.
_GUARD = 32


def _shift(n: int, e: int, up: bool = False) -> int:
    """n 2^e rounded down to an integer, or up."""
    if e >= 0:
        return n << e
    return -((-n) >> -e) if up else n >> -e


def _to_raw(lo: int, hi: int, scale: int, prec: int) -> tuple:
    """The raw interval [lo 2^-scale, hi 2^-scale] rounded outward at `prec`
    bits (prec = 0: exact)."""
    return _make(lo, -scale, prec, _F), _make(hi, -scale, prec, _C)


def _exp_fixed(lo: int, hi: int, w: int) -> BoundedFloat:
    """exp [lo 2^-w, hi 2^-w], rounded outward at the working precision."""
    return BoundedFloat._of(_to_raw(lo, hi, w, 0)).exp()


def _bounded(x: tuple) -> BoundedFloat:
    """The dyadic interval x, rounded outward at the working precision."""
    lo, hi, f = x
    return BoundedFloat._of(_to_raw(lo, hi, -f, _PREC))


def _dyadic_of(x: BoundedFloat) -> tuple:
    """The positive BoundedFloat x as a dyadic interval."""
    return _dyadic(x.endpoints)


def _dyadic(x) -> tuple:
    """The positive raw interval x as a dyadic interval."""
    (_, a, ea, _), (_, b, eb, _) = x
    f = min(ea, eb, 0)
    return a << (ea - f), b << (eb - f), f


def _ratio(p: int, q: int, w: int) -> tuple:
    """p/q > 0 as a dyadic interval of at least w significant bits."""
    s = max(w + q.bit_length() - p.bit_length() + 1, 0)
    return (p << s) // q, -((-p << s) // q), -s


def _log_fixed(x, w: int) -> Tuple[int, int]:
    """log x for the dyadic interval x > 0, in units of 2^-w: the
    `_log_fixed_core` enclosure of log lo, at least 48 bits finer than w,
    rounded outward, and the mean-value bound (hi - lo)/lo added to its
    upper end.  log 1 is 0 (x = gamma/2 = gamma - 1 at gamma = 2)."""
    lo, hi, f = x
    if lo == 1 << -f:
        l_lo = l_hi = 0
    else:
        l_lo, l_hi, v = _log_fixed_core(lo, f, w)
        l_lo, l_hi = l_lo >> v - w, -(-l_hi >> v - w)
    return l_lo, l_hi - ((lo - hi << w) // lo)


@lru_cache(maxsize=8)
def _half_log_2pi(w: int) -> Tuple[int, int]:
    """log(2 pi)/2 in units of 2^-w, rounded outward: the `_log_fixed_core`
    enclosures of log 2a and log 2b, [a, b] = `_pi`(w)."""
    a, b = _pi(w)
    lo, _, v = _log_fixed_core(a[1], a[2] + 1, w)
    _, hi, u = _log_fixed_core(b[1], b[2] + 1, w)
    return lo >> v - w + 1, -(-hi >> u - w + 1)


@lru_cache(maxsize=64)
def _bernoulli_fixed(m: int, prec: int) -> tuple:
    """(floors, ceilings, remainders, switches) at `prec` bits, in units of
    2^-(prec + _GUARD).

    c_j z^-(m+2j) is the j-th Bernoulli term of the Stirling series of
    log Gamma(z) (m = -1) or of the Euler-Maclaurin expansion of
    sum_{i>=0} (z+i)^-(m+1) (m >= 0).  floors[j-1] and ceilings[j-1] are
    c_j rounded down and up, j = 1 .. _EM_TERMS + 1.  remainders[n-1] is
    |c_{n+1}| rounded up, the remainder after n terms in units of
    z^-(m+2n+2).  switches[n-1] is the float (|c_{n+1}| 2^prec)^(1/(2n+1))
    for n < _EM_TERMS: above it the first omitted term is below
    2^-prec z^-(m+1), so n terms suffice.
    """
    w = prec + _GUARD
    c = [_bernoulli_coefficient(m, j) for j in range(1, _EM_TERMS + 2)]
    floors = tuple((v.numerator << w) // v.denominator for v in c)
    ceilings = tuple(-((-v.numerator << w) // v.denominator) for v in c)
    remainders = tuple(-((-abs(v.numerator) << w) // v.denominator) for v in c[1:])
    switches = []
    for n in range(1, _EM_TERMS):
        omitted = abs(c[n])
        log2_switch = (log2(omitted.numerator) - log2(omitted.denominator) + prec) / (2 * n + 1)
        switches.append(2.0 ** log2_switch if log2_switch < 1000 else inf)
    return floors, ceilings, remainders, tuple(switches)


def _bernoulli_terms(m: int, z, u, w: int) -> Tuple[int, int]:
    """z^max(m, 0) times (sum_{j=1}^{n} c_j z^-(m+2j) plus the remainder
    after n terms), in units of 2^-w, for the dyadic interval z > 0 and
    u = 1/z in units of 2^-w: an O(1) quantity.

    n is the fewest terms, at most _EM_TERMS, whose first omitted term
    c_{n+1} z^-(m+2n+2) is below 2^-prec z^-(m+1), which holds once
    z > (|c_{n+1}| 2^prec)^(1/(2n+1)).  For z > 0 the remainder after any
    n terms is bounded by the first omitted term, so the enclosure holds
    whichever n the float comparison picks.  That term enters Horner's
    scheme in u^2 as the interval [-|c_{n+1}|, |c_{n+1}|], so the sum and
    its remainder come out in one pass.
    """
    floors, ceilings, remainders, switches = _bernoulli_fixed(m, _PREC)
    zf = z[0] / (1 << -z[2]) if z[0].bit_length() + z[2] < 1000 else inf
    n = next((n for n, switch in enumerate(switches, 1) if zf > switch), _EM_TERMS)
    u_lo, u_hi = u
    v_lo, v_hi = u_lo * u_lo >> w, -((-u_hi * u_hi) >> w)
    lo, hi = -remainders[n - 1], remainders[n - 1]
    for j in range(n - 1, -1, -1):
        lo = (lo * (v_lo if lo >= 0 else v_hi) >> w) + floors[j]
        hi = -((-hi * (v_hi if hi >= 0 else v_lo)) >> w) + ceilings[j]
    # times u (log-Gamma) or u^2
    t_lo, t_hi = (u_lo, u_hi) if m < 0 else (v_lo, v_hi)
    return lo * (t_lo if lo >= 0 else t_hi) >> w, -((-hi * (t_hi if hi >= 0 else t_lo)) >> w)


def _raised(x, w: int) -> tuple:
    """(z, heads, u): z = x + n >= _RAISE_TO for the dyadic interval x and
    the fewest recurrence steps n, the lower and upper endpoints x + i,
    i < n, of the head the recurrence peels off, and 1/z in units of 2^-w."""
    lo, hi, f = x
    n = max(_RAISE_TO - _shift(lo, f), 0)
    step = 1 << -f
    heads = [(lo + i * step, hi + i * step) for i in range(n)]
    lo, hi = lo + n * step, hi + n * step
    return (lo, hi, f), heads, ((1 << (w - f)) // hi, -((-1 << (w - f)) // lo))


def _positive_argument(fn: str, x: Scalar) -> tuple:
    """x as a dyadic interval, after the finiteness and sign checks."""
    _require_finite("x", x)
    xv = BoundedFloat.exact(x)
    if not xv.separated_above(0):
        raise DomainError(f"{fn} requires a positive argument")
    return _dyadic(xv.endpoints)


def polygamma(m: int, x: Scalar) -> BoundedFloat:
    """psi^(m)(x) for x > 0 with a certified error radius."""
    xv = _positive_argument("polygamma", x)
    m = int(m)
    if m < 0:
        raise DomainError("polygamma order must be non-negative")
    if m == 0:
        return BoundedFloat._of(_to_raw(*_digamma(xv), _PREC + _GUARD, _PREC))
    return BoundedFloat._of(_polygamma_series((m,), xv, _PREC)[0])


def _polygamma_series(orders: Tuple[int, ...], x, prec: int) -> list:
    """psi^(m)(x) for each order m >= 1 of `orders`, on the dyadic interval
    x > 0, as raw intervals rounded outward at `prec` bits: direct series
    head + Euler-Maclaurin tail.  The orders share one raising pass.

    psi^(m) / ((-1)^(m+1) m!) = sum_{i<n} (x+i)^-(m+1)
    + z^-m (1/m + 1/(2z) + z^m (Bernoulli terms)) is summed in units of
    2^-(w + m t), z < 2^t, where its smallest part z^-m / m still has w
    bits: each head term is one exact division, and the O(1) bracket is
    scaled by z^-m in one more, so huge and tiny arguments keep a relative
    radius.
    """
    w = _PREC + _GUARD
    z, heads, u = _raised(x, w)
    z_lo, z_hi, f = z
    out = []
    for m in orders:
        scale = w + m * (f + z_hi.bit_length())
        e_head, e_tail = scale - (m + 1) * f, m * z_hi.bit_length()
        lo = sum((1 << e_head) // y_hi ** (m + 1) for _, y_hi in heads)
        hi = sum(-((-1 << e_head) // y_lo ** (m + 1)) for y_lo, _ in heads)
        s_lo, s_hi = _bernoulli_terms(m, z, u, w)
        t_lo = (1 << w) // m + (u[0] >> 1) + s_lo
        t_hi = -((-1 << w) // m) + ((u[1] + 1) >> 1) + s_hi
        lo += (t_lo << e_tail) // (z_hi if t_lo >= 0 else z_lo) ** m
        hi -= (-t_hi << e_tail) // (z_lo if t_hi >= 0 else z_hi) ** m
        lo, hi = lo * factorial(m), hi * factorial(m)
        out.append(_to_raw(*((lo, hi) if m % 2 else (-hi, -lo)), scale, prec))
    return out


def _digamma(x) -> Tuple[int, int]:
    """psi(x) for the dyadic interval x > 0, in units of 2^-w: recurrence to
    z >= threshold, then the asymptotic expansion whose remainder is
    bounded by the first omitted Bernoulli term."""
    w = _PREC + _GUARD
    z, heads, u = _raised(x, w)
    e = w - z[2]
    head_lo = sum((1 << e) // y_hi for _, y_hi in heads)
    head_hi = sum(-((-1 << e) // y_lo) for y_lo, _ in heads)
    s_lo, s_hi = _bernoulli_terms(0, z, u, w)
    log_lo, log_hi = _log_fixed(z, w)
    return (log_lo - ((u[1] + 1) >> 1) - s_hi - head_hi,
            log_hi - (u[0] >> 1) - s_lo - head_lo)


def log_gamma(x: Scalar) -> BoundedFloat:
    """log Gamma(x) for x > 0 via argument raising and the Stirling series
    (remainder bounded by the first omitted term)."""
    return BoundedFloat._of(_to_raw(*_log_gamma(_positive_argument("log_gamma", x)), _PREC + _GUARD, _PREC))


def _log_gamma(x) -> Tuple[int, int]:
    """log Gamma of a dyadic interval the caller has proven positive, in
    units of 2^-w: (z - 1/2) log z - z + log(2 pi)/2 + Stirling terms
    - log(x (x+1) ... (x+n-1)), the head product exact."""
    w = _PREC + _GUARD
    z, heads, u = _raised(x, w)
    z_lo, z_hi, f = z
    log_lo, log_hi = _log_fixed(z, w)
    zw_lo, zw_hi = _shift(z_lo, f + w), _shift(z_hi, f + w, True)
    half = 1 << (w - 1)
    c_lo, c_hi = _half_log_2pi(w)
    s_lo, s_hi = _bernoulli_terms(-1, z, u, w)
    lo = ((zw_lo - half) * log_lo >> w) - zw_hi + c_lo + s_lo
    hi = -(((half - zw_hi) * log_hi) >> w) - zw_lo + c_hi + s_hi
    if heads:
        p_lo = p_hi = 1
        for y_lo, y_hi in heads:
            p_lo, p_hi = p_lo * y_lo, p_hi * y_hi
        h_lo, h_hi = _log_fixed((p_lo, p_hi, len(heads) * f), w)
        lo, hi = lo - h_hi, hi - h_lo
    return lo, hi


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
    x = _isub(_iadd(rv, _RAW_ONE, prec), qv, prec)
    if not _sign(x[0]) > 0:
        raise DomainError(
            f"{fn} requires r + 1 - q > 0, which cannot be certified at {prec}-bit "
            f"precision: r + 1 - q lies in [{_to_float(x[0], 'd'):.6g}, {_to_float(x[1], 'd'):.6g}]"
        )
    return rv, qv, x


def theta(r: Scalar, q: Scalar) -> BoundedFloat:
    """theta(r, q) = r^2 psi'(r + 1 - q); its r-derivative is phi(r, q)."""
    rv, _, x = _shifted_argument("theta", r, q)
    w = _PREC + _GUARD
    return BoundedFloat._of(_imul(_polygamma_series((1,), _dyadic(x), w)[0], _imul(rv, rv, w), _PREC))


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
    gap, near = _isub(rv, qv, prec), _from_float(_NEAR_THRESHOLD)
    if _lt(gap[1], near) and _lt(_neg(gap[0]), near):  # |r - q| < 1e-6 at both ends
        raise DomainError("phi rejected: r within 1e-6 of q (endpoint not specified)")
    # psi' and psi'' and their products at the kernels' precision, the sum at the working one
    w = prec + _GUARD
    trigamma, tetragamma = _polygamma_series((1, 2), _dyadic(x), w)
    value = _iadd(
        _imul(trigamma, _imul(_RAW_TWO, rv, w), w),
        _imul(tetragamma, _imul(rv, rv, w), w),
        prec,
    )
    out = BoundedFloat._of(value)
    _phi_series_check(r, q, out)
    return out


_PHI_SERIES_TERMS = 10


def phi_series_partial(r: Scalar, q: Scalar) -> Tuple[float, float, float]:
    """Partial sum of the first _PHI_SERIES_TERMS terms of the phi series
    plus a two-sided bracket for its tail.

    Returns (partial, tail_lo, tail_hi) in double precision: the true value
    at the doubles nearest r and q lies in [partial + tail_lo,
    partial + tail_hi].  Each term is a product of ratios of moderate size,
    so nothing overflows even for r near 1e300.

    The tail sum_{j>N} [2r/d_j^2 - 2r^2/d_j^3], d_j = r + j - q, is two
    families c/(x + j - 1)^p (p = 2, 3; c = 2r, -2r^2), each c times a
    function completely monotone in j.  Euler-Maclaurin from a = N + 1
    sums each as its integral, half its first term and the B_2 and B_4
    corrections; for a completely monotone summand the remainder lies
    between 0 and the first omitted (B_6) term, so that term, taken on
    both sides, bounds it.  With y = x + N >= N, rho = r/y and v = 1/y:

        p = 2:  2 rho + rho v + rho v^2/3 - rho v^4/15,  omitted rho v^6/21
        p = 3:  -rho^2 (1 + v + v^2/2 - v^4/6),          omitted rho^2 v^6/6

    The bracket is padded by 4 (N + 8) 2^-53 times the summed magnitudes
    (plus (N + 8) 2^-1070 for subnormal results), which bounds every
    rounding in the sum.  Used as the independent summation route when
    cross-checking `phi`.
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
    y = x + terms
    rho, v = rf / y, 1 / y
    v2 = v * v
    tail = 2 * rho + rho * v * (1 + v * (1 / 3 - v2 / 15)) - rho * rho * (1 + v * (1 + v * (0.5 - v2 / 6)))
    remainder = (abs(rho) / 21 + rho * rho / 6) * (v2 * v2 * v2)
    magnitude += 2 * abs(rho) * (1 + v) + rho * rho * (1 + 2 * v) + remainder
    pad = 4 * (terms + 8) * 2.0 ** -53 * magnitude + (terms + 8) * 2.0 ** -1070
    return partial, tail - remainder - pad, tail + remainder + pad


def _phi_series_check(r: Scalar, q: Scalar, out: BoundedFloat) -> None:
    partial, tail_lo, tail_hi = phi_series_partial(r, q)
    lo, hi = partial + tail_lo, partial + tail_hi
    if out.separated_below(lo) or out.separated_above(hi):
        a, b = out.endpoints
        raise CrossCheckFailure(
            f"phi({float(r)}, {float(q)}): polygamma route [{_to_float(a)}, "
            f"{_to_float(b)}] outside series bracket [{lo}, {hi}]"
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
