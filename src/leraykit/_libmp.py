"""mpmath.libmp's raw numbers and intervals, in integer code.

A raw number is mpmath.libmp's (sign, man, exp, bc) tuple: man 2^exp with
sign 0 or 1, man odd and bc its bit length, or one of the special tuples
below.  Each function here gives the tuple that the libmp function named
in its docstring gives, so an mpf's ``_mpf_`` is a raw number and mpmath
reads every result back: + - * / and sqrt round their exact result once,
and an interval (a pair of raw numbers) is rounded outward as ``mpi_*``
rounds it.  exp, log and pi round a proven fixed-point enclosure instead
(`_exp`, `_log`, `_pi`).  Nothing here imports mpmath; `specialfn` builds
BoundedFloat on these functions.
"""

from __future__ import annotations

from functools import lru_cache
from math import frexp, inf, isqrt, ldexp, nan
from typing import Tuple

from .errors import DomainError

# ----------------------------------------------------------------------
# raw numbers
# ----------------------------------------------------------------------
_ZERO, _ONE = (0, 0, 0, 0), (0, 1, 0, 1)
_INF, _NINF, _NAN = (0, 0, -456, -2), (1, 0, -789, -3), (0, 0, -123, -1)
_F, _C, _N = "f", "c", "n"  # libmp's round_floor, round_ceiling, round_nearest


def _make(man: int, exp: int, prec: int = 0, rnd: str = _F) -> tuple:
    """man 2^exp rounded to prec bits (0: exact): ``from_man_exp``."""
    if not man:
        return _ZERO
    sign = 1 if man < 0 else 0
    man = abs(man)
    n = man.bit_length() - prec
    if prec and n > 0:
        if rnd == _N:
            t = man >> (n - 1)
            man = (t >> 1) + (t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) != 0)
        elif rnd == "u" or rnd == "cf"[sign]:  # the magnitude rounds up
            man = -(-man >> n)
        else:
            man >>= n
        exp += n
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _val(s: tuple) -> int:
    return -s[1] if s[0] else s[1]


def _sign(s: tuple) -> int:
    """``mpf_sign``: -1, 0 or 1, and 0 for NaN."""
    if not s[1]:
        return 1 if s == _INF else -1 if s == _NINF else 0
    return -1 if s[0] else 1


def _pos(s: tuple, prec: int, rnd: str) -> tuple:
    """``mpf_pos``: s rounded to prec bits."""
    return _make(_val(s), s[2], prec, rnd) if s[1] else s


def _neg(s: tuple, prec: int = 0, rnd: str = _F) -> tuple:
    """``mpf_neg``."""
    if not s[1]:
        return _NINF if s == _INF else _INF if s == _NINF else s
    return _make(-_val(s), s[2], prec, rnd)


def _add(s: tuple, t: tuple, prec: int = 0, rnd: str = _F) -> tuple:
    """``mpf_add``."""
    if s[1] and t[1]:
        if s[2] < t[2]:
            s, t = t, s
        offset, m, n = s[2] - t[2], _val(s), _val(t)
        if offset > 100 and prec and s[3] + offset - t[3] > prec + 4:
            # t lies far below the rounding: a unit of its sign stands for it
            return _make((m << prec + 4) + (1 if n > 0 else -1), s[2] - prec - 4, prec, rnd)
        return _make((m << offset) + n, t[2], prec, rnd)
    if s[2] and not s[1]:
        return s if s == t or t[1] or not t[2] else _NAN
    if t[2] and not t[1]:
        return t
    x = s if s[1] else t
    return _make(_val(x), x[2], prec, rnd)


def _mul(s: tuple, t: tuple, prec: int = 0, rnd: str = _F) -> tuple:
    """``mpf_mul``."""
    if s[1] and t[1]:
        return _make(_val(s) * _val(t), s[2] + t[2], prec, rnd)
    if not (s[2] and not s[1] or t[2] and not t[1]):
        return _ZERO
    if _NAN in (s, t) or _ZERO in (s, t):
        return _NAN
    return _INF if _sign(s) * _sign(t) > 0 else _NINF


def _div(s: tuple, t: tuple, prec: int, rnd: str) -> tuple:
    """``mpf_div``."""
    if not (s[1] and t[1]):
        if t == _ZERO:
            raise ZeroDivisionError
        if s == _ZERO:
            return _NAN if t == _NAN else _ZERO
        if _NAN in (s, t) or not (s[1] or t[1]):
            return _NAN
        return _ZERO if s[1] else _INF if _sign(s) * _sign(t) > 0 else _NINF
    sign = s[0] ^ t[0]
    if t[1] == 1:
        return _make(-s[1] if sign else s[1], s[2] - t[2], prec, rnd)
    extra = max(prec - s[3] + t[3] + 5, 5)
    quot, rem = divmod(s[1] << extra, t[1])
    if rem:  # a unit below the rounding stands for the remainder
        quot, extra = (quot << 1) + 1, extra + 1
    return _make(-quot if sign else quot, s[2] - t[2] - extra, prec, rnd)


def _sqrt(s: tuple, prec: int, rnd: str) -> tuple:
    """``mpf_sqrt`` of s >= 0."""
    sign, man, exp, bc = s
    if sign:
        raise DomainError("square root of a negative number")
    if not man:
        return s
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    elif man == 1:
        return _make(1, exp // 2, prec, rnd)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    root = isqrt(man << shift)
    if rnd not in "fd" and root * root != man << shift:
        root, shift = (root << 1) + 1, shift + 2
    return _make(root, (exp - shift) // 2, prec, rnd)


def _cmp(s: tuple, t: tuple) -> int:
    """``mpf_cmp``, which orders NaN below everything."""
    if not (s[1] and t[1]):
        if s == _ZERO:
            return -_sign(t)
        if t == _ZERO:
            return _sign(s)
        if s == t:
            return 0
        return 1 if t == _NAN or s == _INF or t == _NINF else -1
    if s[0] != t[0]:
        return -1 if s[0] else 1
    a, b = s[2] + s[3], t[2] + t[3]
    if a == b:
        e = min(s[2], t[2])
        a, b = s[1] << s[2] - e, t[1] << t[2] - e
    return (a > b) - (a < b) if not s[0] else (a < b) - (a > b)


def _lt(s: tuple, t: tuple) -> bool:
    return s != _NAN and t != _NAN and _cmp(s, t) < 0


def _le(s: tuple, t: tuple) -> bool:
    return s != _NAN and t != _NAN and _cmp(s, t) <= 0


def _to_float(s: tuple, rnd: str = _N) -> float:
    """``to_float``: s rounded to 53 bits, then to a double (0 or inf past its range)."""
    if not s[1]:
        return 0.0 if s == _ZERO else inf if s == _INF else -inf if s == _NINF else nan
    if s[3] > 53:
        s = _make(_val(s), s[2], 53, rnd)
    try:
        return ldexp(_val(s), s[2])
    except OverflowError:
        return 0.0 if s[2] + s[3] <= 0 else -inf if s[0] else inf


def _from_float(x: float) -> tuple:
    """``from_float``: the double x, exactly."""
    if x != x:
        return _NAN
    if x in (inf, -inf):
        return _INF if x > 0 else _NINF
    m, e = frexp(x)
    return _make(int(m * (1 << 53)), e - 53)


# ----------------------------------------------------------------------
# intervals: pairs of raw numbers, mpmath.libmp's mpi_* at prec bits
# ----------------------------------------------------------------------
def _iadd(s: tuple, t: tuple, prec: int) -> tuple:
    a, b = _add(s[0], t[0], prec, _F), _add(s[1], t[1], prec, _C)
    return _NINF if a == _NAN else a, _INF if b == _NAN else b


def _isub(s: tuple, t: tuple, prec: int) -> tuple:
    return _iadd(s, (_neg(t[1]), _neg(t[0])), prec)


def _ineg(s: tuple, prec: int) -> tuple:
    return _neg(s[1], prec, _F), _neg(s[0], prec, _C)


def _imid(s: tuple, prec: int) -> tuple:
    x = _add(s[0], s[1], prec, _N)
    return (x[0], x[1], x[2] - 1, x[3]) if x[1] else x


def _kind(s: tuple) -> int:
    """0 for an interval >= 0, 1 for one <= 0, 2 for one across 0."""
    return 0 if _sign(s[0]) >= 0 else 1 if _sign(s[1]) <= 0 else 2


# (kind of s, kind of t) -> the ends of s and t whose product is the lower
# end and what a product 0 * inf (NaN) stands for there, then the same for
# the upper end
_MUL_ENDS = {
    (0, 0): (0, 0, _ZERO, 1, 1, _INF), (0, 1): (1, 0, _NINF, 0, 1, _ZERO),
    (0, 2): (1, 0, _NINF, 1, 1, _INF), (1, 0): (0, 1, _NINF, 1, 0, _ZERO),
    (1, 1): (1, 1, _ZERO, 0, 0, _INF), (1, 2): (0, 1, _NINF, 0, 0, _INF),
}


def _imul(s: tuple, t: tuple, prec: int) -> tuple:
    for x, y in ((s, t), (t, s)):
        if _sign(x[0]) == _sign(x[1]) == 0:
            return (_NINF, _INF) if y[0] == _NINF or y[1] == _INF else (_ZERO, _ZERO)
    kinds = _kind(s), _kind(t)
    if kinds[0] == 2:  # s across 0: the extreme exact products
        products = [_mul(a, b) for a in s for b in t]
        if _NAN in products:
            return _NINF, _INF
        lo = hi = products[0]
        for p in products[1:]:
            lo, hi = p if _lt(p, lo) else lo, p if _lt(hi, p) else hi
        return _pos(lo, prec, _F), _pos(hi, prec, _C)
    i, j, nan_lo, k, m, nan_hi = _MUL_ENDS[kinds]
    a, b = _mul(s[i], t[j], prec, _F), _mul(s[k], t[m], prec, _C)
    return nan_lo if a == _NAN else a, nan_hi if b == _NAN else b


def _idiv(s: tuple, t: tuple, prec: int) -> tuple:
    (sa, sb), (ta, tb) = s, t
    sas, sbs, tas, tbs = map(_sign, (sa, sb, ta, tb))
    if sas == sbs == 0:
        return (_NINF, _INF) if tas < 0 < tbs or tas == 0 or tbs == 0 else (_ZERO, _ZERO)
    if tas < 0 < tbs:
        return _NINF, _INF
    if tas < 0:
        return _idiv(_ineg(s, 0), _ineg(t, 0), prec)
    if tas == 0:
        if sas < 0 < sbs or tbs == 0:
            return _NINF, _INF
        if sas >= 0:
            a, b = _div(sa, tb, prec, _F), _INF
        if sbs <= 0:
            a, b = _NINF, _div(sb, tb, prec, _C)
        return a, b
    if sas >= 0:
        a, b, nan_lo, nan_hi = _div(sa, tb, prec, _F), _div(sb, ta, prec, _C), _ZERO, _INF
    elif sbs <= 0:
        a, b, nan_lo, nan_hi = _div(sa, ta, prec, _F), _div(sb, tb, prec, _C), _NINF, _ZERO
    else:
        a, b, nan_lo, nan_hi = _div(sa, ta, prec, _F), _div(sb, ta, prec, _C), _NINF, _INF
    return nan_lo if a == _NAN else a, nan_hi if b == _NAN else b


# ----------------------------------------------------------------------
# exp, log and pi from proven fixed-point enclosures
# ----------------------------------------------------------------------
# Each is an interval [lo, hi] in units of 2^-w that provably holds the
# value, w about prec + _EXTRA bits.  When both ends round alike, that is
# the correctly rounded result.  An interval that holds a rounding
# boundary (odds of about 2^-48, or more for an argument of few bits
# next to 0 or 1, where a partial sum of the series is itself a boundary)
# is computed again at twice the bits until it does not: exp and log of a
# dyadic other than 0 and 1 are irrational, so this ends.  pi keeps its
# interval and rounds it outward.  mpmath.libmp's mpf_exp and mpf_log
# are not always correctly rounded (about 1 call in 5,000 at directed
# rounding), so they can differ from these by one unit in the last place.
_EXTRA = 48


def _acot(k: int, w: int, sign: int) -> Tuple[int, int]:
    """(S, n): sum_{j<n} sign^j / ((2j+1) k^(2j+1)), atan(1/k) for sign -1
    and atanh(1/k) for sign 1, in units of 2^-w with every term rounded
    down, exactly (a floor of a floor is the floor).  The true sum lies
    within n + 2 units of S."""
    total = power = (1 << w) // k
    n, k2 = 1, k * k
    while power:
        power //= k2
        total += sign ** n * (power // (2 * n + 1))
        n += 1
    return total, n


_LN2 = [0, 0, 0]  # [w, lo, err]: lo <= 2^w ln 2 <= lo + err


def _ln2(w: int) -> Tuple[int, int]:
    """ln 2 = 2 atanh(1/3) in units of 2^-w, rounded outward.  Computed 32
    bits beyond the highest precision asked for so far, and kept."""
    if _LN2[0] < w:
        s, n = _acot(3, w + 32, 1)
        _LN2[:] = w + 32, 2 * s, 2 * n + 4
    cw, lo, err = _LN2
    return lo >> cw - w, -(-(lo + err) >> cw - w)


def _exp_fixed_core(m: int, e: int, v: int) -> Tuple[int, int, int]:
    """(lo, hi, f) with lo 2^f <= exp(m 2^e) <= hi 2^f and hi - lo < 2^-v lo.

    x = n ln 2 + r with r in [0, ln 2], then e^r = (e^p)^(2^s), p = r/2^s:
    the Taylor series of e^p in units of 2^-w, its even terms and its odd
    ones over p summed apart, two terms for each product (as mpmath sums
    it), then s squarings.  Every step rounds down, so each term is within
    3 units of its true value and the series within 3k + 8 units (k - 2
    terms, the product by p, and a tail below 6 units), 4d more for the
    width d of p.  Each squaring multiplies the gap by at most
    2 e^(r/2^(s-i)), whose product over the squarings is below 2^(s+2),
    and adds 2 units.
    """
    s = isqrt(v) >> 1
    w = v + s + 2 * v.bit_length()
    wx = w + s + max(e + m.bit_length(), 0) + 4  # n ln 2 to a unit of 2^-(w+s)
    x_lo = m << e + wx if e + wx >= 0 else m >> -e - wx
    x_hi = x_lo + (e + wx < 0)
    c_lo, c_hi = _ln2(wx)
    n = x_lo // (c_hi if x_lo >= 0 else c_lo)  # so that r >= 0
    r_lo, r_hi = x_lo - n * (c_hi if n >= 0 else c_lo), x_hi - n * (c_lo if n >= 0 else c_hi)
    p = r_lo >> wx - w + s
    d = (r_hi >> wx - w + s) + 1 - p
    even = odd = 1 << w
    a = p2 = p * p >> w
    k = 2
    while a:
        a //= k
        even += a
        a //= k + 1
        odd += a
        a = a * p2 >> w
        k += 2
    total = even + (odd * p >> w)
    for _ in range(s):
        total = total * total >> w
    return total, total + (3 * k + 4 * d + 10 << s + 2), n - w


def _atanh_fixed(u: int, w: int) -> Tuple[int, int]:
    """atanh(u 2^-w) in units of 2^-w for |u| < 2^(w-1): the series of |u|,
    two terms for each product (u^(4i+1)/(4i+1), and u^(4i+3)/(4i+3) over
    u^2, summed apart, as mpmath sums it), every power and term rounded
    down (each within 3 units), to the first zero power (the tail below
    one unit)."""
    if u < 0:
        lo, hi = _atanh_fixed(-u, w)
        return -hi, -lo
    u2 = u * u >> w
    u4 = u2 * u2 >> w
    even, odd, power, k = u, u // 3, u, 1
    while power:
        power = power * u4 >> w
        k += 4
        even += power // k
        odd += power // (k + 2)
    total = even + (odd * u2 >> w)
    return total, total + 2 * k + 8


_LOG_BITS = 7
_LOG_TABLE: dict = {}  # (n, w) -> log(n 2^-_LOG_BITS) in units of 2^-w, rounded outward


def _log_entry(n: int, w: int) -> Tuple[int, int]:
    """log(n 2^-_LOG_BITS) = 2 atanh(p/q), p = n - 2^_LOG_BITS and
    q = n + 2^_LOG_BITS, |p/q| <= 1/3, in units of 2^-w: each power of p/q
    from the last, rounded down (within 2 units), and each term, to the
    first zero power.  Cached."""
    entry = _LOG_TABLE.get((n, w))
    if entry is None:
        p, q = n - (1 << _LOG_BITS), n + (1 << _LOG_BITS)
        p2, q2 = p * p, q * q
        total = power = (abs(p) << w) // q
        k = 1
        while power:
            power = power * p2 // q2
            k += 2
            total += power // k
        lo, hi = 2 * total, 2 * (total + k + 4)
        entry = _LOG_TABLE[n, w] = (lo, hi) if p >= 0 else (-hi, -lo)
    return entry


def _log_fixed_core(man: int, exp: int, prec: int) -> Tuple[int, int, int]:
    """(lo, hi, w) with lo 2^-w <= log(man 2^exp) <= hi 2^-w, man > 0 and
    man 2^exp != 1, for a result of prec + _EXTRA significant bits.

    x = y 2^k with y in [1, 2), or y = x in [1/2, 2), where w grows by
    twice the bits log x loses to x - 1 (so a result next to a rounding
    boundary of x - 1 is told apart).  With a = n 2^-_LOG_BITS the table
    point nearest y, log y = log a + 2 atanh(t), t = (y - a)/(y + a) and
    |t| <= 2^-(_LOG_BITS+2), where t grows with y and atanh with t at
    slopes below 2.  The sums run in units 2^-g, g = w + 10, and are
    rounded outward to units of 2^-w: their error bounds, which grow with
    the number of terms, reach about 2^9 units of 2^-g at g = 260."""
    bc = man.bit_length()
    k = exp + bc - 1
    lost = 0
    if k in (-1, 0):
        k = 0
        lost = max(-exp - abs(man - (1 << -exp)).bit_length(), 0)
    w = prec + _EXTRA + 2 * lost
    g = w + 10
    e = exp - k + g
    y = man << e if e >= 0 else man >> -e  # within a unit below y 2^g
    n = (y >> g - _LOG_BITS - 1) + 1 >> 1
    a = n << g - _LOG_BITS
    a_lo, a_hi = _atanh_fixed((y - a << g) // (y + a), g)  # within 2 units below t 2^g
    l_lo, l_hi = _log_entry(n, g)
    lo, hi = l_lo + 2 * a_lo, l_hi + 2 * (a_hi + 4)
    if k:
        kb = abs(k).bit_length() + 2  # k ln 2 to a unit of 2^-g
        c_lo, c_hi = _ln2(g + kb)[::1 if k > 0 else -1]
        lo, hi = lo + (k * c_lo >> kb), hi - (-k * c_hi >> kb)
    return lo >> 10, -(-hi >> 10), w


def _exp(s: tuple, prec: int, rnd: str) -> tuple:
    """exp s correctly rounded at prec bits: ``mpf_exp`` (see above)."""
    if not s[1]:
        return _ONE if s == _ZERO else _ZERO if s == _NINF else s
    mag = s[2] + s[3]
    if mag < -prec - 2:  # e^s lies within a quarter unit of 1 in the last place
        return _make((1 << prec + 2) + (-1 if s[0] else 1), -prec - 2, prec, rnd)
    v = max(prec, -2 * mag) + _EXTRA  # tells e^s apart from 1 + s, s^2/2 away
    while True:
        lo, hi, f = _exp_fixed_core(_val(s), s[2], v)
        result = _make(lo, f, prec, rnd)
        if result == _make(hi, f, prec, rnd):
            return result
        v *= 2


def _log(s: tuple, prec: int, rnd: str) -> tuple:
    """log s correctly rounded at prec bits: ``mpf_log`` (see above)."""
    if s == _ZERO:
        return _NINF
    if s[0]:
        raise DomainError("logarithm of a negative number")
    if not s[1] or s == _ONE:
        return _ZERO if s == _ONE else s
    bits = prec
    while True:
        lo, hi, w = _log_fixed_core(s[1], s[2], bits)
        result = _make(lo, -w, prec, rnd)
        if result == _make(hi, -w, prec, rnd):
            return result
        bits *= 2


@lru_cache(maxsize=8)
def _pi(prec: int) -> tuple:
    """pi = 16 atan(1/5) - 4 atan(1/239) (Machin) rounded outward at prec
    bits: ``mpi_pi``."""
    w = prec + 64
    (a, m), (b, n) = _acot(5, w, -1), _acot(239, w, -1)
    lo, hi = 16 * (a - m - 2) - 4 * (b + n + 2), 16 * (a + m + 2) - 4 * (b - n - 2)
    return _make(lo, -w, prec, _F), _make(hi, -w, prec, _C)
