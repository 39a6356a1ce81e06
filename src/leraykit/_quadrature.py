"""Adaptive 21-point Gauss-Kronrod quadrature in double precision.

The rule is QUADPACK's QK21 (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983): the 10-point Gauss rule embedded in
its 21-point Kronrod extension, with QK21's error formula.  The adaptive
loop bisects the subinterval with the largest error estimate until the
summed estimate reaches ``epsabs`` or ``limit`` subintervals are in use.

Only the ``certify`` cross-checks integrate numerically; this module needs
nothing beyond the standard library, so no command loads scipy or numpy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

__all__ = ["quad"]

# Kronrod abscissae on [0, 1); the odd entries (index 1, 3, ..) are the
# 10-point Gauss abscissae.  The centre 0 is the Kronrod node alone.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525342025,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
# Gauss weights of the abscissae _XGK[1], _XGK[3], .., _XGK[9]
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = 2.0 ** -52


def _qk21(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """(Kronrod value, QK21 error estimate) of f over [a, b].

    A non-finite value gets an infinite estimate, which no tolerance meets.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    pairs = [(f(centre - half * x), f(centre + half * x)) for x in _XGK]
    resk = _WGK_CENTRE * fc + sum(w * (f1 + f2) for w, (f1, f2) in zip(_WGK, pairs))
    resg = sum(w * (f1 + f2) for w, (f1, f2) in zip(_WG, pairs[1::2]))
    if not math.isfinite(resk):
        return resk, math.inf
    resabs = _WGK_CENTRE * abs(fc) + sum(
        w * (abs(f1) + abs(f2)) for w, (f1, f2) in zip(_WGK, pairs)
    )
    mean = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - mean) + sum(
        w * (abs(f1 - mean) + abs(f2 - mean)) for w, (f1, f2) in zip(_WGK, pairs)
    )
    width = abs(half)
    resabs *= width
    resasc *= width
    error = abs((resk - resg) * half)
    if resasc != 0 and error != 0:
        error = resasc * min(1.0, (200 * error / resasc) ** 1.5)
    return resk * half, max(50 * _EPS * resabs, error)


def quad(
    f: Callable[[float], float],
    ends: Sequence[float],
    epsabs: float,
    limit: int,
) -> Tuple[float, float]:
    """(integral, error estimate) of f over [ends[0], ends[-1]].

    The inner ends are breakpoints: each interval between consecutive ends
    starts as its own subinterval.  A last end of ``math.inf`` maps its
    interval [a, inf) onto (0, 1] by x = a + (1 - s)/s.  Subintervals are
    bisected, largest estimate first, until the summed estimate is at most
    ``epsabs`` or ``limit`` subintervals are in use.  Callers test the
    estimate as ``not error <= target``: if f returned a non-finite value the
    estimate is ``math.inf`` and the value ``math.nan``.
    """
    pieces = []  # (error, a, b, value, integrand), oldest first
    for a, b in zip(ends, ends[1:]):
        g = f
        if b == math.inf:
            g = lambda s, a=a: f(a + (1 - s) / s) / (s * s)
            a, b = 0.0, 1.0
        value, error = _qk21(g, a, b)
        pieces.append((error, a, b, value, g))
    while True:
        error = math.fsum(p[0] for p in pieces)
        if error <= epsabs or len(pieces) >= limit or not math.isfinite(error):
            break
        worst = max(range(len(pieces)), key=lambda i: pieces[i][0])
        _, a, b, _, g = pieces.pop(worst)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            value, piece_error = _qk21(g, lo, hi)
            pieces.append((piece_error, lo, hi, value, g))
    if not math.isfinite(error):
        return math.nan, math.inf
    return math.fsum(p[3] for p in pieces), error
