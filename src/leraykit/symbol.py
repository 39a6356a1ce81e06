"""The spectral symbol function of the sub-Leray operators on M_gamma.

For the measure r^d dr dtheta ds on the hypersurface
Im(zeta_2) = |zeta_1|^gamma (gamma > 1), the k-th Fourier-mode operator has
squared norm

    J(d, gamma, k) = Gamma(A) Gamma(B) / Gamma(k+1)^2
                     * (gamma/2)^(2k+2) * (gamma-1)^(-B),

    A = (2k+1+d)/gamma,  B = 2k+2 - A,

finite exactly when d lies in the open interval
I_k(gamma) = (-2k-1, (2k+2)(gamma-1)+1) (equivalently A > 0 and B > 0).
The mode norm is sqrt(J); the full operator norm is the supremum over k,
and the modes stabilize to the k -> infinity limit
sqrt(gamma / (2 sqrt(gamma-1))) regardless of d.

Everything is computed in log-Gamma space with certified error radii (see
:mod:`leraykit.specialfn`), so strict comparisons between modes can be made
with the radii separating the values.  No function here takes a tolerance:
each returns its certified enclosure at the working precision, and the
command line rejects a printed radius above ``--tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import exp, fsum, inf, isfinite, lgamma, log, nextafter
from typing import List, Optional, Tuple

from .errors import (
    DegenerateGamma,
    DomainError,
    InconclusiveComparison,
    UnboundedMode,
)
from .measures import DISTINGUISHED_MEASURES
from .specialfn import (
    _GUARD,
    BoundedFloat,
    _exp_fixed,
    _log_fixed,
    _log_gamma,
    _log_gamma_floor,
    _ratio,
    _require_finite,
    _shift,
    precision_bits,
)

__all__ = [
    "SymbolQuery",
    "MeasureTag",
    "HolderReparam",
    "Monotonicity",
    "ScanResult",
    "NormResult",
    "DISTINGUISHED_MEASURES",
    "boundedness_interval",
    "symbol_value",
    "holder_conjugate",
    "holder_partner",
    "hf_limit",
    "leray_norm",
    "monotonicity_scan",
    "sup_search",
]


def _require_gamma(gamma: float) -> None:
    _require_finite("gamma", gamma)
    if not gamma > 1:
        raise DomainError(f"gamma must exceed 1 (got {gamma})")


def boundedness_interval(gamma: float, k: int) -> Tuple[float, float]:
    """Open interval I_k(gamma) of measure exponents d for which the k-th
    mode operator is bounded.  Nested: I_k is contained in I_{k+1}.  A
    Fraction gamma gives the exact endpoints."""
    _require_gamma(gamma)
    if k < 0:
        raise DomainError("mode index k must be non-negative")
    return (-2 * k - 1, (2 * k + 2) * (gamma - 1) + 1)


def _exact_a_b(gamma: float, d: float, k: int) -> Tuple[int, int, int]:
    """(p, p', q) with A = p/q, B = p'/q and q > 0, in exact integers, for
    a rational gamma > 1 (an int, float or Fraction) and d."""
    gn, gd, dn, dd = map(int, Fraction(gamma).as_integer_ratio() + Fraction(d).as_integer_ratio())
    return (dn + (2 * k + 1) * dd) * gd, (2 * k + 2) * (gn - gd) * dd + (dd - dn) * gd, dd * gn


def _in_interval_exact(d: float, gamma: float, k: int) -> bool:
    # A > 0 and B > 0 exactly: d lies in I_k(gamma)
    p, p_prime, _ = _exact_a_b(gamma, d, k)
    return p > 0 and p_prime > 0


def _require_bounded(gamma: float, d: float, k: int) -> None:
    if not _in_interval_exact(d, gamma, k):
        lo, hi = boundedness_interval(gamma, k)
        raise UnboundedMode(
            f"d={d} outside the k={k} boundedness interval ({lo:.6g}, {hi:.6g}) for gamma={gamma}"
        )


@dataclass(frozen=True)
class SymbolQuery:
    """(gamma, d, k) triple addressing one symbol value / mode norm."""

    gamma: float
    d: float
    k: int

    def __post_init__(self) -> None:
        _require_gamma(self.gamma)
        _require_finite("d", self.d)
        if self.k < 0:
            raise DomainError("mode index k must be non-negative")
        if isinstance(self.k, float) and not self.k.is_integer():
            raise DomainError(f"mode index k must be an integer (got {self.k!r})")
        object.__setattr__(self, "k", int(self.k))  # the fixed-point kernels take a Python int

    @cached_property
    def _exact_a_b(self) -> Tuple[int, int, int]:
        """`_exact_a_b` of this triple, computed once for every question asked of it."""
        return _exact_a_b(self.gamma, self.d, self.k)

    def is_finite(self) -> bool:
        p, p_prime, _ = self._exact_a_b
        return p > 0 and p_prime > 0


@dataclass(frozen=True)
class MeasureTag:
    """A named measure r^d dr dtheta ds.

    kind 'generic' carries an explicit exponent; every other kind is a key
    of DISTINGUISHED_MEASURES and resolves its exponent from gamma:

        pairing        d = gamma - 1
        preferred      d = (gamma + 1)/3
        dual_preferred d = (5 gamma - 7)/3
        lebesgue       d = 1
    """

    kind: str
    d: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind != "generic" and self.kind not in DISTINGUISHED_MEASURES:
            raise DomainError(f"unknown measure kind {self.kind!r}")
        if self.kind == "generic" and self.d is None:
            raise DomainError("generic measure requires an explicit exponent d")
        if self.d is not None:
            _require_finite("d", self.d)

    @classmethod
    def generic(cls, d: float) -> "MeasureTag":
        return cls("generic", float(d))

    @classmethod
    def pairing(cls) -> "MeasureTag":
        return cls("pairing")

    @classmethod
    def preferred(cls) -> "MeasureTag":
        return cls("preferred")

    @classmethod
    def dual_preferred(cls) -> "MeasureTag":
        return cls("dual_preferred")

    @classmethod
    def lebesgue(cls) -> "MeasureTag":
        return cls("lebesgue")

    def exponent(self, gamma: float) -> float:
        _require_gamma(gamma)
        if self.kind == "generic":
            return float(self.d)  # type: ignore[arg-type]
        return float(DISTINGUISHED_MEASURES[self.kind][0](gamma))


@dataclass(frozen=True)
class HolderReparam:
    """Exponent reparameterization d = a (gamma - 2) + 1.

    The map is a bijection in d for every gamma != 2, and carrying `a`
    across gamma -> gamma* realizes the conjugation symmetry of the symbol.
    The companion parameter q = 1 - a controls the polygamma comparison:
    J(d, gamma, k) is finite for every mode k exactly when d lies in
    I_0(gamma), i.e. |q| < gamma / |gamma - 2|.  `all_modes_finite` decides
    that with the exact test of `symbol_value`, at the double d that
    `exponent` returns.
    """

    a: float

    @property
    def q(self) -> float:
        return 1.0 - self.a

    def exponent(self, gamma: float) -> float:
        _require_gamma(gamma)
        return self.a * (gamma - 2) + 1

    @classmethod
    def from_exponent(cls, gamma: float, d: float) -> "HolderReparam":
        _require_gamma(gamma)
        _require_finite("d", d)
        if gamma == 2:
            raise DegenerateGamma("gamma = 2: every a yields d = 1")
        return cls((d - 1) / (gamma - 2))

    def all_modes_finite(self, gamma: float) -> bool:
        d = self.exponent(gamma)
        return isfinite(d) and _in_interval_exact(d, gamma, 0)


@lru_cache(maxsize=64)
def _gamma_logs(gamma: float, prec: int) -> tuple:
    """ln(gamma/2) and ln(gamma-1) in units of 2^-(prec + _GUARD)."""
    gn, gd = map(int, Fraction(gamma).as_integer_ratio())
    w = prec + _GUARD
    return _log_fixed(_ratio(gn, 2 * gd, w), w), _log_fixed(_ratio(gn - gd, gd, w), w)


@lru_cache(maxsize=256)
def _log_factorial(k: int, prec: int) -> Tuple[int, int]:
    """log Gamma(k + 1) = log k! in units of 2^-(prec + _GUARD).

    The columns of the `figures` j-sweep share their modes, so four in five
    of its calls repeat; a norm search asks for each k once."""
    return _log_gamma((k + 1, k + 1, 0))


def symbol_value(query: "SymbolQuery | Tuple[float, float, int]") -> BoundedFloat:
    """J(d, gamma, k) > 0 with certified radius; the mode norm is its
    square root.

    Raises UnboundedMode when d lies outside I_k(gamma) (the mode norm is
    infinite there).

    log J is assembled in one fixed-point pass from the exact A = p/q and
    B = p'/q of `_exact_a_b`, each rounded outward to a dyadic interval, and
    exponentiated once.
    """
    if not isinstance(query, SymbolQuery):
        query = SymbolQuery(*query)
    gamma, k = query.gamma, query.k
    if not query.is_finite():
        _require_bounded(gamma, query.d, k)
    p, p_prime, q = query._exact_a_b
    prec = precision_bits()
    w = prec + _GUARD
    (h_lo, h_hi), (g_lo, g_hi) = _gamma_logs(gamma, prec)
    b = _ratio(p_prime, q, w)
    a_lo, a_hi = _log_gamma(_ratio(p, q, w))
    b_lo, b_hi = _log_gamma(b)
    f_lo, f_hi = _log_factorial(k, prec)
    # B ln(gamma - 1) with B > 0, in units of 2^-w
    bg_lo = _shift(b[0 if g_lo >= 0 else 1] * g_lo, b[2])
    bg_hi = _shift(b[1 if g_hi >= 0 else 0] * g_hi, b[2], True)
    lo = a_lo + b_lo - 2 * f_hi + (2 * k + 2) * h_lo - bg_hi
    hi = a_hi + b_hi - 2 * f_lo + (2 * k + 2) * h_hi - bg_lo
    return _exp_fixed(lo, hi, w)


def holder_conjugate(gamma: float) -> float:
    """gamma* = gamma/(gamma - 1); an involution on (1, infinity).  A
    double gamma above about 2^53, where gamma* rounds to 1, is a
    DomainError."""
    _require_gamma(gamma)
    conjugate = gamma / (gamma - 1)
    if not conjugate > 1:
        raise DomainError(f"gamma* = gamma/(gamma - 1) rounds to {conjugate} for gamma={gamma}")
    return conjugate


def holder_partner(gamma: float, d: float) -> Tuple[float, float]:
    """The unique (gamma*, d') whose symbol function matches (gamma, d)
    mode for mode: d' is the exponent at gamma* of
    ``HolderReparam.from_exponent(gamma, d)``.

    For doubles, gamma* and d' are computed in doubles and can differ from
    the exact partner by rounding: ``holder_partner(1.5, 0.3)`` gives
    d' = 2.4, about 1.1e-16 from the exact partner of those two doubles.
    Fraction arguments give the exact partner, which is what a comparison
    of norms across the map needs.

    gamma = 2 is degenerate (every exponent reparameterizes to d = 1), so
    no unique partner exists there.
    """
    gs = holder_conjugate(gamma)
    return gs, HolderReparam.from_exponent(gamma, d).exponent(gs)


def hf_limit(gamma: float) -> float:
    """High-frequency limit of the mode norms: sqrt(gamma/(2 sqrt(gamma-1))).

    Independent of d, and invariant under gamma -> gamma*.
    """
    _require_gamma(gamma)
    return float(_hf_limit_bf(gamma).value)


def _hf_limit_bf(gamma: float) -> BoundedFloat:
    g = BoundedFloat.exact(gamma)
    return (g / ((g - 1).sqrt() * 2)).sqrt()


# ----------------------------------------------------------------------
# monotonicity scans
# ----------------------------------------------------------------------
class Monotonicity(str, Enum):
    STRICTLY_DECREASING = "strictly-decreasing"
    STRICTLY_INCREASING = "strictly-increasing"
    NON_MONOTONE = "non-monotone"
    CONSTANT = "constant"


@dataclass(frozen=True)
class ScanResult:
    classification: Monotonicity
    witness_k: Optional[int] = None  # first turning index for NON_MONOTONE


def monotonicity_scan(gamma: float, d: float, k_max: int) -> ScanResult:
    """Classify k |-> J(d, gamma, k) on 0..k_max with strict comparisons
    separated by the error radii.

    CONSTANT is claimed only for the exactly-constant case gamma = 2, d = 1.
    Raises InconclusiveComparison when adjacent radii overlap; a higher
    LERAYKIT_PRECISION_BITS narrows the rounding part of the radii.
    """
    _require_gamma(gamma)
    _require_finite("d", d)
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    _require_bounded(gamma, d, 0)
    # one mode at a time, so a turning index ends the scan
    values = (symbol_value(SymbolQuery(gamma, d, k)) for k in range(k_max + 1))
    if gamma == 2 and d == 1:
        for k, v in enumerate(values):
            if not v.contains(1):
                raise InconclusiveComparison(f"expected constant 1, J at k={k} excludes it")
        return ScanResult(Monotonicity.CONSTANT)

    direction = 0  # +1 increasing, -1 decreasing
    a = next(values)
    for k, b in enumerate(values):
        if b.lower > a.upper:
            step = 1
        elif b.upper < a.lower:
            step = -1
        else:
            raise InconclusiveComparison(
                f"J at k={k} and k={k + 1} not separated by radii; raise LERAYKIT_PRECISION_BITS"
            )
        if direction == 0:
            direction = step
        elif step != direction:
            return ScanResult(Monotonicity.NON_MONOTONE, witness_k=k)
        a = b
    return ScanResult(
        Monotonicity.STRICTLY_INCREASING if direction > 0 else Monotonicity.STRICTLY_DECREASING
    )


# ----------------------------------------------------------------------
# operator norm
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NormResult:
    """Operator norm value with provenance.

    method is 'closed-form' when a proven formula applies: gamma = 2, a
    named measure with a closed form in DISTINGUISHED_MEASURES, or a
    generic d that equals such a measure's exponent exactly, as rationals
    at the double gamma.  Otherwise it is 'sup-search', which scans modes
    until they stabilize near the high-frequency limit.  The stabilization
    cutoff is a heuristic: the limit is proven but no uniform rate is, so
    the result records how far the scan went and whether it stabilized:
    `k_scanned` is the third element of `sup_search`, the index of the mode
    a stabilized search stopped at (one fewer than the modes it examined),
    or k_cap + 1, the modes examined, when the search reached the cap.
    `value` is always a certified interval, from `symbol_value` at the
    reported mode or from the limit's closed form; the search only uses
    double-precision brackets to decide which mode that is (see
    `sup_search`).
    """

    value: BoundedFloat
    method: str
    gamma: float
    d: float
    attained_at: Optional[int] = None  # None: supremum is the HF limit
    k_scanned: int = 0
    stabilized: Optional[bool] = None


_STABILIZATION_TOL = 1e-4
_STABILIZATION_RUN = 20

# Relative error allowed for the double-precision screen of sup_search: on
# log J it scales the magnitude sum of `_sqrt_j_bracket`, and it pads every
# double bracket and every float difference of brackets.  The rounding part
# of the certified log-J radius is allowed 2^_SCREEN_ROUNDING_BITS times the
# same magnitude sum in units of 2^-prec.
_SCREEN_PAD = 2.0 ** -40
_SCREEN_ROUNDING_BITS = 20


def _require_k_cap(k_cap: int) -> None:
    if not isinstance(k_cap, int) or k_cap < 0:
        raise DomainError(f"k_cap must be a non-negative integer (got {k_cap!r})")


def _log_j_screen(gamma: float, d: float, k: int) -> Optional[Tuple[float, float, float]]:
    """(log J in doubles, spread, rho) for mode k, or None when A or B is
    not positive in doubles.

    log J = lgamma(A) + lgamma(B) - 2 lgamma(k+1) + (2k+2) log(gamma/2)
    - B log(gamma-1) is summed with ``math.fsum``; its error is bounded by
    _SCREEN_PAD times mag, the sum of the terms' magnitudes plus
    A(|log A|+1) + B(|log B|+1) + 1 (the lgamma errors, and their
    sensitivity to the rounding of A and B).  B is formed as
    ((2k+2)(gamma-1) + 1 - d)/gamma, which keeps its relative accuracy
    when B is near zero.

    rho bounds the radius of the certified log J of `symbol_value`:
    2 * 4 `_log_gamma_floor` + (mag + cond) 2^(_SCREEN_ROUNDING_BITS - prec),
    where cond = (2k+2)(1/B + |log B| + |log(gamma-1)| + 1) covers an
    absolute error of (2k+2) 2^-prec in B (`symbol_value` rounds B from
    its exact ratio to a relative 2^-prec, so cond overstates it).  The
    certified midpoint of log J therefore lies within
    spread = _SCREEN_PAD mag + 2 rho of the float log J.  The first term
    bounds the four log-Gamma truncation remainders of log J (A, B and
    twice k+1), doubled: all four reach the floor when the arguments land
    on z = 16 (gamma = 2.5, d = 2, k = 1 has A = B = k+1 = 2, and a radius
    0.99999999999 times the four).
    """
    prec = precision_bits()
    a = (2 * k + 1 + d) / gamma
    b = fsum(((2 * k + 2) * (gamma - 1), 1.0, -d)) / gamma
    if not (a > 0 and b > 0):
        return None
    log_g1 = log(gamma - 1)
    terms = (lgamma(a), lgamma(b), -2 * lgamma(k + 1), (2 * k + 2) * log(gamma / 2), -b * log_g1)
    mag = fsum(map(abs, terms)) + a * (abs(log(a)) + 1) + b * (abs(log(b)) + 1) + 1
    cond = (2 * k + 2) * (1 / b + abs(log(b)) + abs(log_g1) + 1)
    rho = 2 * 4 * _log_gamma_floor(prec) + (mag + cond) * 2.0 ** (_SCREEN_ROUNDING_BITS - prec)
    return fsum(terms), _SCREEN_PAD * mag + 2 * rho, rho


def _sqrt_j_bracket(gamma: float, d: float, k: int) -> Optional[Tuple[float, float]]:
    """Doubles (lo, hi) around the midpoint of
    ``symbol_value(SymbolQuery(gamma, d, k)).sqrt()``, or None.

    The range of `_log_j_screen` halved and exponentiated, padded by the
    relative _SCREEN_PAD.  None when `_log_j_screen` gives none and when J
    is outside double range, so the certified value decides.
    """
    screen = _log_j_screen(gamma, d, k)
    if screen is None or not screen[0] + screen[1] < 709:  # exp would overflow
        return None
    log_j, spread, _ = screen
    return (
        exp((log_j - spread) / 2) * (1 - _SCREEN_PAD),
        exp((log_j + spread) / 2) * (1 + _SCREEN_PAD),
    )


def _enclose(x) -> Tuple[float, float]:
    """The doubles on either side of float(x): a bracket of the mpf x."""
    f = float(x)
    return nextafter(f, -inf), nextafter(f, inf)


def _band(x) -> int:
    """Where x = v - limit lies: 0 at or below -1e-4, 1 in (-1e-4, 0],
    2 in (0, 1e-4), 3 at or above 1e-4."""
    return (x > -_STABILIZATION_TOL) + (x > 0) + (x >= _STABILIZATION_TOL)


class _Mode:
    """A mode k of `sup_search` (k = None: the high-frequency limit, whose
    `value` is given): a double bracket of the midpoint of its certified
    sqrt J and, once a question needs it, that certified value.  A mode is
    certified at most once, and at once when `_sqrt_j_bracket` gives none."""

    def __init__(self, gamma: float, d: float, k: Optional[int], value: Optional[BoundedFloat] = None):
        self.gamma, self.d, self.k, self.value = gamma, d, k, value
        self.bracket = _sqrt_j_bracket(gamma, d, k) if value is None else _enclose(value.value)
        if self.bracket is None:
            self.certified()

    def certified(self) -> BoundedFloat:
        if self.value is None:
            self.value = symbol_value(SymbolQuery(self.gamma, self.d, self.k)).sqrt()
            self.bracket = _enclose(self.value.value)
        return self.value

    def exceeds(self, other: "_Mode") -> bool:
        """Is the midpoint of this mode strictly above that of `other`?"""
        (lo, hi), (o_lo, o_hi) = self.bracket, other.bracket
        if lo > o_hi or hi <= o_lo:  # the brackets settle it
            return lo > o_hi
        return self.certified().value > other.certified().value

    def band(self, limit: "_Mode") -> int:
        """`_band` of the midpoint of this mode minus that of the limit."""
        (lo, hi), (l_lo, l_hi) = self.bracket, limit.bracket
        # the pad covers the float subtractions and the rounding of the
        # certified difference at the working precision
        pad = _SCREEN_PAD * (hi + l_hi)
        low, high = _band(lo - l_hi - pad), _band(hi - l_lo + pad)
        if low == high:
            return low
        return _band(self.certified().value - limit.value.value)


def sup_search(
    gamma: float, d: float, k_cap: int = 2000
) -> Tuple[BoundedFloat, Optional[int], int, bool]:
    """Scan sqrt(J(d, gamma, k)) for k = 0.. and bracket the supremum.

    Stops once 20 successive values approach the high-frequency limit
    one-sidedly within 1e-4, or at k_cap.  Returns (sup value, argmax
    index or None when the limit dominates, k, stabilized flag), where k
    is the index of the mode the search stopped at when it stabilized, one
    fewer than the modes it examined, and k_cap + 1, the modes examined,
    when it reached the cap.

    Every decision is the one the certified midpoints of sqrt J give: is
    mode k a new best (midpoint strictly greater), is it within 1e-4 of
    the limit, and on which side.  Mode 0 is certified first.  Each later
    mode is screened by `_sqrt_j_bracket`, a double-precision bracket of
    its certified midpoint; a question the brackets settle by their
    margin (_SCREEN_PAD = 2^-40 relative) needs no certified value, and
    any other is decided by certified midpoints, computed at most once per
    mode.  The search holds three modes, the limit, the best so far and
    the current one, so its memory does not grow with k_cap.  The returned
    value is always certified: `symbol_value` at the argmax, or the
    closed-form limit.

    Raises DomainError for a gamma <= 1, a non-finite d or a k_cap that is
    not a non-negative integer, and UnboundedMode when d is outside
    I_0(gamma).
    """
    _require_gamma(gamma)
    _require_finite("d", d)
    _require_k_cap(k_cap)
    limit = _Mode(gamma, d, None, _hf_limit_bf(gamma))
    best = _Mode(gamma, d, 0, symbol_value(SymbolQuery(gamma, d, 0)).sqrt())
    run = 0  # n (-n): the last n modes lay within 1e-4 above (at or below) the limit
    k = 0
    while k <= k_cap:
        mode = _Mode(gamma, d, k) if k else best
        if mode.exceeds(best):
            best = mode
        side = mode.band(limit)
        if side in (1, 2):
            sign = 1 if side == 2 else -1
            run = run + sign if run * sign > 0 else sign
            if abs(run) >= _STABILIZATION_RUN:
                break
        else:
            run = 0
        k += 1
    stabilized = k <= k_cap
    if limit.exceeds(best):
        return limit.value, None, k, stabilized
    return best.certified(), best.k, k, stabilized


def leray_norm(gamma: float, measure: "MeasureTag | float", k_cap: int = 2000) -> NormResult:
    """Norm of the full transform on L^2(M_gamma, r^d dr dtheta ds).

    Closed forms (mode of attainment in parentheses):

    * gamma = 2, d in (-1, 3): sqrt(J(d, 2, 0))  = sqrt(pi/2 (1-d) sec(d pi/2))   (k=0)
    * d = 1:                   sqrt(J(1, gamma, 0))                               (k=0)
    * d = gamma - 1 (pairing): sqrt(J(d, gamma, 0)) = gamma/(2 sqrt(gamma-1))     (k=0)
    * d = (gamma+1)/3 (preferred): sqrt(gamma/(2 sqrt(gamma-1)))        (supremum = HF limit)

    A named measure takes its closed form at the double exponent
    `MeasureTag.exponent` gives.  A generic d takes one only when it equals
    the exponent exactly: Fraction(d) == (Fraction(gamma) + 1)/3, say, and
    not when it is merely within rounding of it.  Everything else,
    dual_preferred included, falls back to the mode scan (method
    'sup-search').  Raises UnboundedMode when d is outside I_0(gamma), and
    DomainError for a gamma <= 1, a non-finite d or a k_cap that is not a
    non-negative integer.
    """
    _require_gamma(gamma)
    _require_k_cap(k_cap)
    if not isinstance(measure, MeasureTag):
        measure = MeasureTag.generic(measure)
    d = measure.exponent(gamma)
    _require_finite("d", d)
    _require_bounded(gamma, d, 0)

    # a named kind has its own closed form, a generic d that of the first
    # distinguished measure whose exponent it equals as a rational
    generic = measure.kind == "generic"
    exact_gamma, exact_d = Fraction(gamma), Fraction(d)
    form = next((form for kind, (exponent, form) in DISTINGUISHED_MEASURES.items()
                 if kind == measure.kind or generic and exponent(exact_gamma) == exact_d), None)
    if form == "limit":
        return NormResult(_hf_limit_bf(gamma), "closed-form", gamma, d, attained_at=None)
    if form == "mode 0" or gamma == 2:
        value = symbol_value(SymbolQuery(gamma, d, 0)).sqrt()
        return NormResult(value, "closed-form", gamma, d, attained_at=0)

    value, argmax, scanned, stabilized = sup_search(gamma, d, k_cap=k_cap)
    return NormResult(
        value,
        "sup-search",
        gamma,
        d,
        attained_at=argmax,
        k_scanned=scanned,
        stabilized=stabilized,
    )
