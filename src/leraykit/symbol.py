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

Every value carries a certified error radius (see :mod:`leraykit.specialfn`),
so strict comparisons between modes can be made with the radii separating
the values.  One mode is computed in log-Gamma space (`symbol_value`).  A
run of modes 0..k_max of one (gamma, d), which `monotonicity_scan` and the
command line's j-sweep ask for, is walked (`_mode_walk`): for gamma = m/n
with m <= 64, modes 0..m-1 are `symbol_value` and each later mode is the
mode m steps back times the exact rational J(k)/J(k-m) that
Gamma(x+1) = x Gamma(x) gives, applied to a fixed-point interval with
outward rounding.  A walked mode keeps the relative radius of its base
mode, up to about 2.3e-24 at 120 or 200 bits, the log-Gamma truncation
floor; a direct evaluation at a large k can be far narrower (1.2e-36
relative at gamma = 5, d = 3, k = 200).  Any other gamma evaluates every
mode.  No function here takes a tolerance: each returns its certified
enclosure at the working precision, and the command line rejects a printed
radius above ``--tolerance``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import exp, fsum, inf, isfinite, lgamma, log, nextafter, prod
from typing import Iterator, List, Optional, Tuple

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
    _bounded,
    _dyadic_of,
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


class _Record:
    """An immutable record: the constructor sets the fields named in
    _FIELDS once, and ==, hash and repr read them, as they do for a frozen
    dataclass.  (The dataclasses module would bring inspect along.)"""

    _FIELDS: Tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._FIELDS, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__name__}({body})"


def _require_bounded(gamma: float, d: float, k: int) -> None:
    if not _in_interval_exact(d, gamma, k):
        lo, hi = boundedness_interval(gamma, k)
        raise UnboundedMode(
            f"d={d} outside the k={k} boundedness interval ({lo:.6g}, {hi:.6g}) for gamma={gamma}"
        )


class SymbolQuery(_Record):
    """(gamma, d, k) triple addressing one symbol value / mode norm."""

    _FIELDS = ("gamma", "d", "k")
    gamma: float
    d: float
    k: int

    def __init__(self, gamma: float, d: float, k: int) -> None:
        _require_gamma(gamma)
        _require_finite("d", d)
        if k < 0:
            raise DomainError("mode index k must be non-negative")
        if isinstance(k, float) and not k.is_integer():
            raise DomainError(f"mode index k must be an integer (got {k!r})")
        self._set(gamma, d, int(k))  # the fixed-point kernels take a Python int

    @cached_property
    def _exact_a_b(self) -> Tuple[int, int, int]:
        """`_exact_a_b` of this triple, computed once for every question asked of it."""
        return _exact_a_b(self.gamma, self.d, self.k)

    def is_finite(self) -> bool:
        p, p_prime, _ = self._exact_a_b
        return p > 0 and p_prime > 0


class MeasureTag(_Record):
    """A named measure r^d dr dtheta ds.

    kind 'generic' carries an explicit exponent; every other kind is a key
    of DISTINGUISHED_MEASURES and resolves its exponent from gamma:

        pairing        d = gamma - 1
        preferred      d = (gamma + 1)/3
        dual_preferred d = (5 gamma - 7)/3
        lebesgue       d = 1
    """

    _FIELDS = ("kind", "d")
    kind: str
    d: Optional[float]

    def __init__(self, kind: str, d: Optional[float] = None) -> None:
        if kind != "generic" and kind not in DISTINGUISHED_MEASURES:
            raise DomainError(f"unknown measure kind {kind!r}")
        if kind == "generic" and d is None:
            raise DomainError("generic measure requires an explicit exponent d")
        if d is not None:
            _require_finite("d", d)
        self._set(kind, d)

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


class HolderReparam(_Record):
    """Exponent reparameterization d = a (gamma - 2) + 1.

    The map is a bijection in d for every gamma != 2, and carrying `a`
    across gamma -> gamma* realizes the conjugation symmetry of the symbol.
    The companion parameter q = 1 - a controls the polygamma comparison:
    J(d, gamma, k) is finite for every mode k exactly when d lies in
    I_0(gamma), i.e. |q| < gamma / |gamma - 2|.  `all_modes_finite` decides
    that with the exact test of `symbol_value`, at the double d that
    `exponent` returns.
    """

    _FIELDS = ("a",)
    a: float

    def __init__(self, a: float) -> None:
        _require_finite("a", a)
        self._set(a)

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
    f_lo, f_hi = _log_gamma((k + 1, k + 1, 0))  # log k!
    # B ln(gamma - 1) with B > 0, in units of 2^-w
    bg_lo = _shift(b[0 if g_lo >= 0 else 1] * g_lo, b[2])
    bg_hi = _shift(b[1 if g_hi >= 0 else 0] * g_hi, b[2], True)
    lo = a_lo + b_lo - 2 * f_hi + (2 * k + 2) * h_lo - bg_hi
    hi = a_hi + b_hi - 2 * f_lo + (2 * k + 2) * h_hi - bg_lo
    return _exp_fixed(lo, hi, w)


# `_mode_walk` steps a gamma = m/n whose numerator m is at most this.  A
# step's integers grow with m: in process, one step took 4 us at m = 5,
# 33 us at m = 64 and 91 us at m = 128, against 64 us for one `symbol_value`.
_WALK_PERIOD = 64


def _scaled(x: tuple, num: int, den: int, w: int) -> tuple:
    """The positive dyadic interval x = (lo, hi, f) times num/den, rounded
    outward to a lower end of exactly w bits."""
    lo, hi, f = x
    t = max(w + den.bit_length() - num.bit_length() - lo.bit_length() + 2, 0)
    lo, hi = (lo * num << t) // den, -((-hi * num << t) // den)  # lo now has more than w bits
    s = lo.bit_length() - w
    return lo >> s, -((-hi) >> s), f - t + s


def _mode_walk(gamma: float, d: float, k_max: int) -> Iterator[BoundedFloat]:
    """J(d, gamma, k) for k = 0 .. k_max in turn, each a certified
    enclosure, computed as it is asked for.

    With gamma = m/n in lowest terms and m <= _WALK_PERIOD, modes 0 .. m-1
    are `symbol_value` and every later mode k is mode k - m times the exact
    rational J(k)/J(k-m).  Over m modes A grows by exactly 2n and B by
    2(m-n), so Gamma(x+1) = x Gamma(x) gives, with A = p/q and B = p'/q at
    mode k - m (`_exact_a_b`),

        prod_{i<2n} (p + iq) prod_{i<2m-2n} (p' + iq) m^2m n^(2m-2n)
        / (q^2m ((k-m+1) ... k)^2 (2n)^2m (m-n)^(2m-2n)).

    A step multiplies a fixed-point interval by the numerator and divides by
    the denominator, floor below and ceiling above, and renormalises to
    w = prec + _GUARD bits: no log and no exp, and a relative widening of
    a few units of 2^-w per step, so a walked mode keeps the relative radius
    of its base mode.  Any other gamma takes `symbol_value` at every mode.
    Raises what `symbol_value` raises at mode 0.
    """
    SymbolQuery(gamma, d, 0)  # a gamma <= 1 or a non-finite gamma or d is a DomainError here
    m, n = map(int, Fraction(gamma).as_integer_ratio())
    walk = m <= min(_WALK_PERIOD, k_max)  # a short period, and a mode to step to
    ring = []  # the last m modes as dyadic intervals, mode k at k mod m
    for k in range(m if walk else k_max + 1):
        value = symbol_value(SymbolQuery(gamma, d, k))
        if walk:
            ring.append(_dyadic_of(value))
        yield value
    if not walk:
        return
    w = precision_bits() + _GUARD
    p, p_prime, q = _exact_a_b(gamma, d, 0)
    # a mode on, A grows by 2n/m and B by 2(m-n)/m; q is m times d's denominator
    dp, dp_prime = 2 * n * q // m, 2 * (m - n) * q // m
    num_const = m ** (2 * m) * n ** (2 * m - 2 * n)
    den_const = (2 * n) ** (2 * m) * (m - n) ** (2 * m - 2 * n) * q ** (2 * m)
    for k in range(m, k_max + 1):
        j = k - m
        a, b = p + j * dp, p_prime + j * dp_prime
        num = num_const * prod(a + i * q for i in range(2 * n)) * prod(b + i * q for i in range(2 * m - 2 * n))
        den = den_const * prod(range(j + 1, k + 1)) ** 2
        ring[j % m] = _scaled(ring[j % m], num, den, w)
        yield _bounded(ring[j % m])


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
    no unique partner exists there.  A double a or d' past the double
    range is a DomainError.
    """
    gs = holder_conjugate(gamma)
    d_star = HolderReparam.from_exponent(gamma, d).exponent(gs)
    _require_finite("d'", d_star)
    return gs, d_star


def hf_limit(gamma: float) -> float:
    """High-frequency limit of the mode norms: sqrt(gamma/(2 sqrt(gamma-1))).

    Independent of d, and invariant under gamma -> gamma*.
    """
    _require_gamma(gamma)
    return float(_hf_limit_bf(gamma))


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


class ScanResult(_Record):
    _FIELDS = ("classification", "witness_k")
    classification: Monotonicity
    witness_k: Optional[int]  # first turning index for NON_MONOTONE

    def __init__(self, classification: Monotonicity, witness_k: Optional[int] = None) -> None:
        self._set(classification, witness_k)


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
    values = _mode_walk(gamma, d, k_max)
    if gamma == 2 and d == 1:
        for k, v in enumerate(values):
            if not v.contains(1):
                raise InconclusiveComparison(f"expected constant 1, J at k={k} excludes it")
        return ScanResult(Monotonicity.CONSTANT)

    direction = 0  # +1 increasing, -1 decreasing
    a = next(values)
    for k, b in enumerate(values):
        if b.separated_above(a):
            step = 1
        elif b.separated_below(a):
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
class NormResult(_Record):
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

    _FIELDS = ("value", "method", "gamma", "d", "attained_at", "k_scanned", "stabilized")
    value: BoundedFloat
    method: str
    gamma: float
    d: float
    attained_at: Optional[int]  # None: supremum is the HF limit
    k_scanned: int
    stabilized: Optional[bool]

    def __init__(self, value: BoundedFloat, method: str, gamma: float, d: float,
                 attained_at: Optional[int] = None, k_scanned: int = 0,
                 stabilized: Optional[bool] = None) -> None:
        self._set(value, method, gamma, d, attained_at, k_scanned, stabilized)


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
    rho = 2 * 4 * _log_gamma_floor() + (mag + cond) * 2.0 ** (_SCREEN_ROUNDING_BITS - prec)
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


def _enclose(x: BoundedFloat) -> Tuple[float, float]:
    """The doubles on either side of float(x): a bracket of x's midpoint."""
    f = float(x)
    return nextafter(f, -inf), nextafter(f, inf)


def _band(x: "float | Fraction") -> int:
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
        self.bracket = _sqrt_j_bracket(gamma, d, k) if value is None else _enclose(value)
        if self.bracket is None:
            self.certified()

    def certified(self) -> BoundedFloat:
        if self.value is None:
            self.value = symbol_value(SymbolQuery(self.gamma, self.d, self.k)).sqrt()
            self.bracket = _enclose(self.value)
        return self.value

    def exceeds(self, other: "_Mode") -> bool:
        """Is the midpoint of this mode strictly above that of `other`?"""
        (lo, hi), (o_lo, o_hi) = self.bracket, other.bracket
        if lo > o_hi or hi <= o_lo:  # the brackets settle it
            return lo > o_hi
        return self.certified()._mid_minus(other.certified()) > 0

    def band(self, limit: "_Mode") -> int:
        """`_band` of the midpoint of this mode minus that of the limit."""
        (lo, hi), (l_lo, l_hi) = self.bracket, limit.bracket
        # the pad covers the float subtractions and the rounding of the
        # certified difference at the working precision
        pad = _SCREEN_PAD * (hi + l_hi)
        low, high = _band(lo - l_hi - pad), _band(hi - l_lo + pad)
        if low == high:
            return low
        return _band(self.certified()._mid_minus(limit.value))


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
