"""Exact rational arithmetic and univariate/bivariate polynomial algebra.

Coefficients are `fractions.Fraction` (arbitrary precision, always in
canonical lowest terms), so every operation in this module is exact.  This
is the engine underneath the exact certificates: polynomial identities are
checked by structural equality of canonical forms (an identity between
rational functions is first multiplied through by its known denominator),
and positive-root counting uses Descartes' rule of signs on the coefficient
sign sequence.  ``RationalFunction`` reduces by polynomial gcd after every
operation; the certificates do not use it.

Representation conventions:

* ``RationalPolynomial`` stores dense coefficients in ascending-exponent
  order with no trailing zeros; the zero polynomial is the empty sequence.
* ``BivariatePolynomial`` stores a sparse map ``(j, k) -> Fraction`` for
  terms ``x^j y^k`` with no explicit zero entries.
* ``RationalFunction`` is a reduced quotient of two RationalPolynomials
  with monic denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import ZeroPolynomial

RationalLike = Union[int, str, Fraction]


def as_rational(x: RationalLike | float) -> Fraction:
    """Convert to an exact Fraction.

    Floats are converted exactly (every binary float is a dyadic rational);
    pass strings like ``"2/3"`` for non-dyadic inputs.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients.

    ``coefficients[n]`` is the coefficient of ``x**n``.  Instances are
    immutable; all arithmetic returns new canonical-form polynomials.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: Tuple[Fraction, ...] = tuple(coeffs)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: RationalLike) -> "RationalPolynomial":
        return cls((as_rational(c),))

    @classmethod
    def monomial(cls, c: RationalLike, n: int) -> "RationalPolynomial":
        """The single term c * x**n."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        return cls((Fraction(0),) * n + (as_rational(c),))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[RationalLike]) -> "RationalPolynomial":
        """Monic polynomial prod (x - r_i)."""
        p = cls.constant(1)
        for r in roots:
            p = p * cls((-as_rational(r), Fraction(1)))
        return p

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> Tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, n: int) -> Fraction:
        """Coefficient of x**n (zero beyond the stored range)."""
        if 0 <= n < len(self._coeffs):
            return self._coeffs[n]
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "RationalPolynomial(0)"
        terms = [f"{c}*x^{n}" if n else f"{c}" for n, c in enumerate(self._coeffs) if c != 0]
        return "RationalPolynomial(" + " + ".join(terms) + ")"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "RationalPolynomial | RationalLike") -> "RationalPolynomial":
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "RationalPolynomial | RationalLike") -> "RationalPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: RationalLike) -> "RationalPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "RationalPolynomial | RationalLike") -> "RationalPolynomial":
        if isinstance(other, (int, str, Fraction)):
            c = as_rational(other)
            return RationalPolynomial(tuple(c * a for a in self._coeffs))
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = RationalPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "RationalPolynomial") -> Tuple["RationalPolynomial", "RationalPolynomial"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self._coeffs)
        dn = other.degree
        lead = other.leading_coefficient()
        if len(rem) - 1 < dn:
            return RationalPolynomial.zero(), self
        quot = [Fraction(0)] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - dn] = q
            for k in range(dn + 1):
                rem[i - dn + k] -= q * other._coeffs[k]
        return RationalPolynomial(quot), RationalPolynomial(rem)

    def __floordiv__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return divmod(self, other)[1]

    # ------------------------------------------------------------------
    # calculus / evaluation
    # ------------------------------------------------------------------
    def derivative(self, order: int = 1) -> "RationalPolynomial":
        """Exact formal derivative of the given order (order 0 = identity)."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        p = self
        for _ in range(order):
            p = RationalPolynomial(tuple(Fraction(n) * c for n, c in enumerate(p._coeffs) if n >= 1))
        return p

    def __call__(self, x):
        """Horner evaluation.  Exact for Fraction/int input; works
        polymorphically for float/mpf input."""
        if not self._coeffs:
            return x * 0
        acc = self._coeffs[-1] * (x ** 0) if not isinstance(x, (int, Fraction)) else self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """self(inner(x)), exactly."""
        acc = RationalPolynomial.zero()
        for c in reversed(self._coeffs):
            acc = acc * inner + RationalPolynomial.constant(c)
        return acc

    # ------------------------------------------------------------------
    # serialization: ascending list of "num/den" strings
    # ------------------------------------------------------------------
    def to_json_coeffs(self) -> List[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self._coeffs]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[str]) -> "RationalPolynomial":
        return cls(Fraction(s) for s in items)


def _coerce(x: "RationalPolynomial | RationalLike") -> RationalPolynomial:
    if isinstance(x, RationalPolynomial):
        return x
    return RationalPolynomial.constant(as_rational(x))


# ----------------------------------------------------------------------
# gcd and sign analysis
# ----------------------------------------------------------------------
def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over the rationals (Euclidean algorithm)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    lead = a.leading_coefficient()
    return a * (1 / lead)


def descartes_sign_changes(p: RationalPolynomial) -> int:
    """Number of sign alternations among nonzero coefficients in ascending
    order.  By Descartes' rule the count of positive roots (with
    multiplicity) equals this or is smaller by an even number."""
    if p.is_zero():
        raise ZeroPolynomial("sign changes undefined for the zero polynomial")
    changes = 0
    prev = 0
    for c in p.coefficients:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev != 0 and s != prev:
            changes += 1
        prev = s
    return changes


def sign_pattern(p: RationalPolynomial) -> Tuple[str, ...]:
    """Per-exponent signs '+', '-', '0' from exponent 0 through degree.

    Empty tuple for the zero polynomial.
    """
    return tuple("+" if c > 0 else "-" if c < 0 else "0" for c in p.coefficients)


# ----------------------------------------------------------------------
# bivariate polynomials (sparse)
# ----------------------------------------------------------------------
class BivariatePolynomial:
    """Sparse polynomial in two variables: map (j, k) -> coefficient of
    x^j y^k, with no stored zeros."""

    __slots__ = ("_terms",)

    def __init__(self, coefficients: Dict[Tuple[int, int], RationalLike] | None = None) -> None:
        clean: Dict[Tuple[int, int], Fraction] = {}
        for key, c in (coefficients or {}).items():
            c = as_rational(c)
            if c != 0:
                clean[(int(key[0]), int(key[1]))] = c
        self._terms = clean

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls({(0, 1): 1})

    @classmethod
    def constant(cls, c: RationalLike) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    @property
    def terms(self) -> Dict[Tuple[int, int], Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivariatePolynomial(out)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other: "BivariatePolynomial | RationalLike") -> "BivariatePolynomial":
        if isinstance(other, (int, str, Fraction)):
            c = as_rational(other)
            return BivariatePolynomial({k: c * v for k, v in self._terms.items()})
        out: Dict[Tuple[int, int], Fraction] = {}
        for (j1, k1), c1 in self._terms.items():
            for (j2, k2), c2 in other._terms.items():
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = BivariatePolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def coefficients_in_y(self) -> Dict[int, RationalPolynomial]:
        """Collect as a polynomial in y: maps k to the x-polynomial
        multiplying y^k."""
        buckets: Dict[int, Dict[int, Fraction]] = {}
        for (j, k), c in self._terms.items():
            buckets.setdefault(k, {})[j] = c
        out = {}
        for k, d in buckets.items():
            coeffs = [Fraction(0)] * (max(d) + 1)
            for j, c in d.items():
                coeffs[j] = c
            out[k] = RationalPolynomial(coeffs)
        return out

    def split_by_sign(self) -> Tuple["BivariatePolynomial", "BivariatePolynomial"]:
        """Split W = P - N with P collecting the positive-coefficient terms
        and N the negated negative-coefficient terms (both have positive
        coefficients; zero terms are stored in neither)."""
        pos: Dict[Tuple[int, int], Fraction] = {}
        neg: Dict[Tuple[int, int], Fraction] = {}
        for key, c in self._terms.items():
            if c > 0:
                pos[key] = c
            else:
                neg[key] = -c
        return BivariatePolynomial(pos), BivariatePolynomial(neg)

    def substitute_y(self, value: RationalPolynomial) -> RationalPolynomial:
        """Substitute a polynomial of x for y."""
        acc = RationalPolynomial.zero()
        for k, pk in self.coefficients_in_y().items():
            acc = acc + pk * value ** k
        return acc


# ----------------------------------------------------------------------
# rational functions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RationalFunction:
    """Quotient num/den of RationalPolynomials, reduced and with monic
    denominator.  Exact arithmetic and formal differentiation."""

    num: RationalPolynomial
    den: RationalPolynomial = RationalPolynomial.constant(1)

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ZeroPolynomial("rational function with zero denominator")
        num, den = self.num, self.den
        if num.is_zero():
            object.__setattr__(self, "num", RationalPolynomial.zero())
            object.__setattr__(self, "den", RationalPolynomial.constant(1))
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        lead = den.leading_coefficient()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(RationalPolynomial.zero())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction | RationalLike") -> "RationalFunction":
        if isinstance(other, (int, str, Fraction)):
            return RationalFunction(self.num * as_rational(other), self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroPolynomial("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def derivative(self) -> "RationalFunction":
        """(num/den)' by the quotient rule, reduced."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def as_polynomial(self) -> RationalPolynomial:
        """The numerator when the reduced denominator is 1; raises otherwise."""
        if self.den.degree == 0 and self.den.coeff(0) == 1:
            return self.num
        raise ValueError("rational function is not a polynomial")

    def __call__(self, x: RationalLike) -> Fraction:
        xv = as_rational(x)
        d = self.den(xv)
        if d == 0:
            raise ZeroDivisionError("pole of rational function")
        return self.num(xv) / d

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented
