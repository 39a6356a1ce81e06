"""Exact rational arithmetic and univariate/bivariate polynomial algebra.

Coefficients are `fractions.Fraction` (arbitrary precision, always in
canonical lowest terms), so every operation in this module is exact.  This
is the engine underneath the exact certificates: polynomial identities are
checked by structural equality of canonical forms, and positive-root
counting uses Descartes' rule of signs on the coefficient sign sequence.

Representation conventions:

* ``RationalPolynomial`` stores dense coefficients in ascending-exponent
  order with no trailing zeros; the zero polynomial is the empty sequence.
* ``BivariatePolynomial`` is a ``RationalPolynomial`` in y whose
  coefficients are RationalPolynomials in x (coefficient k multiplies
  y^k), so both share one implementation of the arithmetic; it is built
  from a sparse map ``(j, k) -> c`` of the terms ``c x^j y^k``.  With
  x = t and y = e^t it states an exponential polynomial, whose Taylor
  coefficients ``exp_taylor_coefficient`` reads off exactly.
* ``RationalFunction`` is a quotient of two polynomials kept as built, never
  reduced, so the certificates read off the numerator and denominator a
  formula produces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

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


def _trimmed(coefficients: List[Any]) -> Tuple[Any, ...]:
    """The coefficients without trailing zeros."""
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return tuple(coefficients)


def _integers(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators of the Fractions over their common denominator."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients.

    ``coefficients[n]`` is the coefficient of ``x**n``.  Instances are
    immutable; all arithmetic returns new canonical-form polynomials.  It
    asks of a coefficient only ``+``, ``-``, ``*`` and truth, so a subclass
    sets what a coefficient is by ``_coefficient`` (its coercion) and
    ``_SCALARS`` (the operand types taken as constants).
    """

    __slots__ = ("_coeffs",)
    _SCALARS: Tuple[type, ...] = (int, str, float, Fraction)
    _SYMBOL = "x"
    _coefficient = staticmethod(as_rational)

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        self._coeffs: Tuple[Any, ...] = _trimmed([self._coefficient(c) for c in coefficients])

    @classmethod
    def _make(cls, coefficients: List[Any]) -> "RationalPolynomial":
        """Every result is built here, whatever the public constructor of
        the class takes; `coefficients` are coerced already."""
        p = cls.__new__(cls)
        p._coeffs = _trimmed(coefficients)
        return p

    def _lift(self, other: Any) -> "RationalPolynomial | None":
        """`other` as a polynomial of this class (a constant if it is one of
        `_SCALARS`), or None: the operator returns NotImplemented."""
        if type(other) is type(self):
            return other
        if isinstance(other, self._SCALARS):
            return self.constant(other)
        return None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls._make([])

    @classmethod
    def constant(cls, c: Any) -> "RationalPolynomial":
        return cls._make([cls._coefficient(c)])

    @classmethod
    def monomial(cls, c: Any, n: int) -> "RationalPolynomial":
        """The single term c * x**n."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        return cls._make([cls._coefficient(0)] * n + [cls._coefficient(c)])

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls.monomial(1, 1)

    @classmethod
    def from_roots(cls, roots: Iterable[Any]) -> "RationalPolynomial":
        """Monic polynomial prod (x - r_i)."""
        p = cls.constant(1)
        for r in roots:
            p = p * (cls.variable() - r)
        return p

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> Tuple[Any, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coeff(self, n: int) -> Any:
        """Coefficient of x**n (zero beyond the stored range)."""
        if 0 <= n < len(self._coeffs):
            return self._coeffs[n]
        return self._coefficient(0)

    def leading_coefficient(self) -> Any:
        if not self._coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == ((self._coefficient(other),) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*{self._SYMBOL}^{n}" if n else f"{c}" for n, c in enumerate(self._coeffs) if c]
        return f"{type(self).__name__}({' + '.join(terms) or 0})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> "RationalPolynomial":
        b = self._lift(other)
        if b is None:
            return NotImplemented
        a, b = self._coeffs, b._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._make(out)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return self._make([-c for c in self._coeffs])

    def __sub__(self, other: Any) -> "RationalPolynomial":
        b = self._lift(other)
        return NotImplemented if b is None else self + (-b)

    def __rsub__(self, other: Any) -> "RationalPolynomial":
        return -self + other

    def __mul__(self, other: Any) -> "RationalPolynomial":
        b = self._lift(other)
        if b is None:
            return NotImplemented
        a, b = self._coeffs, b._coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return self._make([])
        if b == (1,):  # such as a unit denominator
            return self._make(list(a))
        den = None
        if type(a[0]) is Fraction:  # integers over one denominator multiply much faster
            (a, da), (b, db) = _integers(a), _integers(b)
            den = da * db
        out = [a[0] * 0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return self._make(out if den is None else [Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other: Any) -> Tuple["RationalPolynomial", "RationalPolynomial"]:
        """(quotient, remainder) by `other`, whose leading coefficient must
        be a constant: for a BivariatePolynomial, a constant in x, else
        ValueError."""
        b = self._lift(other)
        if b is None:
            return NotImplemented
        if b.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self._coeffs)
        dn = b.degree
        lead = b.leading_coefficient()
        if isinstance(lead, RationalPolynomial):
            if lead.degree > 0:
                raise ValueError("division needs a leading coefficient in y that is constant in x")
            lead = lead.coeff(0)
        inverse = 1 / lead
        quot = [self._coefficient(0)] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c * inverse
            quot[i - dn] = q
            for k in range(dn + 1):
                rem[i - dn + k] -= q * b._coeffs[k]
        return self._make(quot), self._make(rem)

    def __rdivmod__(self, other: Any) -> Tuple["RationalPolynomial", "RationalPolynomial"]:
        a = self._lift(other)
        return NotImplemented if a is None else divmod(a, self)

    # ------------------------------------------------------------------
    # calculus / evaluation
    # ------------------------------------------------------------------
    def derivative(self) -> "RationalPolynomial":
        """Exact formal derivative."""
        return self._make([n * c for n, c in enumerate(self._coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation.  Exact for Fraction/int input; works
        polymorphically for float/mpf input; for a polynomial argument it is
        the composition self(x(.)), also under the name ``compose``."""
        if not self._coeffs:
            return x * 0
        acc = self._coeffs[-1] * (x ** 0) if not isinstance(x, (int, Fraction)) else self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * x + c
        return acc

    compose = __call__

    # ------------------------------------------------------------------
    # serialization: ascending list of "num/den" strings
    # ------------------------------------------------------------------
    def to_json_coeffs(self) -> List[Any]:
        """The coefficients as "num/den" strings; a BivariatePolynomial's
        are lists of them, one list per power of y."""
        return [c.to_json_coeffs() if isinstance(c, RationalPolynomial) else f"{c.numerator}/{c.denominator}"
                for c in self._coeffs]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[Any]) -> "RationalPolynomial":
        return cls._make([RationalPolynomial.from_json_coeffs(c) if isinstance(c, list) else Fraction(c)
                          for c in items])


# ----------------------------------------------------------------------
# sign analysis
# ----------------------------------------------------------------------
def descartes_sign_changes(p: RationalPolynomial) -> int:
    """Number of sign alternations among nonzero coefficients in ascending
    order.  By Descartes' rule the count of positive roots (with
    multiplicity) equals this or is smaller by an even number."""
    if p.is_zero():
        raise ZeroPolynomial("sign changes undefined for the zero polynomial")
    signs = [s for s in sign_pattern(p) if s != "0"]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sign_pattern(p: RationalPolynomial) -> Tuple[str, ...]:
    """Per-exponent signs '+', '-', '0' from exponent 0 through degree.

    Empty tuple for the zero polynomial.
    """
    return tuple("+" if c > 0 else "-" if c < 0 else "0" for c in p.coefficients)


# ----------------------------------------------------------------------
# bivariate polynomials: polynomials in y over Q[x]
# ----------------------------------------------------------------------
class BivariatePolynomial(RationalPolynomial):
    """Polynomial in x and y, held as a polynomial in y whose coefficients
    are RationalPolynomials in x: ``coefficients[k]`` multiplies y^k, and
    ``degree`` is the degree in y.  Arithmetic, equality, hashing,
    ``derivative()`` (d/dy) and evaluation at y (``substitute_y``) are
    RationalPolynomial's, over these coefficients."""

    __slots__ = ()
    _SCALARS = RationalPolynomial._SCALARS + (RationalPolynomial,)
    _SYMBOL = "y"

    @staticmethod
    def _coefficient(c: Any) -> RationalPolynomial:
        return c if type(c) is RationalPolynomial else RationalPolynomial.constant(c)

    def __init__(self, coefficients: Dict[Tuple[int, int], RationalLike] | None = None) -> None:
        """From a sparse map (j, k) -> coefficient of x^j y^k."""
        rows: Dict[int, Dict[int, RationalLike]] = {}
        for (j, k), c in (coefficients or {}).items():
            if j < 0 or k < 0:
                raise ValueError("exponents must be non-negative")
            rows.setdefault(int(k), {})[int(j)] = c
        by_k = [RationalPolynomial()] * (max(rows, default=-1) + 1)
        for k, row in rows.items():
            by_k[k] = RationalPolynomial([row.get(j, 0) for j in range(max(row) + 1)])
        super().__init__(by_k)

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls.constant(RationalPolynomial.variable())

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls.variable()

    @property
    def terms(self) -> Dict[Tuple[int, int], Fraction]:
        """The sparse map (j, k) -> coefficient of x^j y^k, without zeros."""
        return {(j, k): c for k, pk in enumerate(self._coeffs) for j, c in enumerate(pk.coefficients) if c}

    def coefficients_in_y(self) -> Dict[int, RationalPolynomial]:
        """Maps k to the x-polynomial multiplying y^k, for each nonzero one."""
        return {k: pk for k, pk in enumerate(self._coeffs) if pk}

    def split_by_sign(self) -> Tuple["BivariatePolynomial", "BivariatePolynomial"]:
        """Split W = P - N with P collecting the positive-coefficient terms
        and N the negated negative-coefficient terms (both have positive
        coefficients; zero terms are stored in neither)."""
        pos = [RationalPolynomial([max(c, 0) for c in pk.coefficients]) for pk in self._coeffs]
        neg = [RationalPolynomial([max(-c, 0) for c in pk.coefficients]) for pk in self._coeffs]
        return self._make(pos), self._make(neg)

    substitute_y = RationalPolynomial.__call__
    # perfbench/spans.py traces products by wrapping the `__mul__` it finds
    # in each polynomial class's own __dict__, so the binding stays here
    __mul__ = RationalPolynomial.__mul__


def exp_taylor_coefficient(p: BivariatePolynomial, n: int) -> Fraction:
    """The t^n coefficient of p(t, e^t), with x = t and y = e^t: a term
    c t^j y^k contributes c k^(n-j)/(n-j)! for j <= n."""
    return sum((c * Fraction(k ** (n - j), math.factorial(n - j)) for (j, k), c in p.terms.items() if j <= n),
               Fraction(0))


# the largest index N that exp_series_nonnegative tries as the start of its tail
_TAIL_SEARCH = 200


def exp_series_nonnegative(p: BivariatePolynomial) -> bool:
    """True when every t^n/n! coefficient a_n of p(t, e^t) is >= 0, proved
    in exact arithmetic; False when some a_n < 0, or when no proof starts
    below N = _TAIL_SEARCH.

    Past the top power of t, a_n = sum_k k^n P_k(n) over the bases k >= 1
    of the terms c t^j e^(kt), with P_k(n) = sum_j c n(n-1)...(n-j+1) / k^j.
    Below N each a_n is computed.  From N on, with K the top base and
    s = n - N: P_K(N+s) has non-negative coefficients and a positive
    constant; U(s), the sum of the lower P_k(N+s) with each coefficient
    made non-negative, has (K-1)^N U(0) <= K^N P_K(N); and
    K U(s) P_K(N+s+1) - (K-1) U(s+1) P_K(N+s) has non-negative
    coefficients.  Then U/P_K grows by at most K/(K-1) per step, so
    (K-1)^n U(s) <= K^n P_K(n) for every n >= N, and the top base outweighs
    the lower ones, each at most (K-1)^n |P_k(n)|.
    """
    bases = {k: sum((c * Fraction(1, k ** j) * RationalPolynomial.from_roots(range(j))
                     for j, c in enumerate(pk.coefficients)), RationalPolynomial.zero())
             for k, pk in p.coefficients_in_y().items() if k}
    start = max((j for j, _ in p.terms), default=0) + 1
    if any(exp_taylor_coefficient(p, n) < 0 for n in range(start)):
        return False
    if not bases:
        return True
    top_base = max(bases)
    top = bases.pop(top_base)
    next_s = RationalPolynomial([1, 1])
    for n in range(start, _TAIL_SEARCH):
        at_n = RationalPolynomial([n, 1])  # s -> n + s
        lead = top.compose(at_n)
        u = sum((RationalPolynomial([abs(c) for c in pk.compose(at_n).coefficients]) for pk in bases.values()),
                RationalPolynomial.zero())
        step = top_base * u * lead.compose(next_s) - (top_base - 1) * u.compose(next_s) * lead
        if (all(c >= 0 for c in lead.coefficients + step.coefficients) and lead.coeff(0) > 0
                and (top_base - 1) ** n * u.coeff(0) <= top_base ** n * lead.coeff(0)):
            return True
        if exp_taylor_coefficient(p, n) < 0:
            return False
    return False


# ----------------------------------------------------------------------
# rational functions
# ----------------------------------------------------------------------
def _quotient(p: Any) -> "RationalFunction":
    """p as a quotient: an int, Fraction or polynomial over 1."""
    if isinstance(p, RationalFunction):
        return p
    if isinstance(p, (int, Fraction, RationalPolynomial)):
        return RationalFunction(p)
    raise TypeError(f"not a rational function: {p!r}")


class RationalFunction:
    """Quotient num/den of polynomials, kept as built: no operation reduces
    it, so a formula evaluated on quotients leaves ``num`` and ``den`` as the
    formula writes them.  Sums, products, quotients, integer powers, the
    derivative and equality work by cross-multiplication; ints, Fractions
    and polynomials lift to quotients over 1."""

    __slots__ = ("num", "den")
    __hash__ = None  # equal quotients can have different num and den

    def __init__(self, num: Any, den: Any = 1) -> None:
        self.num = num if isinstance(num, RationalPolynomial) else RationalPolynomial.constant(num)
        self.den = den if isinstance(den, RationalPolynomial) else RationalPolynomial.constant(den)
        if self.den.is_zero():
            raise ZeroPolynomial("rational function with zero denominator")

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __add__(self, other: Any) -> "RationalFunction":
        b = _quotient(other)
        return RationalFunction(self.num * b.den + b.num * self.den, self.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: Any) -> "RationalFunction":
        return self + -_quotient(other)

    def __rsub__(self, other: Any) -> "RationalFunction":
        return -self + other

    def __mul__(self, other: Any) -> "RationalFunction":
        b = _quotient(other)
        return RationalFunction(self.num * b.num, self.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "RationalFunction":
        return self * _quotient(other) ** -1

    def __rtruediv__(self, other: Any) -> "RationalFunction":
        return _quotient(other) * self ** -1

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def derivative(self) -> "RationalFunction":
        """(num/den)' by the quotient rule, in the variable of num and den's
        ``derivative`` (y for BivariatePolynomials), over den^2 and never
        reduced, so a formula evaluated on quotients can be differentiated
        without clearing its denominators by hand."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def as_polynomial(self) -> RationalPolynomial:
        """num/den by exact division; raises ValueError when den does not
        divide num, or when den's leading coefficient in y is not constant."""
        quotient, remainder = divmod(self.num, self.den)
        if remainder:
            raise ValueError("rational function is not a polynomial")
        return quotient

    def __call__(self, x: RationalLike) -> Fraction:
        """num(x)/den(x); a root of den raises ZeroDivisionError, also where
        num vanishes too."""
        xv = as_rational(x)
        d = self.den(xv)
        if d == 0:
            raise ZeroDivisionError("pole of rational function")
        return self.num(xv) / d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RationalFunction, int, Fraction, RationalPolynomial)):
            return NotImplemented
        b = _quotient(other)
        if self.den == b.den:  # then cross-multiplying compares the numerators
            return self.num == b.num
        return self.num * b.den == b.num * self.den

    def to_json_coeffs(self) -> Dict[str, List[Any]]:
        """{"num": ..., "den": ...}, each the polynomial's JSON coefficients."""
        return {"num": self.num.to_json_coeffs(), "den": self.den.to_json_coeffs()}
