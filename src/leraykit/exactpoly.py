"""Exact rational arithmetic and univariate/bivariate polynomial algebra.

Every operation in this module is exact.  This is the engine underneath
the exact certificates: polynomial identities are checked by structural
equality of canonical forms, and positive-root counting uses Descartes'
rule of signs on the coefficient sign sequence.

Representation conventions:

* ``RationalPolynomial`` holds a tuple of integer numerators in
  ascending-exponent order over one positive integer denominator: the
  coefficient of x^n is ``num[n]/den``.  The form is canonical: no
  trailing zero numerators, gcd(numerators, den) = 1, and the zero
  polynomial is ``((), 1)``.  So sums, products, the derivative,
  composition, Horner evaluation at a Fraction and division all run on
  Python ints, with one gcd per result; ``coefficients`` builds the
  ``fractions.Fraction`` values once per polynomial, for readers.
* ``BivariatePolynomial`` is a polynomial in y whose coefficients, its
  rows, are RationalPolynomials in x (row k multiplies y^k), over the
  denominator 1.  It runs RationalPolynomial's one dense arithmetic over
  the ring of rows where RationalPolynomial runs it over the integers.  It
  is built from a sparse map ``(j, k) -> c`` of the terms ``c x^j y^k``.
  With x = t and y = e^t it states an exponential polynomial, whose
  Taylor coefficients ``exp_taylor_coefficient`` reads off exactly, as one
  integer sum over n! times the rows' common denominator.
* ``RationalFunction`` is a quotient of two polynomials kept as built, never
  reduced, so the certificates read off the numerator and denominator a
  formula produces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple, Union

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


def _convolve(a: Sequence[Any], b: Sequence[Any], zero: Any) -> List[Any]:
    """The coefficients of the product of two non-empty dense polynomials."""
    if len(a) < len(b):
        a, b = b, a
    out = [zero] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return out


def _horner(coefficients: Sequence[Any], x: Any) -> Any:
    """sum c_n x^n from the top; the result has x's type also for a
    constant, except at an int or Fraction."""
    acc = coefficients[-1] if isinstance(x, (int, Fraction)) else coefficients[-1] * (x ** 0)
    for c in reversed(coefficients[:-1]):
        acc = acc * x + c
    return acc


class RationalPolynomial:
    """Dense univariate polynomial with rational coefficients, held as
    integer numerators over one denominator (see the module docstring).

    ``coefficients[n]`` is the Fraction coefficient of ``x**n``.  Instances
    are immutable; all arithmetic returns new canonical-form polynomials.
    The arithmetic asks of the numerators only ``+``, ``-``, ``*`` and
    truth, so a subclass runs it over another coefficient ring by setting
    ``_ZERO``, ``_SCALARS`` and the hooks ``_canonical``,
    ``_constant_parts`` and ``_divider``.
    """

    __slots__ = ("_num", "_den", "_fractions")
    _SCALARS: Tuple[type, ...] = (int, str, float, Fraction)
    _SYMBOL = "x"
    _ZERO: Any = 0
    _ZERO_COEFFICIENT: Any = Fraction(0)

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        values = [c if type(c) is int else as_rational(c) for c in coefficients]
        den = math.lcm(*[c.denominator for c in values])
        self._num, self._den = self._canonical([c.numerator * (den // c.denominator) for c in values], den)
        self._fractions = None

    @classmethod
    def _new(cls, num: Tuple[Any, ...], den: int) -> "RationalPolynomial":
        """A polynomial from numerators and a denominator in canonical form."""
        p = cls.__new__(cls)
        p._num, p._den, p._fractions = num, den, None
        return p

    @classmethod
    def _make(cls, num: List[Any], den: int) -> "RationalPolynomial":
        """Every computed result is built here, in canonical form."""
        return cls._new(*cls._canonical(num, den))

    @staticmethod
    def _canonical(num: List[int], den: int) -> Tuple[Tuple[int, ...], int]:
        """Drop trailing zeros, make den positive and cancel the common factor."""
        while num and not num[-1]:
            num.pop()
        if not num:
            return (), 1
        if den != 1:
            if den < 0:
                den, num = -den, [-c for c in num]
            g = math.gcd(den, *num)
            if g != 1:
                den //= g
                num = [c // g for c in num]
        return tuple(num), den

    @staticmethod
    def _constant_parts(c: Any) -> Tuple[Tuple[int, ...], int]:
        """The canonical numerators and denominator of the constant c."""
        if type(c) is not int:
            c = as_rational(c)
        return ((c.numerator,), c.denominator) if c else ((), 1)

    @staticmethod
    def _divider(divisor: Tuple[int, ...], steps: int) -> Tuple[Tuple[int, ...], int, int, Callable[[int], int]]:
        """(primitive divisor, its content, scale, exact quotient by its
        leading numerator) for `steps` steps of long division: scaling the
        dividend by lead^steps makes every quotient numerator an integer."""
        content = math.gcd(*divisor)
        if divisor[-1] < 0:
            content = -content
        if content != 1:
            divisor = tuple(c // content for c in divisor)
        lead = divisor[-1]
        return divisor, content, lead ** steps, lambda c: c // lead

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
        return cls._new((), 1)

    @classmethod
    def constant(cls, c: Any) -> "RationalPolynomial":
        return cls._new(*cls._constant_parts(c))

    @classmethod
    def monomial(cls, c: Any, n: int) -> "RationalPolynomial":
        """The single term c * x**n."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        num, den = cls._constant_parts(c)
        return cls._new((cls._ZERO,) * n + num if num else (), den)

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
        """The Fraction coefficients in ascending order, built once."""
        if self._fractions is None:
            den = self._den
            self._fractions = tuple(Fraction(c, den) for c in self._num)
        return self._fractions

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def coeff(self, n: int) -> Any:
        """Coefficient of x**n (zero beyond the stored range)."""
        if 0 <= n < len(self._num):
            return self.coefficients[n]
        return self._ZERO_COEFFICIENT

    def leading_coefficient(self) -> Any:
        if not self._num:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return (self._num, self._den) == self._constant_parts(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        terms = [f"{c}*{self._SYMBOL}^{n}" if n else f"{c}" for n, c in enumerate(self.coefficients) if c]
        return f"{type(self).__name__}({' + '.join(terms) or 0})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _sum(self, b: "RationalPolynomial", sign: int) -> "RationalPolynomial":
        """self + sign * b, over the least common denominator."""
        a, den, bn = self._num, self._den, b._num
        if b._den != den:
            g = math.gcd(den, b._den)
            scale_a, scale_b = b._den // g, den // g
            a, bn, den = [c * scale_a for c in a], [c * scale_b for c in bn], den * scale_a
        if sign < 0:
            bn = [-c for c in bn]
        if len(a) < len(bn):
            a, bn = bn, a
        out = list(a)
        for i, c in enumerate(bn):
            out[i] += c
        return self._make(out, den)

    def __add__(self, other: Any) -> "RationalPolynomial":
        b = self._lift(other)
        return NotImplemented if b is None else self._sum(b, 1)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return self._new(tuple(-c for c in self._num), self._den)

    def __sub__(self, other: Any) -> "RationalPolynomial":
        b = self._lift(other)
        return NotImplemented if b is None else self._sum(b, -1)

    def __rsub__(self, other: Any) -> "RationalPolynomial":
        return -self + other

    def __mul__(self, other: Any) -> "RationalPolynomial":
        b = self._lift(other)
        if b is None:
            return NotImplemented
        a, bn = self._num, b._num
        if len(a) < len(bn):
            a, bn = bn, a
        if not bn:
            return self._new((), 1)
        if len(bn) == 1:  # a constant, such as a unit denominator
            c = bn[0]
            out = list(a) if c == 1 else [ca * c for ca in a]
        else:
            out = _convolve(a, bn, self._ZERO)
        return self._make(out, self._den * b._den)

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
        steps = max(len(self._num) - len(b._num) + 1, 0)
        divisor, content, scale, exact_quotient = self._divider(b._num, steps)
        rem = list(self._num) if scale == 1 else [c * scale for c in self._num]
        dn = len(divisor) - 1
        quot = [self._ZERO] * steps
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = quot[i - dn] = exact_quotient(c)
            rem[i] = self._ZERO
            for k in range(dn):
                rem[i - dn + k] -= q * divisor[k]
        # scale * self = quot * divisor + rem, and b = content * divisor
        den = self._den * scale
        if b._den != 1:
            quot = [q * b._den for q in quot]
        return self._make(quot, den * content), self._make(rem, den)

    def __rdivmod__(self, other: Any) -> Tuple["RationalPolynomial", "RationalPolynomial"]:
        a = self._lift(other)
        return NotImplemented if a is None else divmod(a, self)

    # ------------------------------------------------------------------
    # calculus / evaluation
    # ------------------------------------------------------------------
    def derivative(self) -> "RationalPolynomial":
        """Exact formal derivative."""
        return self._make([c * n for n, c in enumerate(self._num[1:], 1)], self._den)

    def __call__(self, x):
        """Horner evaluation.  Exact for Fraction/int input; works
        polymorphically for float/mpf input; for a polynomial argument it is
        the composition self(x(.)), also under the name ``compose``."""
        num = self._num
        if not num:
            return x * 0
        if isinstance(x, (int, Fraction)):
            # x = a/b: b^deg den p(a/b) = sum num[n] a^n b^(deg-n), by Horner
            a, b = x.numerator, x.denominator
            acc, power = num[-1], 1
            for c in reversed(num[:-1]):
                power *= b
                acc = acc * a + c * power
            return Fraction(acc, self._den * power)
        if type(x) is RationalPolynomial:
            # the same over x = m/e, with m integer numerators
            m, e = x._num, x._den
            acc, power = [num[-1]], 1
            for c in reversed(num[:-1]):
                power *= e
                acc = _convolve(acc, m, 0) if m else []
                if acc:
                    acc[0] += c * power
                else:
                    acc = [c * power]
            return RationalPolynomial._make(acc, self._den * power)
        return _horner(self.coefficients, x)

    compose = __call__

    # ------------------------------------------------------------------
    # serialization: ascending list of "num/den" strings
    # ------------------------------------------------------------------
    def to_json_coeffs(self) -> List[Any]:
        """The coefficients as "num/den" strings; a BivariatePolynomial's
        are lists of them, one list per power of y."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coefficients]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[Any]) -> "RationalPolynomial":
        return cls([Fraction(c) for c in items])


# ----------------------------------------------------------------------
# sign analysis
# ----------------------------------------------------------------------
def descartes_sign_changes(p: RationalPolynomial) -> int:
    """Number of sign alternations among nonzero coefficients in ascending
    order.  By Descartes' rule the count of positive roots (with
    multiplicity) equals this or is smaller by an even number."""
    if p.is_zero():
        raise ZeroPolynomial("sign changes undefined for the zero polynomial")
    signs = [c > 0 for c in p._num if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sign_pattern(p: RationalPolynomial) -> Tuple[str, ...]:
    """Per-exponent signs '+', '-', '0' from exponent 0 through degree.

    Empty tuple for the zero polynomial.
    """
    # the denominator is positive, so a coefficient has its numerator's sign
    return tuple("+" if c > 0 else "-" if c < 0 else "0" for c in p._num)


# ----------------------------------------------------------------------
# bivariate polynomials: polynomials in y over Q[x]
# ----------------------------------------------------------------------
class BivariatePolynomial(RationalPolynomial):
    """Polynomial in x and y, held as a polynomial in y whose coefficients
    are RationalPolynomials in x: ``coefficients[k]`` multiplies y^k, and
    ``degree`` is the degree in y.  Arithmetic, equality, hashing,
    ``derivative()`` (d/dy) and division are RationalPolynomial's, over
    these coefficients and the denominator 1; evaluation at y
    (``substitute_y``) is Horner's rule on them."""

    __slots__ = ()
    _SCALARS = RationalPolynomial._SCALARS + (RationalPolynomial,)
    _SYMBOL = "y"
    _ZERO = _ZERO_COEFFICIENT = RationalPolynomial()

    @staticmethod
    def _canonical(num: List[RationalPolynomial], den: int) -> Tuple[Tuple[RationalPolynomial, ...], int]:
        while num and not num[-1]:
            num.pop()
        return tuple(num), 1

    @staticmethod
    def _constant_parts(c: Any) -> Tuple[Tuple[RationalPolynomial, ...], int]:
        row = c if type(c) is RationalPolynomial else RationalPolynomial.constant(c)
        return ((row,), 1) if row else ((), 1)

    @staticmethod
    def _divider(divisor: Tuple[RationalPolynomial, ...], steps: int):
        lead = divisor[-1]
        if lead.degree > 0:
            raise ValueError("division needs a leading coefficient in y that is constant in x")
        inverse = RationalPolynomial.constant(1 / lead.coeff(0))
        return divisor, 1, 1, lambda c: c * inverse

    def __init__(self, coefficients: Dict[Tuple[int, int], RationalLike] | None = None) -> None:
        """From a sparse map (j, k) -> coefficient of x^j y^k."""
        rows: Dict[int, Dict[int, RationalLike]] = {}
        for (j, k), c in (coefficients or {}).items():
            if j < 0 or k < 0:
                raise ValueError("exponents must be non-negative")
            rows.setdefault(int(k), {})[int(j)] = c
        by_k = [self._ZERO] * (max(rows, default=-1) + 1)
        for k, row in rows.items():
            by_k[k] = RationalPolynomial([row.get(j, 0) for j in range(max(row) + 1)])
        self._num, self._den = self._canonical(by_k, 1)
        self._fractions = None

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls.constant(RationalPolynomial.variable())

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls.variable()

    @property
    def coefficients(self) -> Tuple[RationalPolynomial, ...]:
        return self._num

    @property
    def terms(self) -> Dict[Tuple[int, int], Fraction]:
        """The sparse map (j, k) -> coefficient of x^j y^k, without zeros."""
        return {(j, k): c for k, pk in enumerate(self._num) for j, c in enumerate(pk.coefficients) if c}

    def coefficients_in_y(self) -> Dict[int, RationalPolynomial]:
        """Maps k to the x-polynomial multiplying y^k, for each nonzero one."""
        return {k: pk for k, pk in enumerate(self._num) if pk}

    def split_by_sign(self) -> Tuple["BivariatePolynomial", "BivariatePolynomial"]:
        """Split W = P - N with P collecting the positive-coefficient terms
        and N the negated negative-coefficient terms (both have positive
        coefficients; zero terms are stored in neither)."""
        pos = [RationalPolynomial._make([max(c, 0) for c in pk._num], pk._den) for pk in self._num]
        neg = [RationalPolynomial._make([max(-c, 0) for c in pk._num], pk._den) for pk in self._num]
        return self._make(pos, 1), self._make(neg, 1)

    def __call__(self, y):
        """Horner evaluation at y: a polynomial in x for an int, Fraction
        or polynomial y, a RationalFunction for a RationalFunction y."""
        return _horner(self._num, y) if self._num else y * 0

    compose = substitute_y = __call__

    def to_json_coeffs(self) -> List[Any]:
        return [pk.to_json_coeffs() for pk in self._num]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[Any]) -> "BivariatePolynomial":
        return cls._make([RationalPolynomial.from_json_coeffs(row) for row in items], 1)

    # perfbench/spans.py traces products by wrapping the `__mul__` it finds
    # in each polynomial class's own __dict__, so the binding stays here
    __mul__ = RationalPolynomial.__mul__


def exp_taylor_coefficient(p: BivariatePolynomial, n: int) -> Fraction:
    """The t^n coefficient of p(t, e^t), with x = t and y = e^t: a term
    c t^j y^k contributes c k^(n-j)/(n-j)! for j <= n, so with D the rows'
    common denominator the coefficient is the integer sum of
    D c k^(n-j) n!/(n-j)! over D n!."""
    den = math.lcm(*[pk._den for pk in p._num])
    total = sum(c * (den // pk._den) * k ** (n - j) * math.perm(n, j)
                for k, pk in enumerate(p._num) for j, c in enumerate(pk._num[:n + 1]) if c)
    return Fraction(total, den * math.factorial(n))


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
        u = sum((RationalPolynomial._make([abs(c) for c in pk.compose(at_n)._num], pk._den) for pk in bases.values()),
                RationalPolynomial.zero())
        step = top_base * u * lead.compose(next_s) - (top_base - 1) * u.compose(next_s) * lead
        if (all(c >= 0 for c in lead._num + step._num) and lead.coeff(0) > 0
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
