"""Property tests of the integer core of exactpoly against a Fraction reference.

The reference below works on plain lists of Fractions (ascending powers,
no trailing zeros) and, for bivariate polynomials, on lists of such rows;
it is written independently of the polynomial classes.  The example count
comes from the hypothesis profile loaded in conftest.py.
"""

import json
import math
from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from leraykit.exactpoly import BivariatePolynomial, RationalFunction, RationalPolynomial

# ----------------------------------------------------------------------
# the Fraction reference
# ----------------------------------------------------------------------
ZERO = Fraction(0)


def ref_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def ref_add(a, b, zero=ZERO, add=lambda x, y: x + y):
    n = max(len(a), len(b))
    return ref_trim([add(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero) for i in range(n)])


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem, quot = list(a), [ZERO] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        q = quot[i] = rem[i + len(b) - 1] / b[-1]
        for k, c in enumerate(b):
            rem[i + k] -= q * c
    return ref_trim(quot), ref_trim(rem)


def ref_derivative(a):
    return ref_trim([n * c for n, c in enumerate(a)][1:])


def ref_eval(a, x):
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), [c])
    return acc


# bivariate: rows[k] is the Fraction list of the x-polynomial multiplying y^k
def ref2_add(p, q):
    return ref_add(p, q, zero=[], add=ref_add)


def ref2_mul(p, q):
    out = []
    for k, row in enumerate(p):
        for m, other in enumerate(q):
            out = ref2_add(out, [[]] * (k + m) + [ref_mul(row, other)])
    return out


def ref2_substitute(p, value):
    acc = []
    for row in reversed(p):
        acc = ref_add(ref_mul(acc, value), row)
    return acc


# ----------------------------------------------------------------------
# strategies: small and huge numerators and denominators, zero included
# ----------------------------------------------------------------------
small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
huge = st.builds(Fraction, st.integers(-(2 ** 200), 2 ** 200), st.integers(1, 2 ** 200))
rationals = st.one_of(st.just(ZERO), small, huge)
coefficient_lists = st.lists(rationals, max_size=6)
nonzero_lists = coefficient_lists.filter(lambda c: any(c))
bivariate_rows = st.lists(st.lists(rationals, max_size=4), max_size=4)


def poly(coeffs):
    return RationalPolynomial(coeffs)


def biv(rows):
    return BivariatePolynomial({(j, k): c for k, row in enumerate(rows) for j, c in enumerate(row)})


def ref2(rows):
    return ref_trim([ref_trim(row) for row in rows])


def rows_of(p):
    return [list(row.coefficients) for row in p.coefficients]


def assert_canonical(p):
    """No trailing zeros, a positive denominator coprime to the numerators,
    and the zero polynomial as ((), 1)."""
    num, den = p._num, p._den
    assert all(type(c) is int for c in num) and type(den) is int
    if not num:
        assert den == 1
        return
    assert num[-1] != 0 and den > 0 and math.gcd(den, *num) == 1


def assert_matches(p, ref):
    assert_canonical(p)
    assert list(p.coefficients) == ref
    assert p.degree == len(ref) - 1


# ----------------------------------------------------------------------
# univariate
# ----------------------------------------------------------------------
@given(coefficient_lists, coefficient_lists)
def test_ring_operations_match_the_reference(a, b):
    p, q = poly(a), poly(b)
    ra, rb = ref_trim(a), ref_trim(b)
    assert_matches(p, ra)
    assert_matches(p + q, ref_add(ra, rb))
    assert_matches(p - q, ref_add(ra, ref_neg(rb)))
    assert_matches(-p, ref_neg(ra))
    assert_matches(p * q, ref_mul(ra, rb))
    assert_matches(p.derivative(), ref_derivative(ra))


@given(coefficient_lists, nonzero_lists)
def test_divmod_matches_the_reference(a, b):
    quotient, remainder = divmod(poly(a), poly(b))
    want_q, want_r = ref_divmod(ref_trim(a), ref_trim(b))
    assert_matches(quotient, want_q)
    assert_matches(remainder, want_r)


@given(coefficient_lists, st.lists(rationals, max_size=3), rationals)
def test_compose_and_evaluation_match_the_reference(a, b, x):
    p, q = poly(a), poly(b)
    assert_matches(p.compose(q), ref_compose(ref_trim(a), ref_trim(b)))
    value = p(x)
    assert type(value) is Fraction or (not a or not any(a))
    assert value == ref_eval(a, x)
    assert p(x.numerator) == ref_eval(a, Fraction(x.numerator))


@given(coefficient_lists, st.integers(-(10 ** 30), 10 ** 30).filter(bool))
def test_equality_hash_and_json_see_the_value_not_the_route(a, k):
    p = poly(a)
    # the same polynomial by a route whose numerators share the factor k
    again = (p * k) * Fraction(1, k)
    padded = poly(list(a) + [0, 0])
    for other in (again, padded, RationalPolynomial.from_json_coeffs(p.to_json_coeffs())):
        assert_canonical(other)
        assert other == p and hash(other) == hash(p)
        assert other.to_json_coeffs() == p.to_json_coeffs()
    assert p.to_json_coeffs() == [f"{c.numerator}/{c.denominator}" for c in ref_trim(a)]
    assert json.loads(json.dumps(p.to_json_coeffs())) == p.to_json_coeffs()
    if len(ref_trim(a)) <= 1:
        assert p == (ref_trim(a) or [0])[0]


def test_content_is_reduced():
    x = RationalPolynomial.variable()
    half_x = x * Fraction(1, 2)
    for route in (2 * x * Fraction(1, 4), divmod(2 * x, 4)[0], RationalFunction(2 * x, 4).as_polynomial(),
                  (x * x * Fraction(1, 4)).derivative(), poly([0, Fraction(6, 12)])):
        assert (route._num, route._den) == ((0, 1), 2)
        assert route == half_x and hash(route) == hash(half_x)
        assert route.to_json_coeffs() == ["0/1", "1/2"]


def test_the_zero_polynomial():
    x = RationalPolynomial.variable()
    zeros = [RationalPolynomial(), RationalPolynomial([0, 0]), x - x, x * 0, RationalPolynomial.zero(),
             (x * Fraction(1, 3)) * RationalPolynomial(), RationalPolynomial.constant(0).derivative(),
             divmod(x, x)[1], RationalPolynomial.from_json_coeffs([])]
    for z in zeros:
        assert (z._num, z._den) == ((), 1)
        assert z == 0 and z == RationalPolynomial() and hash(z) == hash(RationalPolynomial())
        assert z.coefficients == () and z.degree == -1 and not z
        assert z.to_json_coeffs() == []
        assert z(Fraction(5, 7)) == 0 and z.compose(x + 1) == z


# ----------------------------------------------------------------------
# bivariate
# ----------------------------------------------------------------------
@given(bivariate_rows, bivariate_rows)
def test_bivariate_ring_operations_match_the_reference(a, b):
    p, q = biv(a), biv(b)
    ra, rb = ref2(a), ref2(b)
    assert rows_of(p) == ra
    for row in p.coefficients:
        assert_canonical(row)
    assert not p.coefficients or p.coefficients[-1]
    assert rows_of(p + q) == ref2_add(ra, rb)
    assert rows_of(p - q) == ref2_add(ra, [ref_neg(row) for row in rb])
    assert rows_of(p * q) == ref2_mul(ra, rb)
    derivative = [[k * c for c in row] for k, row in enumerate(ra)][1:]
    assert rows_of(p.derivative()) == ref_trim([ref_trim(row) for row in derivative])


@given(bivariate_rows, st.lists(rationals, max_size=3), rationals)
def test_bivariate_substitution_matches_the_reference(a, value, y):
    p = biv(a)
    got = p.substitute_y(poly(value))
    assert type(got) is RationalPolynomial
    assert_matches(got, ref2_substitute(ref2(a), ref_trim(value)))
    at_y = ref2_substitute(ref2(a), ref_trim([y]))
    if ref2(a):
        assert_matches(p(y), at_y)
    else:  # the zero polynomial gives y * 0
        assert p(y) == 0 and type(p(y)) is Fraction


@given(bivariate_rows, bivariate_rows, rationals.filter(bool))
def test_bivariate_divmod_by_a_lead_constant_in_x(a, b, lead):
    divisor_rows = ref2(b) + [[lead]]
    num, den = biv(a), biv(divisor_rows)
    quotient, remainder = divmod(num, den)
    assert quotient * den + remainder == num
    assert remainder.degree < den.degree
    # the quotient of the reference's long division, row by row
    rem, want = ref2(a), []
    for i in range(len(rem) - len(divisor_rows), -1, -1):
        top = i + len(divisor_rows) - 1
        q = [c / lead for c in (rem[top] if top < len(rem) else [])]
        want = ref2_add(want, [[]] * i + [q])
        rem = ref2_add(rem, ref2_mul([[]] * i + [ref_neg(q)], divisor_rows))
    assert rows_of(quotient) == want and rows_of(remainder) == rem


@given(bivariate_rows, st.integers(-(10 ** 20), 10 ** 20).filter(bool))
def test_bivariate_equality_hash_and_json(a, k):
    p = biv(a)
    again = (p * k) * Fraction(1, k)
    loaded = BivariatePolynomial.from_json_coeffs(json.loads(json.dumps(p.to_json_coeffs())))
    for other in (again, loaded):
        assert other == p and hash(other) == hash(p)
        assert other.to_json_coeffs() == p.to_json_coeffs()
    assert p.to_json_coeffs() == [[f"{c.numerator}/{c.denominator}" for c in row] for row in ref2(a)]
    assume(any(any(row) for row in a))
    assert p != BivariatePolynomial() and p - p == BivariatePolynomial() == 0


def test_bivariate_content_and_zero():
    x, y = BivariatePolynomial.x(), BivariatePolynomial.y()
    assert 2 * x * y * Fraction(1, 4) == x * y * Fraction(1, 2)
    assert hash(2 * x * Fraction(1, 4)) == hash(x * Fraction(1, 2))
    assert (2 * x * Fraction(1, 4)).to_json_coeffs() == [["0/1", "1/2"]]
    for z in (BivariatePolynomial(), x - x, y * 0, BivariatePolynomial({(2, 3): 0})):
        assert z.coefficients == () and z == 0 and hash(z) == hash(BivariatePolynomial())
        assert z.to_json_coeffs() == [] and z.terms == {}
