"""Exact polynomial algebra: examples and algebraic properties."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leraykit.exactpoly import (
    BivariatePolynomial,
    RationalFunction,
    RationalPolynomial,
    descartes_sign_changes,
    exp_taylor_coefficient,
    sign_pattern,
)
from leraykit.certificates import Certificate
from leraykit.errors import ZeroPolynomial

X = RationalPolynomial.variable()


def test_difference_of_squares():
    p = (X + 1) * (X - 1)
    assert p == RationalPolynomial([-1, 0, 1])


def test_additive_identity():
    p = RationalPolynomial([3, 0, Fraction(1, 2)])
    assert p + RationalPolynomial.zero() == p


def test_degree_contracts():
    p = RationalPolynomial([1, 2, 3])
    q = RationalPolynomial([-1, -2, -3])
    assert (p + q).is_zero()
    assert (p * q).degree == 4


def test_derivative_examples():
    assert (X * X).derivative() == 2 * X
    p = RationalPolynomial([5, -1, 7])
    assert p.derivative(0) == p
    assert p.derivative(3).is_zero()


def test_eval_examples():
    assert RationalPolynomial([-1, 0, 1])(1) == 0
    assert RationalPolynomial([Fraction(1, 3), 2])(Fraction(1, 2)) == Fraction(4, 3)


def test_descartes_examples():
    assert descartes_sign_changes(RationalPolynomial([-1, 0, 0, 1])) == 1  # x^3 - 1
    assert descartes_sign_changes(RationalPolynomial([1, 0, 1])) == 0  # x^2 + 1
    with pytest.raises(ZeroPolynomial):
        descartes_sign_changes(RationalPolynomial.zero())


def test_sign_pattern():
    assert sign_pattern(RationalPolynomial([-2, 0, 5])) == ("-", "0", "+")
    assert sign_pattern(RationalPolynomial.zero()) == ()


def test_divmod_and_gcd():
    p = (X + 1) * (X + 2)
    q, r = divmod(p, X + 1)
    assert q == X + 2 and r.is_zero()


def test_compose():
    p = RationalPolynomial([0, 0, 1])  # x^2
    inner = RationalPolynomial([1, 1])
    assert p.compose(inner) == RationalPolynomial([1, 2, 1])


def test_json_round_trip():
    p = RationalPolynomial([Fraction(-3, 7), 0, Fraction(22, 5)])
    encoded = p.to_json_coeffs()
    assert encoded == ["-3/7", "0/1", "22/5"]
    assert RationalPolynomial.from_json_coeffs(encoded) == p


def test_rational_function_reduction():
    rf = RationalFunction((X + 1) * (X - 2), (X + 1) * (X + 3))
    assert rf == RationalFunction(X - 2, X + 3)
    assert rf != RationalFunction(X - 2, X + 4)
    assert rf(Fraction(1)) == Fraction(-1, 4)
    # never reduced: num and den stay as built, so the common root is a pole
    assert (rf.num, rf.den) == ((X + 1) * (X - 2), (X + 1) * (X + 3))
    with pytest.raises(ZeroDivisionError):
        rf(-1)


def test_rational_function_derivative():
    rf = RationalFunction(RationalPolynomial([1]), X)  # 1/x
    d = rf.derivative()
    assert d.num == RationalPolynomial([-1])
    assert d.den == X * X


def test_as_polynomial_requires_unit_denominator():
    rf = RationalFunction(X * X, X)
    assert rf.as_polynomial() == X
    assert RationalFunction(2 * X, 4).as_polynomial() == X * Fraction(1, 2)
    with pytest.raises(ValueError):
        RationalFunction(RationalPolynomial([1]), X).as_polynomial()


def test_bivariate_division_by_a_leading_coefficient_constant_in_x():
    x, y = BivariatePolynomial.x(), BivariatePolynomial.y()
    assert RationalFunction(2 * x, 2).as_polynomial() == x
    assert RationalFunction(x * y + y, y).as_polynomial() == x + 1
    num, den = x * y * y + 3, 2 * y + 1
    quotient, remainder = divmod(num, den)
    assert quotient * den + remainder == num and remainder.degree < den.degree
    with pytest.raises(ValueError, match="constant in x"):
        RationalFunction(x * y, x * y).as_polynomial()
    for num in (x, 2):  # a constant numerator is a RationalPolynomial
        with pytest.raises(ValueError, match="not a polynomial"):
            RationalFunction(num, y).as_polynomial()


def test_exp_taylor_coefficient_reads_exponential_polynomials():
    x, y = BivariatePolynomial.x(), BivariatePolynomial.y()
    fact = math.factorial
    for n in range(12):
        assert exp_taylor_coefficient(y, n) == Fraction(1, fact(n))  # e^t
        # t e^(2t) and (e^t - 1)^2 = e^(2t) - 2 e^t + 1
        assert exp_taylor_coefficient(x * y * y, n) == (Fraction(2 ** (n - 1), fact(n - 1)) if n else 0)
        assert exp_taylor_coefficient((y - 1) ** 2, n) == (Fraction(2 ** n - 2, fact(n)) if n else 0)
        assert exp_taylor_coefficient(BivariatePolynomial.constant(5), n) == (5 if n == 0 else 0)


def _random_quotient(rng):
    def poly():
        return RationalPolynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))])

    den = poly()
    while den.is_zero():
        den = poly()
    return RationalFunction(poly(), den)


@pytest.mark.parametrize("seed", range(8))
def test_rational_function_arithmetic_matches_evaluation(seed):
    rng = random.Random(seed)
    p, q = _random_quotient(rng), _random_quotient(rng)
    results = {
        "+": p + q, "-": p - q, "*": p * q, "int-": 3 - p, "poly*": (X + 1) * p, "^3": p ** 3, "d": p.derivative(),
    }
    if not q.num.is_zero():
        results["/"] = p / q
        results["frac/"] = Fraction(1, 2) / q
    for x in (Fraction(n, 7) for n in range(-20, 21)):
        if p.den(x) == 0 or q.den(x) == 0 or q.num(x) == 0:
            continue
        px, qx = p(x), q(x)
        expected = {"+": px + qx, "-": px - qx, "*": px * qx, "int-": 3 - px, "poly*": (x + 1) * px,
                    "^3": px ** 3, "/": px / qx, "frac/": Fraction(1, 2) / qx}
        for key, got in results.items():
            if key != "d":
                assert got(x) == expected[key], key
        # the derivative against its own quotient rule on the numbers
        num, den = p.num, p.den
        assert results["d"](x) == (num.derivative()(x) * den(x) - num(x) * den.derivative()(x)) / den(x) ** 2
    # sums and products are cross-multiplied, never reduced
    assert (p + q).den == p.den * q.den and (p * q).num == p.num * q.num
    assert p - p == 0 and p * 1 == p and p / p == 1


def test_rational_function_rejects_a_zero_denominator_and_floats():
    with pytest.raises(ZeroPolynomial):
        RationalFunction(X, 0)
    with pytest.raises(ZeroPolynomial):
        RationalFunction(X) / RationalFunction(0)
    with pytest.raises(TypeError):
        RationalFunction(X) + 0.5
    assert RationalFunction(X) != "x"


def test_polynomial_and_quotient_witnesses_round_trip_through_json():
    biv = (BivariatePolynomial.x() - Fraction(1, 3) * BivariatePolynomial.y()) ** 2
    rf = RationalFunction(BivariatePolynomial.y(), X * Fraction(2, 5) + 1)
    cert = Certificate("c", "exact", "verified", "a", witnesses={"biv": biv, "rf": rf, "p": X * Fraction(-3, 7)})
    loaded = json.loads(cert.to_json())["witnesses"]
    assert loaded["biv"] == [["0/1", "0/1", "1/1"], ["0/1", "-2/3"], ["1/9"]]
    assert BivariatePolynomial.from_json_coeffs(loaded["biv"]) == biv
    assert RationalPolynomial.from_json_coeffs(loaded["p"]) == X * Fraction(-3, 7)
    assert loaded["rf"] == {"num": [[], ["1/1"]], "den": ["1/1", "2/5"]}
    num = BivariatePolynomial.from_json_coeffs(loaded["rf"]["num"])
    den = RationalPolynomial.from_json_coeffs(loaded["rf"]["den"])
    assert (num, den) == (rf.num, rf.den) and RationalFunction(num, den) == rf


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
coeff_lists = st.lists(rationals, min_size=0, max_size=12)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=-10 ** 4, max_value=10 ** 4).filter(lambda k: k != 0))
def test_canonical_form_round_trip(a, b, k):
    assert Fraction(a * k, b * k) == Fraction(a, b)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_derivative_linearity(ca, cb):
    p, q = RationalPolynomial(ca), RationalPolynomial(cb)
    assert (p + q).derivative() == p.derivative() + q.derivative()


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6),
)
@settings(max_examples=80)
def test_descartes_soundness_on_factored_inputs(roots):
    p = RationalPolynomial.from_roots(roots)
    positives = sum(1 for r in roots if r > 0)
    changes = descartes_sign_changes(p)
    assert changes >= positives
    assert (changes - positives) % 2 == 0


@given(
    st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
        rationals,
        max_size=12,
    )
)
@settings(max_examples=60)
def test_sign_split_reassembles(terms):
    w = BivariatePolynomial(terms)
    pos, neg = w.split_by_sign()
    assert (pos - neg) == w
    # both halves have strictly positive stored coefficients
    assert all(c > 0 for c in pos.terms.values())
    assert all(c > 0 for c in neg.terms.values())


def test_bivariate_substitution():
    w = (BivariatePolynomial.x() + BivariatePolynomial.y()) ** 3
    collapsed = w.substitute_y(RationalPolynomial([1]))  # y -> 1
    assert collapsed == (X + 1) ** 3


# reference arithmetic on sparse {(j, k): c} maps of the terms c x^j y^k,
# written independently of the polynomial classes
def _ref_clean(terms):
    return {key: c for key, c in terms.items() if c}


def _ref_add(p, q, sign=1):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for (j1, k1), c1 in p.items():
        for (j2, k2), c2 in q.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(p, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _random_terms(rng, size):
    return {
        (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(size)
    }


@pytest.mark.parametrize("seed", range(12))
def test_bivariate_arithmetic_matches_sparse_reference(seed):
    rng = random.Random(seed)
    p, q = _random_terms(rng, rng.randint(0, 8)), _random_terms(rng, rng.randint(1, 8))
    P, Q = BivariatePolynomial(p), BivariatePolynomial(q)
    assert P.terms == _ref_clean(p)
    assert (P + Q).terms == _ref_add(p, q)
    assert (P - Q).terms == _ref_add(p, q, sign=-1)
    assert (P * Q).terms == _ref_mul(p, q)
    assert (3 * P - Fraction(1, 2)).terms == _ref_add(_ref_mul(p, {(0, 0): 3}), {(0, 0): Fraction(1, 2)}, sign=-1)
    for n in range(4):
        assert (P ** n).terms == _ref_pow(p, n)
    assert P.derivative().terms == _ref_clean({(j, k - 1): k * c for (j, k), c in p.items() if k})
    pos, neg = P.split_by_sign()
    assert pos.terms == {key: c for key, c in p.items() if c > 0}
    assert neg.terms == {key: -c for key, c in p.items() if c < 0}
    # y -> value, a polynomial in x, computed in the reference as terms with k = 0
    value = _random_terms(rng, 3)
    value_x = {(j, 0): c for (j, _), c in value.items()}
    expected = {}
    for (j, k), c in p.items():
        expected = _ref_add(expected, _ref_mul({(j, 0): c}, _ref_pow(value_x, k)))
    got = P.substitute_y(RationalPolynomial([value_x.get((j, 0), 0) for j in range(5)]))
    assert type(got) is RationalPolynomial
    assert {(j, 0): c for j, c in enumerate(got.coefficients) if c} == expected
    # equality and hashing see the polynomial, not the order of the map
    again = BivariatePolynomial(dict(reversed(list(p.items()))))
    assert again == P and hash(again) == hash(P)


def test_inherited_constructors_build_bivariate_polynomials():
    B = BivariatePolynomial
    made = [B.zero(), B.constant(Fraction(3, 4)), B.monomial(5, 3), B.variable(), B.from_roots([1, X])]
    assert all(type(p) is B for p in made)
    assert made[0].is_zero() and made[0].terms == {}
    assert made[1].terms == {(0, 0): Fraction(3, 4)}
    assert made[2].terms == {(0, 3): 5}
    assert made[3] == B.y() and made[3].terms == {(0, 1): 1}
    # (y - 1)(y - x) = y^2 - y - xy + x
    assert made[4].terms == {(0, 2): 1, (0, 1): -1, (1, 1): -1, (1, 0): 1}
    # a polynomial in x is a constant in y; it never equals a bivariate one
    assert B.constant(X) == B.x() and (X * B.y()).terms == {(1, 1): 1}
    assert B.x() != X and B.y() != X
