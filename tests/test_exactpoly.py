"""Exact polynomial algebra: examples and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leraykit.exactpoly import (
    BivariatePolynomial,
    RationalFunction,
    RationalPolynomial,
    descartes_sign_changes,
    poly_gcd,
    sign_pattern,
)
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
    g = poly_gcd((X + 1) * (X - 3), (X + 1) * (X + 5))
    assert g == X + 1


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
    assert rf.num == X - 2
    assert rf.den == X + 3
    assert rf(Fraction(1)) == Fraction(-1, 4)


def test_rational_function_derivative():
    rf = RationalFunction(RationalPolynomial([1]), X)  # 1/x
    d = rf.derivative()
    assert d.num == RationalPolynomial([-1])
    assert d.den == X * X


def test_as_polynomial_requires_unit_denominator():
    rf = RationalFunction(X * X, X)
    assert rf.as_polynomial() == X
    with pytest.raises(ValueError):
        RationalFunction(RationalPolynomial([1]), X).as_polynomial()


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
