"""Property tests of the integer primitives in ``leraykit._libmp``.

Each primitive must give the tuple mpmath.libmp gives, bit for bit, at
80, 120 and 200 bits, on the finite raw numbers and intervals it is
defined for: mixed signs, huge and tiny exponents, zeros, intervals with
an end at 0 or across it, and divisors wholly above or below 0.  exp and log are compared with libmp's own value at prec + 300
bits rounded once, the correctly rounded result: that is libmp's result
at prec bits except in the rare calls where libmp misrounds (about one
exp call in 5,000 at directed rounding), where the integer version keeps
the correct one.

CI runs this file in its own step with the "ci" hypothesis profile
(1,000 examples per property); the tier-1 step leaves it out.
"""

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.libmp import libmpi

from leraykit import _libmp as lm
from leraykit.specialfn import _bernoulli

# the first call at a new precision computes ln 2 and the log table
settled = settings(deadline=None)
PRECS = st.sampled_from([80, 120, 200])
DIRECTED = st.sampled_from(["f", "c"])
ROUNDINGS = st.sampled_from(["f", "c", "n", "d", "u"])


def _finite(max_bits=260, exponents=st.integers(-1100, 1100) | st.sampled_from([-10**5, 10**5])):
    """Nonzero raw numbers of either sign, wider than the precision or not."""
    return st.builds(
        lambda m, e, negative: libmp.from_man_exp(-m if negative else m, e),
        st.integers(1, 2 ** max_bits), exponents, st.booleans(),
    )


FINITE = _finite() | st.just(libmp.fzero)


@st.composite
def intervals(draw):
    """[a, b] with a <= b, either end possibly 0."""
    a, b = draw(FINITE), draw(FINITE)
    if libmp.mpf_lt(b, a):
        a, b = b, a
    if draw(st.booleans()) and libmp.mpf_lt(a, libmp.fzero) and libmp.mpf_lt(libmp.fzero, b):
        a, b = draw(st.sampled_from([(a, libmp.fzero), (libmp.fzero, b), (a, b)]))
    return a, b


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _correctly_rounded(fn, x, prec, rnd):
    """libmp's fn at prec + 300 bits, rounded once at prec bits: the value
    half a unit in the last place above that floor, below which the
    irrational fn(x) lies, has no rounding boundary at prec bits between
    itself and fn(x)."""
    sign, man, exp, bc = fn(x, prec + 300, "f")
    shift = prec + 301 - bc
    return libmp.from_man_exp((-1) ** sign * (man << shift) + 1, exp - shift, prec, rnd)


@settled
@given(st.integers(-2 ** 300, 2 ** 300), st.integers(-3000, 3000), st.sampled_from([0, 80, 120, 200]), ROUNDINGS)
def test_make_is_from_man_exp(man, exp, prec, rnd):
    assert lm._make(man, exp, prec, rnd) == libmp.from_man_exp(man, exp, prec, rnd)


@settled
@given(FINITE, FINITE, st.sampled_from([0, 80, 120, 200]), ROUNDINGS)
def test_add_sub_mul(s, t, prec, rnd):
    assert lm._add(s, t, prec, rnd) == libmp.mpf_add(s, t, prec, rnd)
    assert lm._add(s, lm._neg(t), prec, rnd) == libmp.mpf_sub(s, t, prec, rnd)
    assert lm._mul(s, t, prec, rnd) == libmp.mpf_mul(s, t, prec, rnd)


@settled
@given(FINITE, FINITE, PRECS, ROUNDINGS)
def test_div(s, t, prec, rnd):
    assert _outcome(lm._div, s, t, prec, rnd) == _outcome(libmp.mpf_div, s, t, prec, rnd)


@settled
@given(FINITE, PRECS, ROUNDINGS)
def test_neg_pos_sqrt(s, prec, rnd):
    assert lm._neg(s, prec, rnd) == libmp.mpf_neg(s, prec, rnd)
    assert lm._pos(s, prec, rnd) == libmp.mpf_pos(s, prec, rnd)
    if lm._sign(s) >= 0:
        assert lm._sqrt(s, prec, rnd) == libmp.mpf_sqrt(s, prec, rnd)


@settled
@given(FINITE, FINITE)
def test_comparisons(s, t):
    assert lm._sign(s) == libmp.mpf_sign(s)
    assert lm._cmp(s, t) == libmp.mpf_cmp(s, t)
    assert lm._lt(s, t) == libmp.mpf_lt(s, t) and lm._le(s, t) == libmp.mpf_le(s, t)


@settled
@given(FINITE, ROUNDINGS)
def test_to_float(s, rnd):
    assert lm._to_float(s, rnd) == libmp.to_float(s, rnd=rnd)


@settled
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_from_float(x):
    assert lm._from_float(x) == libmp.from_float(x)


@settled
@given(intervals(), intervals(), PRECS)
def test_interval_arithmetic(s, t, prec):
    assert lm._iadd(s, t, prec) == libmpi.mpi_add(s, t, prec)
    assert lm._isub(s, t, prec) == libmpi.mpi_sub(s, t, prec)
    assert lm._imul(s, t, prec) == libmpi.mpi_mul(s, t, prec)
    if libmp.mpf_lt(libmp.fzero, t[0]) or libmp.mpf_lt(t[1], libmp.fzero):  # t wholly above or below 0
        assert lm._idiv(s, t, prec) == libmpi.mpi_div(s, t, prec)
    assert lm._ineg(s, prec) == libmpi.mpi_neg(s, prec)
    assert lm._imid(s, prec) == libmpi.mpi_mid(s, prec)


EXP_ARGS = _finite(max_bits=240, exponents=st.integers(-1100, -230) | st.integers(-240, 13))


@settled
@given(EXP_ARGS, PRECS, DIRECTED)
def test_exp_is_correctly_rounded(x, prec, rnd):
    assert lm._exp(x, prec, rnd) == _correctly_rounded(libmp.mpf_exp, x, prec, rnd)


@settled
@given(_finite(), PRECS, DIRECTED)
def test_log_is_correctly_rounded(x, prec, rnd):
    x = libmp.mpf_abs(x)
    if x == libmp.fone:
        assert lm._log(x, prec, rnd) == libmp.fzero
    else:
        assert lm._log(x, prec, rnd) == _correctly_rounded(libmp.mpf_log, x, prec, rnd)


@settled
@given(st.integers(1, 2 ** 200), st.integers(1, 200), st.booleans(), PRECS, DIRECTED)
def test_log_next_to_one(man, lost, below, prec, rnd):
    """x = 1 -+ man 2^-(lost + bits of man): log x cancels lost bits."""
    shift = lost + man.bit_length()
    x = libmp.from_man_exp((1 << shift) + (-man if below else man), -shift)
    assert lm._log(x, prec, rnd) == _correctly_rounded(libmp.mpf_log, x, prec, rnd)


@settled
@given(st.integers(1, 2 ** 8), st.integers(1, 210), st.booleans(), PRECS, DIRECTED)
@example(1, 84, True, 200, "c")
@example(3, 64, True, 200, "f")
def test_exp_next_to_zero(man, shift, negative, prec, rnd):
    """x = -+man 2^-(shift + bits of man): 1 + x, 1 + x + x^2/2 and, when
    man has the factors 3, 5, ..., longer partial sums of the series are
    rounding boundaries next to e^x."""
    x = libmp.from_man_exp(-man if negative else man, -shift - man.bit_length())
    assert lm._exp(x, prec, rnd) == _correctly_rounded(libmp.mpf_exp, x, prec, rnd)


def _oracle_between(lo, hi, f, truth):
    """lo 2^f <= truth <= hi 2^f, with truth an mpf far more precise."""
    return mpmath.ldexp(lo, f) <= truth <= mpmath.ldexp(hi, f)


@settled
@given(EXP_ARGS, st.sampled_from([128, 168, 248]))
def test_exp_core_encloses_exp(x, v):
    """The fixed-point enclosure itself, not only its rounding: a step
    rounded the wrong way leaves the value outside it."""
    lo, hi, f = lm._exp_fixed_core(lm._val(x), x[2], v)
    with mpmath.workprec(v + 400):
        assert _oracle_between(lo, hi, f, mpmath.exp(mpmath.mpf(x)))
    assert (hi - lo) << v < lo


@settled
@given(_finite(), PRECS)
@example(libmp.from_man_exp(1, -1), 80)
def test_log_core_encloses_log(x, prec):
    x = libmp.mpf_abs(x)
    if x != libmp.fone:
        lo, hi, f = lm._log_fixed_core(x[1], x[2], prec)
        w = -f
        with mpmath.workprec(w + 400):
            truth = mpmath.log(mpmath.mpf(x))
            assert _oracle_between(lo, hi, -w, truth)
            assert hi - lo < abs(truth) * 2 ** (w - prec - lm._EXTRA + 8)


def test_ln2_encloses_ln2():
    for w in (64, 200, 1000, 150):
        lo, hi = lm._ln2(w)
        with mpmath.workprec(w + 100):
            assert _oracle_between(lo, hi, -w, mpmath.ln2) and hi - lo <= 2


def test_pi_matches_mpmath():
    for prec in range(80, 401):
        assert lm._pi(prec) == libmpi.mpi_pi(prec), prec
        a, b = lm._pi(prec)
        with mpmath.workprec(prec):
            nearest = (+mpmath.pi)._mpf_
        assert nearest in (a, b), prec


def test_bernoulli_matches_mpmath():
    for n in range(61):
        assert _bernoulli(n) == Fraction(*mpmath.bernfrac(n)), n
