"""Symbol function, mode norms, symmetries, and monotonicity scans."""

import math
import random
import tracemalloc

import mpmath
import pytest

from leraykit.errors import DegenerateGamma, DomainError, InconclusiveComparison, LeraykitError, UnboundedMode
from leraykit.specialfn import precision_bits, set_precision_bits
from leraykit.symbol import (
    HolderReparam,
    MeasureTag,
    Monotonicity,
    ScanResult,
    SymbolQuery,
    boundedness_interval,
    hf_limit,
    holder_conjugate,
    holder_partner,
    leray_norm,
    monotonicity_scan,
    sup_search,
    symbol_value,
)
from leraykit.symbol import _hf_limit_bf, _log_j_screen, _sqrt_j_bracket


def J(gamma, d, k):
    v = symbol_value(SymbolQuery(gamma, d, k))
    assert v.error_radius <= 1e-12
    return v


def test_heisenberg_lebesgue_is_one():
    for k in range(0, 25):
        v = J(2.0, 1.0, k)
        assert v.contains(1)
        assert abs(float(v.value) - 1.0) < 1e-12


def test_pairing_mode_zero_closed_form():
    # J(gamma-1, gamma, 0) = gamma^2 / (4 (gamma - 1))
    for gamma in (1.5, 2.0, 3.0, 7.0):
        v = J(gamma, gamma - 1, 0)
        expected = gamma ** 2 / (4 * (gamma - 1))
        assert abs(float(v.value) - expected) <= 1e-13
    assert abs(float(J(3.0, 2.0, 0).value) - 9 / 8) < 1e-14


def test_preferred_profile_increases():
    vals = [float(J(5.0, 2.0, k).value) for k in range(61)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_boundedness_intervals():
    assert boundedness_interval(2.0, 0) == (-1, 3)
    for gamma in (1.3, 2.0, 4.0):
        lo, hi = boundedness_interval(gamma, 0)
        assert lo == -1 and abs(hi - (2 * gamma - 1)) < 1e-12
    assert boundedness_interval(2.0, 1) == (-3, 5)
    with pytest.raises(DomainError):
        boundedness_interval(1.0, 0)
    with pytest.raises(DomainError, match="mode index k must be non-negative"):
        boundedness_interval(3.0, -1)


def test_mode_index_is_an_integer():
    # the fixed-point kernels take a Python int: an integral float k gives
    # the same value, and a fractional or infinite k is a DomainError
    query = SymbolQuery(3.0, 0.5, 7.0)
    assert type(query.k) is int and symbol_value(query).endpoints == symbol_value((3.0, 0.5, 7)).endpoints
    for k in (7.5, math.inf):
        with pytest.raises(DomainError, match="mode index k must be an integer"):
            SymbolQuery(3.0, 0.5, k)


def test_records_are_immutable_values():
    """The plain record classes compare, hash and print as frozen
    dataclasses did, and refuse assignment."""
    query = SymbolQuery(3.0, 0.5, 7.0)
    assert query == SymbolQuery(3.0, 0.5, 7) and hash(query) == hash(SymbolQuery(3.0, 0.5, 7))
    assert query != SymbolQuery(3.0, 0.5, 8) and query != (3.0, 0.5, 7)
    assert repr(query) == "SymbolQuery(gamma=3.0, d=0.5, k=7)"
    assert repr(MeasureTag.pairing()) == "MeasureTag(kind='pairing', d=None)"
    assert MeasureTag("generic", 1.0) == MeasureTag.generic(1.0)
    assert repr(HolderReparam(0.5)) == "HolderReparam(a=0.5)" and HolderReparam(0.5).q == 0.5
    scan = ScanResult(Monotonicity.CONSTANT)
    assert scan == ScanResult(Monotonicity.CONSTANT, None) and scan.witness_k is None
    assert repr(scan) == "ScanResult(classification=<Monotonicity.CONSTANT: 'constant'>, witness_k=None)"
    norm = leray_norm(3.0, MeasureTag.pairing())
    assert (norm.method, norm.attained_at, norm.k_scanned, norm.stabilized) == ("closed-form", 0, 0, None)
    for record, field in ((query, "k"), (MeasureTag.pairing(), "d"), (HolderReparam(0.5), "a"),
                          (scan, "witness_k"), (norm, "value")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, field)


def test_interval_nesting():
    for gamma in (1.2, 2.0, 5.0):
        for k in range(6):
            lo0, hi0 = boundedness_interval(gamma, k)
            lo1, hi1 = boundedness_interval(gamma, k + 1)
            assert lo1 < lo0 and hi0 < hi1


def test_unbounded_mode_raises():
    with pytest.raises(UnboundedMode):
        J(1.5, 10.0, 0)
    # but the same d is fine at high k (intervals widen)
    assert float(J(1.5, 10.0, 12).value) > 0


def test_positivity():
    for gamma in (1.2, 2.0, 3.5):
        for d in (-0.5, 0.5, 1.0):
            for k in (0, 3, 17):
                assert J(gamma, d, k).separated_above(0)


def test_holder_conjugate():
    assert holder_conjugate(2.0) == 2.0
    assert abs(holder_conjugate(3.0) - 1.5) < 1e-15
    assert abs(holder_conjugate(4 / 3) - 4.0) < 1e-12
    for gamma in (1.2, 1.9, 5.0):
        assert abs(holder_conjugate(holder_conjugate(gamma)) - gamma) < 1e-12
    with pytest.raises(DomainError):
        holder_conjugate(0.9)


def test_holder_conjugate_rounding_to_one_names_gamma_star():
    # gamma/(gamma - 1) rounds to 1.0 for a double gamma above about 2^53
    for call in (lambda: holder_conjugate(1e17), lambda: holder_partner(1e17, 5.0)):
        with pytest.raises(DomainError, match=r"gamma\* = gamma/\(gamma - 1\) rounds to 1.0 for gamma=1e\+17"):
            call()
    assert holder_conjugate(2.0 ** 52) > 1


def test_holder_partner_fixed_measures():
    # pairing maps to pairing, preferred to preferred, lebesgue to lebesgue
    for gamma in (1.5, 3.0, 5.0):
        gs = holder_conjugate(gamma)
        assert holder_partner(gamma, gamma - 1) == pytest.approx((gs, gs - 1), abs=1e-12)
        assert holder_partner(gamma, (gamma + 1) / 3) == pytest.approx((gs, (gs + 1) / 3), abs=1e-12)
        assert holder_partner(gamma, 1.0) == pytest.approx((gs, 1.0), abs=1e-12)
    with pytest.raises(DegenerateGamma):
        holder_partner(2.0, 1.3)


def test_holder_symmetry_random():
    rng = random.Random(7)
    for _ in range(15):
        gamma = 1.15 + 2.7 * rng.random()
        if abs(gamma - 2) < 0.05:
            gamma += 0.1
        a = 1.2 * rng.random()
        d = a * (gamma - 2) + 1
        gs, d2 = holder_partner(gamma, d)
        for k in (0, 7, 40):
            v1, v2 = J(gamma, d, k), J(gs, d2, k)
            rel = abs(float(v1.value - v2.value)) / float(v1.value)
            assert rel < 1e-12, (gamma, d, k)


def test_heisenberg_reflection():
    for d in (-0.5, 0.0, 0.7, 1.9, 2.5):
        for k in (0, 2, 9):
            v1, v2 = J(2.0, d, k), J(2.0, 2.0 - d, k)
            assert abs(float(v1.value - v2.value)) <= float(v1.error_radius + v2.error_radius)


def test_hf_limit():
    assert hf_limit(2.0) == pytest.approx(1.0, abs=1e-15)
    assert hf_limit(5.0) == pytest.approx(math.sqrt(1.25), abs=1e-15)
    assert hf_limit(3.0) == pytest.approx(hf_limit(1.5), abs=1e-14)
    with pytest.raises(DomainError):
        hf_limit(1.0)


def test_norm_gamma2_closed_form():
    res = leray_norm(2.0, MeasureTag.generic(0.0))
    assert res.method == "closed-form"
    assert float(res.value.value) == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)


def test_norm_pairing():
    res = leray_norm(3.0, MeasureTag.pairing())
    assert float(res.value.value) == pytest.approx(3 / (2 * math.sqrt(2)), abs=1e-12)
    assert res.method == "closed-form" and res.attained_at == 0
    res = leray_norm(2.0, MeasureTag.pairing())
    assert float(res.value.value) == pytest.approx(1.0, abs=1e-12)
    assert res.method == "closed-form" and res.attained_at == 0


def test_norm_preferred():
    res = leray_norm(4.0, MeasureTag.preferred())
    assert float(res.value.value) == pytest.approx(math.sqrt(4 / (2 * math.sqrt(3))), abs=1e-12)
    assert res.method == "closed-form" and res.attained_at is None
    res5 = leray_norm(5.0, MeasureTag.preferred())
    assert float(res5.value.value) == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_norm_lebesgue_formula():
    for gamma in (1.5, 3.0, 6.0):
        res = leray_norm(gamma, MeasureTag.lebesgue())
        expected = (gamma - 1) ** (1 / gamma - 1) * math.sqrt(
            math.pi / 4 * (gamma - 2) * gamma / math.sin(2 * math.pi / gamma)
        )
        assert float(res.value.value) == pytest.approx(expected, abs=1e-10)


def test_norm_lebesgue_continuity_at_gamma2():
    for gamma in (2 - 1e-6, 2 + 1e-6):
        res = leray_norm(gamma, MeasureTag.lebesgue())
        assert abs(float(res.value.value) - 1.0) < 1e-4


def test_norm_sup_search_fallback():
    res = leray_norm(5.0, MeasureTag.generic(3.0))
    assert res.method == "sup-search"
    assert res.attained_at == 0
    # supremum bounded below by every scanned mode and by the HF limit
    assert float(res.value.value) >= hf_limit(5.0) - 1e-12
    assert float(res.value.value) >= float(J(5.0, 3.0, 0).sqrt().value) - 1e-15


@pytest.mark.parametrize("gamma, d, attained_at", [(3.0, 2.0, 0), (5.0, 2.0, None)])
def test_norm_exact_distinguished_exponent_is_closed_form(gamma, d, attained_at):
    # d = gamma - 1 at gamma = 3 and d = (gamma + 1)/3 at gamma = 5, exactly
    res = leray_norm(gamma, d)
    assert res.method == "closed-form" and res.attained_at == attained_at


@pytest.mark.parametrize("gamma, d", [(3.0, 2.0000000000004), (4.0, 1.6666666666667667)])
def test_norm_near_distinguished_exponent_is_searched(gamma, d):
    # within 1e-12 of the pairing or preferred exponent, but not equal to it
    res = leray_norm(gamma, d)
    assert res.method == "sup-search" and res.stabilized


def test_norm_one_ulp_off_pairing_matches_the_closed_form():
    d = math.nextafter(2.0, 3.0)
    res = leray_norm(3.0, d)
    assert res.method == "sup-search" and res.attained_at == 0
    closed = J(3.0, d, 0).sqrt()
    assert abs(res.value.value - closed.value) <= res.value.error_radius + closed.error_radius
    assert float(res.value.value) == pytest.approx(3 / (2 * math.sqrt(2)), abs=1e-15)


def test_norm_unbounded():
    with pytest.raises(UnboundedMode):
        leray_norm(1.5, MeasureTag.generic(10.0))


def test_norm_consistency_with_scan_regimes():
    # decreasing regimes attain the supremum at k = 0
    for gamma, d in ((5.0, 4.0), (1.5, 0.3)):
        direct = float(J(gamma, d, 0).sqrt().value)
        res = leray_norm(gamma, MeasureTag.generic(d))
        assert float(res.value.value) == pytest.approx(direct, rel=1e-12)


def test_sup_search_argmax():
    value, argmax, scanned, stabilized = sup_search(5.0, 4.0, k_cap=250)
    assert argmax == 0 and scanned >= 200


def test_monotonicity_scans():
    assert monotonicity_scan(5.0, 4.0, 60).classification is Monotonicity.STRICTLY_DECREASING
    assert monotonicity_scan(5.0, 2.0, 60).classification is Monotonicity.STRICTLY_INCREASING
    assert monotonicity_scan(2.0, 1.0, 40).classification is Monotonicity.CONSTANT
    with pytest.raises(UnboundedMode):
        monotonicity_scan(1.5, 10.0, 20)


def test_monotonicity_non_monotone_witness():
    # at gamma = 5 an intermediate d dips before climbing back to the limit
    res = monotonicity_scan(5.0, 3.0, 120)
    assert res.classification is Monotonicity.NON_MONOTONE
    assert res.witness_k is not None and res.witness_k >= 0


def test_monotonicity_scan_stops_at_the_turning_index(monkeypatch):
    import leraykit.symbol as symbol

    calls = []

    def counting(query):
        calls.append(query.k)
        return symbol_value(query)

    monkeypatch.setattr(symbol, "symbol_value", counting)
    res = monotonicity_scan(5.0, 3.0, 2000)
    assert (res.classification, res.witness_k) == (Monotonicity.NON_MONOTONE, 1)
    assert calls == [0, 1, 2]


def _direct_scan(gamma, d, k_max):
    """monotonicity_scan with every mode a `symbol_value`: (classification,
    witness), or the error it raises."""
    try:
        values = [symbol_value(SymbolQuery(gamma, d, 0))]
        if gamma == 2 and d == 1:
            return Monotonicity.CONSTANT, None
        direction = 0
        for k in range(k_max):
            values.append(symbol_value(SymbolQuery(gamma, d, k + 1)))
            a, b = values[k], values[k + 1]
            if not (b.lower > a.upper or b.upper < a.lower):
                return InconclusiveComparison
            step = 1 if b.lower > a.upper else -1
            if direction and step != direction:
                return Monotonicity.NON_MONOTONE, k
            direction = step
    except UnboundedMode:
        return UnboundedMode
    return (Monotonicity.STRICTLY_INCREASING if direction > 0 else Monotonicity.STRICTLY_DECREASING), None


def _scan_outcome(gamma, d, k_max):
    try:
        res = monotonicity_scan(gamma, d, k_max)
    except (InconclusiveComparison, UnboundedMode) as exc:
        return type(exc)
    return res.classification, res.witness_k


def test_monotonicity_scan_matches_the_direct_scan():
    # the scan walks the modes of a gamma = m/n with a small m by exact
    # rational steps; its verdicts must be those of one symbol_value per mode
    rng = random.Random(28)
    # (5, 3.355) turns at k = 62, among the walked modes
    cases = [(5.0, 3.0, 2000), (2.0, 1.0, 200), (5.0, 2.0, 200), (5.0, 3.355, 200), (7.0, 1.6, 200),
             (4.663, 1.0, 120)]
    for _ in range(14):
        gamma = rng.choice((1.5, 2.0, 2.5, 3.0, 4.5, 5.0, 7.0, 1.25, 4.663, 1 + rng.uniform(0.1, 8)))
        lo, hi = -1, 2 * (gamma - 1) + 1
        d = lo + (hi - lo) * rng.uniform(0.02, 0.98)
        cases.append((gamma, d, rng.randint(1, 200)))
    outcomes = [_scan_outcome(*case) for case in cases]
    assert outcomes == [_direct_scan(*case) for case in cases]
    assert outcomes[0] == (Monotonicity.NON_MONOTONE, 1)
    assert outcomes[3] == (Monotonicity.NON_MONOTONE, 62)
    assert {o[0] for o in outcomes if isinstance(o, tuple)} >= {
        Monotonicity.NON_MONOTONE, Monotonicity.STRICTLY_DECREASING,
        Monotonicity.STRICTLY_INCREASING, Monotonicity.CONSTANT,
    }


def test_sup_search_memory_does_not_grow_with_k_cap():
    # a line that does not settle: every one of the 20,001 modes is scanned
    tracemalloc.start()
    try:
        value, argmax, scanned, stabilized = sup_search(60.0, 100.0, k_cap=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (argmax, scanned, stabilized) == (0, 20001, False)
    assert peak < 0.5e6


def test_continuity_of_gamma2_norm_at_d1():
    for d in (1 - 1e-6, 1 + 1e-6):
        res = leray_norm(2.0, MeasureTag.generic(d))
        assert abs(float(res.value.value) - 1.0) < 1e-4


def test_measure_tag_exponents():
    assert MeasureTag.pairing().exponent(3.0) == 2.0
    assert MeasureTag.preferred().exponent(5.0) == 2.0
    assert MeasureTag.dual_preferred().exponent(2.0) == 1.0
    assert MeasureTag.lebesgue().exponent(9.0) == 1.0
    assert MeasureTag.generic(0.25).exponent(9.0) == 0.25
    with pytest.raises(DomainError):
        MeasureTag("generic")
    with pytest.raises(DomainError):
        MeasureTag("nope")


def test_symbol_value_matches_direct_mpmath():
    """Independent route: direct Gamma quotient at high precision."""
    for gamma, d, k in ((2.0, 0.0, 0), (3.0, 2.0, 5), (5.0, 2.0, 40), (1.5, 0.5, 11)):
        with mpmath.workprec(200):
            a = (2 * k + 1 + mpmath.mpf(d)) / mpmath.mpf(gamma)
            b = 2 * k + 2 - a
            direct = (
                mpmath.gamma(a)
                * mpmath.gamma(b)
                / mpmath.gamma(k + 1) ** 2
                * (mpmath.mpf(gamma) / 2) ** (2 * k + 2)
                * mpmath.mpf(gamma - 1) ** (-b)
            )
        v = J(gamma, d, k)
        assert abs(float(v.value - direct)) <= float(v.error_radius) + 1e-18


def test_holder_reparam():
    rep = HolderReparam(1 / 3)  # the preferred-measure line
    assert rep.exponent(5.0) == pytest.approx(2.0, abs=1e-15)
    assert rep.q == pytest.approx(2 / 3)
    assert rep.all_modes_finite(5.0)
    back = HolderReparam.from_exponent(3.0, 2.0)
    assert back.a == pytest.approx(1.0)
    # outside the finiteness band: |q| >= gamma/|gamma-2|
    wide = HolderReparam(1 - 3.5)  # q = 3.5 > 5/3 at gamma = 5
    assert not wide.all_modes_finite(5.0)
    with pytest.raises(DegenerateGamma):
        HolderReparam.from_exponent(2.0, 1.5)


def test_all_modes_finite_is_the_exact_mode_0_test():
    # |q| < gamma/|gamma - 2| in doubles said False here, yet d is in I_0
    rep = HolderReparam(-1.818181818181818)
    assert rep.all_modes_finite(3.1)
    assert float(symbol_value(SymbolQuery(3.1, rep.exponent(3.1), 0)).value) > 1e15
    rng = random.Random(11)
    cases = [(3.1, -1.818181818181818)]
    for _ in range(2000):
        gamma = round(rng.uniform(1.05, 6.0), rng.randint(1, 4))
        if gamma == 2:
            continue
        # a just inside or outside the band edge d = -1 or d = 2 gamma - 1
        edge = rng.choice((-1.0, 2 * gamma - 1))
        a = (edge - 1) / (gamma - 2) * (1 + rng.uniform(-4e-16, 4e-16))
        cases.append((gamma, a))
    for gamma, a in cases:
        rep = HolderReparam(a)
        assert rep.all_modes_finite(gamma) == SymbolQuery(gamma, rep.exponent(gamma), 0).is_finite(), (gamma, a)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_exponents_rejected(bad):
    calls = [
        lambda: SymbolQuery(bad, 1.0, 0),
        lambda: SymbolQuery(3.0, bad, 0),
        lambda: MeasureTag.generic(bad),
        lambda: leray_norm(3.0, bad),
        lambda: monotonicity_scan(3.0, bad, 5),
        lambda: holder_partner(3.0, bad),
        lambda: hf_limit(bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="must be finite"):
            call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: sup_search(1.0, 1.0), DomainError, "gamma must exceed 1 (got 1.0)"),
        (lambda: sup_search(0.5, 1), DomainError, "gamma must exceed 1 (got 0.5)"),
        (lambda: sup_search(math.nan, 1.0), DomainError, "gamma must be finite"),
        (lambda: sup_search(3.0, math.inf), DomainError, "d must be finite"),
        (lambda: sup_search(3.0, 0.5, k_cap=-1), DomainError, "k_cap must be a non-negative integer (got -1)"),
        (lambda: sup_search(3.0, 0.5, k_cap=2.5), DomainError, "k_cap must be a non-negative integer (got 2.5)"),
        (lambda: sup_search(3.0, 0.5, k_cap=math.inf), DomainError, "k_cap must be a non-negative integer"),
        (lambda: leray_norm(3.0, 0.5, k_cap=-1), DomainError, "k_cap must be a non-negative integer (got -1)"),
        (lambda: leray_norm(3.0, MeasureTag.pairing(), k_cap=-1), DomainError, "k_cap must be"),
        (lambda: sup_search(3.0, 10.0), UnboundedMode, "d=10.0 outside the k=0 boundedness interval"),
    ],
)
def test_sup_search_rejects_hostile_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and message in str(info.value)


# ----------------------------------------------------------------------
# the double-precision screen of sup_search
# ----------------------------------------------------------------------
@pytest.fixture
def restore_precision():
    saved = precision_bits()
    yield
    set_precision_bits(saved)


def _certified_sup_search(gamma, d, k_cap):
    """sup_search decided by certified midpoints alone, mode by mode."""
    limit = _hf_limit_bf(gamma)
    best, best_k, run, run_sign, k, stabilized = None, 0, 0, 0, 0, False
    while k <= k_cap:
        v = symbol_value(SymbolQuery(gamma, d, k)).sqrt()
        if best is None or v.value > best.value:
            best, best_k = v, k
        diff = v.value - limit.value
        if abs(diff) < 1e-4:
            sign = 1 if diff > 0 else -1
            run, run_sign = (run + 1, sign) if run_sign == sign else (1, sign)
            if run >= 20:
                stabilized = True
                break
        else:
            run, run_sign = 0, 0
        k += 1
    if limit.value > best.value:
        return limit, None, k, stabilized
    return best, best_k, k, stabilized


def _outcome(search, gamma, d, k_cap):
    try:
        value, argmax, scanned, stabilized = search(gamma, d, k_cap)
    except LeraykitError as exc:
        return type(exc).__name__, str(exc)
    return value.lower, value.upper, argmax, scanned, stabilized


def _screen_cases():
    rng = random.Random(2024)
    cases = [
        (1e20, 5.0, 3),               # J ~ 1e19: screened like any other mode
        (1e20, 5.0, 60),
        (1e300, 0.0, 10),             # lgamma(A) of an A near 1e-300
        (6.0, 1.4, 40),               # attained at k = 1
        (2.0001, 1.0, 60),            # stabilizes after 20 modes
        (5.0, 2.0001, 30),            # near the preferred line: the limit wins
        (3.0, 0.5, 25),
        (1 + 2.0 ** -40, 0.5, 12),    # B far below 1 at every mode
        (2.5, 2.0, 6),                # A = B = k+1 = 2 at k = 1
        (5.0, 2.0, 60),               # J increases with k, and so does its radius
        (1e300, 1.5e300, 10),         # J ~ e^1035 beyond double range: every mode certified
    ]
    for _ in range(31):
        gamma = rng.choice((rng.uniform(1.05, 9.0), 1 + 10 ** rng.uniform(-12, -1), 10 ** rng.uniform(1, 20)))
        hi = 2 * (gamma - 1) + 1
        d = rng.choice((rng.uniform(-1, hi),) * 5 + ((gamma + 1) / 3 + rng.uniform(-1e-3, 1e-3),) * 2 + (hi + 0.5,))
        k_cap = rng.choice((rng.randint(0, 40),) * 3 + (rng.randint(100, 300),))
        cases.append((gamma, d, k_cap))
    return cases


@pytest.mark.parametrize("bits", [80, 120, 200])
def test_sup_search_screen_matches_certified_search(bits, restore_precision):
    set_precision_bits(bits)
    cases = _screen_cases()
    assert len(cases) == 42
    for gamma, d, k_cap in cases:
        assert _outcome(sup_search, gamma, d, k_cap) == _outcome(
            _certified_sup_search, gamma, d, k_cap
        ), (bits, gamma, d, k_cap)


@pytest.mark.parametrize("bits", [80, 120, 200, 400])
def test_sqrt_j_bracket_bounds_radius_and_encloses_midpoint(bits, restore_precision):
    set_precision_bits(bits)
    rng = random.Random(bits)
    modes = [(2.5, 2.0, 1), (3.0, 0.5, 2000), (1 + 2.0 ** -50, 1.0, 7), (1e300, 0.0, 3)]
    for _ in range(40):
        gamma = rng.choice((rng.uniform(1.05, 9.0), 1 + 10 ** rng.uniform(-15, -1), 10 ** rng.uniform(1, 300)))
        d = rng.uniform(-1, 2 * (gamma - 1) + 1)
        modes.append((gamma, d, rng.choice((1, 2, rng.randint(1, 3000), rng.randint(1, 10 ** 6)))))
    screened = 0
    for gamma, d, k in modes:
        j = symbol_value(SymbolQuery(gamma, d, k))
        # rho bounds the radius of the certified log J, which the bracket's
        # spread of 2 rho must cover
        _, _, rho = _log_j_screen(gamma, d, k)
        assert j.log().error_radius <= rho, (gamma, d, k)
        bracket = _sqrt_j_bracket(gamma, d, k)
        if bracket is not None:
            screened += 1
            assert bracket[0] <= j.sqrt().value <= bracket[1], (gamma, d, k)
    assert screened >= 30
