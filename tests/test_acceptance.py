"""Acceptance suite: the ten headline criteria at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to stream
them); a failing assertion marks the criterion failed.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from leraykit.bwcert import cm_numeric_certificate, m_kernel, quadratic_roots
from leraykit.emcert import (
    bracket_high,
    bracket_low,
    em_certificate_suite,
    phi_preferred_reconstruction,
    pr_poly,
    q_root_mp,
    s_function,
    s_integral_tail,
    s_integral_tail_quad,
)
from leraykit.specialfn import phi, phi_sandwich
from leraykit.symbol import (
    MeasureTag,
    SymbolQuery,
    hf_limit,
    holder_conjugate,
    leray_norm,
    symbol_value,
)


def _report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n}: {label} {detail}"


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    f = Fraction(-man if sign else man)
    return f * Fraction(2) ** exp


def test_criterion_1_heisenberg_constancy():
    start = time.perf_counter()
    worst = worst_radius = 0.0
    for k in range(51):
        v = symbol_value(SymbolQuery(2.0, 1.0, k))
        worst = max(worst, abs(float(v.value) - 1.0))
        worst_radius = max(worst_radius, float(v.error_radius))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "J(1,2,k) = 1 for k = 0..50 within 1e-12, radii within 1e-12, under 1 s",
        worst <= 1e-12 and worst_radius <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.2e}, max radius {worst_radius:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_heisenberg_norm_formula():
    worst = 0.0
    for d in (-0.5, 0.0, 0.5, 1.5, 2.0, 2.5):
        got = float(leray_norm(2.0, MeasureTag.generic(d)).value.value)
        expected = math.sqrt(math.pi / 2 * (1 - d) / math.cos(d * math.pi / 2))
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-10
    cont = max(
        abs(float(leray_norm(2.0, MeasureTag.generic(d)).value.value) - 1.0)
        for d in (1 - 1e-6, 1 + 1e-6)
    )
    _report(
        2,
        "norm formula on the gamma = 2 family within 1e-10; continuous at d = 1",
        ok and cont <= 1e-4,
        f"max formula deviation {worst:.2e}, near-d=1 deviation {cont:.2e}",
    )


def test_criterion_3_pairing_norm_and_argmax():
    worst = 0.0
    for gamma in (1.2, 1.5, 2.0, 3.0, 5.0, 10.0):
        got = float(leray_norm(gamma, MeasureTag.pairing()).value.value)
        expected = gamma / (2 * math.sqrt(gamma - 1))
        worst = max(worst, abs(got - expected))
    argmax_ok = True
    for gamma in (1.2, 1.5, 3.0, 5.0, 10.0):
        d = gamma - 1
        values = [
            float(symbol_value(SymbolQuery(gamma, d, k)).sqrt().value)
            for k in range(201)
        ]
        argmax_ok = argmax_ok and values.index(max(values)) == 0
    _report(
        3,
        "pairing norm = gamma/(2 sqrt(gamma-1)) within 1e-10; mode scan peaks at k = 0",
        worst <= 1e-10 and argmax_ok,
        f"max deviation {worst:.2e}",
    )


def test_criterion_4_preferred_strictly_increasing_to_limit():
    ok = True
    detail = []
    for gamma in (1.5, 3.0, 5.0):
        d = (gamma + 1) / 3
        values = [symbol_value(SymbolQuery(gamma, d, k)).sqrt() for k in range(201)]
        increasing = all(
            b.lower > a.upper for a, b in zip(values, values[1:])
        )
        gap = abs(float(values[200].value) - hf_limit(gamma))
        ok = ok and increasing and gap <= 1e-3
        detail.append(f"gamma={gamma}: gap {gap:.2e}")
    _report(
        4,
        "preferred-mode norms strictly increase through k = 200 and land within 1e-3 of the limit",
        ok,
        "; ".join(detail),
    )


def test_criterion_5_holder_symmetry():
    rng = random.Random(20260809)
    worst = 0.0
    samples = 0
    while samples < 20:
        gamma = 1.1 + 2.8 * rng.random()
        if abs(gamma - 2) < 0.02:
            continue
        samples += 1
        a = 1.2 * rng.random()
        d = a * (gamma - 2) + 1
        gs = holder_conjugate(gamma)
        d2 = a * (gs - 2) + 1
        for k in range(0, 41, 5):
            v1 = symbol_value(SymbolQuery(gamma, d, k))
            v2 = symbol_value(SymbolQuery(gs, d2, k))
            rel = abs(float(v1.value - v2.value)) / float(v1.value)
            worst = max(worst, rel)
    _report(
        5,
        "Hölder symmetry of the symbol over 20 random (gamma, a) pairs, k <= 40",
        worst <= 1e-10,
        f"max relative mismatch {worst:.2e}",
    )


def test_criterion_6_phi_inequalities_and_sandwich():
    ok = True
    min_margin = math.inf
    for q, above in ((-2.0, False), (0.0, False), (1.0, False), (3.0, False), (2.0 / 3.0, True)):
        for i in range(50):
            r = q + 0.01 * ((1000.0 - q) / 0.01) ** (i / 49.0)
            v = phi(r, q)
            if above:
                margin = float(v.value - 1) - float(v.error_radius)
            else:
                margin = float(1 - v.value) - float(v.error_radius)
            min_margin = min(min_margin, margin)
            ok = ok and margin > 0
            if r > max(q - 1, 0.0):  # sandwich bounds are defined here
                lo, hi = phi_sandwich(r, q)
                ok = ok and lo < float(v.value) < hi
    _report(
        6,
        "phi < 1 beyond radii for q in {-2,0,1,3}, phi > 1 at q = 2/3; sandwich contains phi",
        ok,
        f"min separation {min_margin:.2e}",
    )


def test_criterion_7_exact_certificate_suite():
    start = time.perf_counter()
    suite = em_certificate_suite()
    elapsed = time.perf_counter() - start
    by_id = {c.claim_id: c for c in suite}
    ok = all(c.verdict == "verified" for c in suite)
    h = by_id["em.h.pipeline"].witnesses
    ok = ok and h["h_numerator_matches_table"] and h["h1_numerator_matches_table"]
    ok = ok and h["h2_numerator_matches_table"] and h["h2_descartes_count"] == 1
    ok = ok and h["h2_sign_pattern"] == "--------" + "+" * 9
    ok = ok and h["h2_at_1/3"] == Fraction(-437616243, 25600000)
    ok = ok and h["h2_at_2/3"] == Fraction(49618, 2278125)
    s = by_id["em.s.peak-bound"].witnesses
    ok = ok and s["p_coefficients_match_table"] and s["p_sign_changes"] == 6
    ok = ok and s["beta1_beta21_zero"] and s["p14_sign_changes"] == 1
    ok = ok and s["p14_at_0"] == Fraction(-2159106379702272, 5 ** 7)
    ok = ok and s["p14_at_2/3"] == Fraction(18441535745869667168145408, 5 ** 7)
    ok = ok and s["lower_derivatives_positive_at_2/3"]
    ok = ok and s["u_coefficients_match_table"] and s["v_coefficients_match_table"]
    ok = ok and by_id["em.qroot.bracket"].witnesses["bracket_low_identity"]
    ok = ok and by_id["em.qroot.bracket"].witnesses["bracket_high_identity"]
    ok = ok and elapsed < 30.0
    _report(
        7,
        "exact certificate suite verified end to end (zero tolerance)",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_8_em_reconstruction():
    ok = True
    worst = 0.0
    for r in (0.7, 1.0, 2.0, 5.0, 20.0):
        recon, tail = phi_preferred_reconstruction(r)
        diff = abs(float(phi(r, 2.0 / 3.0).value) - recon)
        worst = max(worst, diff)
        ok = ok and diff <= 1e-10 and tail <= 1e-10
    worst_int = 0.0
    for r in (1.0, 2.0, 5.0):
        closed = s_integral_tail(r)
        oracle = s_integral_tail_quad(r)
        rel = abs(closed - oracle) / abs(oracle)
        worst_int = max(worst_int, rel)
        ok = ok and rel <= 1e-8
    _report(
        8,
        "series reconstruction within 1e-10 and tail integral vs quadrature within 1e-8",
        ok,
        f"max reconstruction gap {worst:.2e}, max integral rel err {worst_int:.2e}",
    )


def test_criterion_9_root_machinery():
    rng = random.Random(1129)
    ok = True
    worst_resid = 0.0
    lo_log, hi_log = math.log(2 / 3), math.log(1000.0)
    for _ in range(100):
        r = math.exp(lo_log + (hi_log - lo_log) * rng.random())
        if r <= 2 / 3 + 1e-9:
            r = 2 / 3 + 1e-3
        rf = Fraction(r)
        p = pr_poly(rf)
        m_val, mu_val = bracket_low(rf), bracket_high(rf)
        # exact: sign change across the bracket pins the unique positive root
        ok = ok and p(m_val) > 0 > p(mu_val)
        q = q_root_mp(r)
        qf = mpf_to_fraction(q)
        ok = ok and m_val < qf < mu_val
        scale = sum(abs(float(c)) * float(q) ** n for n, c in enumerate(p.coefficients))
        resid = abs(float(p(q))) / scale
        worst_resid = max(worst_resid, resid)
        ok = ok and resid < 1e-10
        ok = ok and s_function(mpmath.mpf(r), q) < 16 / (3125 * mpmath.mpf(r) ** 3)
    _report(
        9,
        "bracket m(r) < Q_r < M(r), scaled residual < 1e-10, peak below 16/(3125 r^3) on 100 samples",
        ok,
        f"max scaled residual {worst_resid:.2e}",
    )


def test_criterion_10_bernstein_widder_evidence():
    ok = True
    for q in (-2.0, 0.0, 1.0, 3.0):
        ok = ok and cm_numeric_certificate(q).verdict == "supports"
    refuting = cm_numeric_certificate(2.0 / 3.0)
    ok = ok and refuting.verdict == "refutes"
    t_wit = refuting.witnesses.get("kernel_witness_t")
    ok = ok and t_wit is not None and m_kernel(t_wit, 2.0 / 3.0) < 0
    s2 = quadratic_roots(1e-4)[1]
    limit = (3 - math.sqrt(3)) / 6
    ok = ok and abs(s2 - limit) <= 1e-4
    _report(
        10,
        "complete monotonicity supported on {-2,0,1,3}, refuted at 2/3 with kernel witness; s2 limit",
        ok,
        f"witness t = {t_wit:.3f}, |s2(1e-4) - (3-sqrt3)/6| = {abs(s2 - limit):.2e}",
    )
