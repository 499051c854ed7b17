"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test recomputes its quantities from scratch (no values shared between
criteria) and prints a single line

    [criterion k] PASS|FAIL -- detail

before asserting, so the gate's status is readable straight off the test
log (run pytest with -rA to see the lines for passing tests too).
"""

import math
import time

import numpy as np
import pytest

from normratio.bounds import (
    directional_k1_upper,
    k_infinity,
    minimax_bounds,
    poincare_constant,
)
from normratio.concave import build_function, concave_envelope, tent_function
from normratio.geometry import (
    E1,
    E2,
    diamond,
    disc,
    parallelogram,
    square,
    triangle,
    width,
)
from normratio.norms import lp_directional_norm, scanline_l1_norm
from normratio.sampling import keyed_rng, random_envelope_descriptor
from normratio.search import (
    estimate_kp_pair,
    omega_schedule_ratios,
    phi_eps_schedule_ratios,
    vertical_omega_anchor,
)
from normratio.verify import run_all

from conftest import corpus_domains


def _report(k, ok, detail):
    print(f"[criterion {k}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_disc_tent_ratio():
    t0 = time.perf_counter()
    u = tent_function(disc(512), [(0.0, -1.0), (0.0, 1.0)])
    nx = scanline_l1_norm(u, E1).value
    ny = scanline_l1_norm(u, E2).value
    ratio = nx / ny
    dt = time.perf_counter() - t0
    ok = abs(ratio - 2.0) <= 1e-3 and dt < 1.0
    _report(1, ok, f"scan-line L1 ratio {ratio:.12f} (target 2 +- 1e-3) "
                   f"in {dt:.3f}s")


def test_criterion_2_sandwich_corpus():
    t0 = time.perf_counter()
    (res,) = run_all(cases=200, suites=["theorem1"])
    dt = time.perf_counter() - t0
    ok = res.passed and res.checks >= 1000 and dt < 30.0
    _report(2, ok, f"{res.checks} sandwich checks over {res.cases}x5 seeded "
                   f"instances, {len(res.failures)} violations, {dt:.2f}s")


def test_criterion_3_cone_mass_exact():
    u = concave_envelope(diamond(), [((0.0, 0.0), 1.0)])
    got = lp_directional_norm(u, E1, 1).value
    target = width(diamond(), E1) * u.max_value
    err = abs(got - target)
    ok = err < 1e-12
    _report(3, ok, f"cone mass {got!r} vs width*height {target!r}, "
                   f"|error| = {err:.2e}")


def test_criterion_4_scanline_oracle():
    worst = 0.0
    for k, dom in enumerate(corpus_domains(2026, 100)):
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(2026, k), dom))
        for h in (E1, E2):
            exact = lp_directional_norm(u, h, 1).value
            scan = scanline_l1_norm(u, h).value
            worst = max(worst, abs(scan - exact) / exact)
    u = tent_function(disc(512), [(0.0, -1.0), (0.0, 1.0)])
    rep = lp_directional_norm(u, E1, 1)
    split_err = abs(scanline_l1_norm(u, E1).value
                    - (rep.ac_part + rep.jump_part))
    ok = worst <= 1e-11 and split_err <= 1e-9
    _report(4, ok, f"worst facet/scan-line rel gap {worst:.2e} over 100 "
                   f"instances; disc tent ac+jump split off by {split_err:.2e}")


def test_criterion_5_tangent_and_edge_suites():
    res_tan, res_edge = run_all(cases=200, suites=["lemma-tan", "edge-slope"])
    ok = (res_tan.passed and res_edge.passed
          and res_tan.tol == 1e-9 and res_edge.tol == 1e-9)
    _report(5, ok, f"lemma-tan {res_tan.checks} checks "
                   f"({len(res_tan.failures)} violations), edge-slope "
                   f"{res_edge.checks} checks "
                   f"({len(res_edge.failures)} violations), tol 1e-9")


def test_criterion_6_poincare_constant():
    c = poincare_constant(2.0, 2000)
    rel = abs(c - 1.0 / math.pi ** 2) * math.pi ** 2
    doubling = abs(poincare_constant(2.0, 2000) - poincare_constant(2.0, 1000))
    ok = rel <= 1e-3 and doubling < 1e-4
    _report(6, ok, f"C_2 = {c:.8f}, rel err {rel:.2e}, grid-doubling "
                   f"delta {doubling:.2e}")


def test_criterion_7_angular_saturation():
    rows_d = omega_schedule_ratios(diamond(), math.inf)
    final_d = rows_d[-1]["ratio"]
    tri = triangle(0, 0, 2, 0, 1, 1)
    m = k_infinity(tri).value
    rows_t = omega_schedule_ratios(tri, math.inf)
    final_t = rows_t[-1]["ratio"]
    ok = 0.95 <= final_d <= 1.0 + 1e-12 and 0.95 * m <= final_t <= m + 1e-12
    _report(7, ok, f"diamond schedule ends at {final_d:.6f}, triangle at "
                   f"{final_t:.6f} (max slope {m})")


def test_criterion_8_divergent_schedules():
    sq = square()
    anchor = vertical_omega_anchor(sq)
    oks, finals = [], []
    for p in (math.inf, 2.0):
        rows = omega_schedule_ratios(sq, p, anchor=anchor)
        rs = [r["ratio"] for r in rows]
        oks.append(all(b > a for a, b in zip(rs, rs[1:])) and rs[-1] >= 10.0)
        finals.append(rs[-1])
    rows = phi_eps_schedule_ratios(disc(512), 2.0)
    rs = [r["ratio"] for r in rows]
    cap_ok = all(r is not None for r in rs) and \
        all(b > a for a, b in zip(rs, rs[1:]))
    ok = all(oks) and cap_ok
    _report(8, ok, f"square wall schedule finals: sup {finals[0]:.1f}, "
                   f"p=2 {finals[1]:.2f} (both increasing, >= 10); disc cap "
                   f"schedule {rs[0]:.3f} -> {rs[-1]:.3f} increasing")


def test_criterion_9_estimates_below_bounds():
    checks = []

    u = tent_function(disc(512), [(0.0, -1.0), (0.0, 1.0)])
    est = scanline_l1_norm(u, E1).value / scanline_l1_norm(u, E2).value
    cap = directional_k1_upper(disc(512), E1, E2).value
    checks.append(("disc tent vs 2w1/w2", est, cap))

    cone = concave_envelope(diamond(), [((0.0, 0.0), 1.0)])
    checks.append(("diamond cone vs 2wM",
                   lp_directional_norm(cone, E1, 1).value,
                   2.0 * width(diamond(), E1) * cone.max_value))

    for dom, label in ((diamond(), "diamond"),
                       (triangle(0, 0, 2, 0, 1, 1), "triangle")):
        final = omega_schedule_ratios(dom, math.inf)[-1]["ratio"]
        checks.append((f"{label} omega family vs max slope", final,
                       k_infinity(dom).value))

    final = phi_eps_schedule_ratios(disc(512), 2.0)[-1]["ratio"]
    from normratio.bounds import kp_upper_bound
    checks.append(("disc cap family vs lp bound", final,
                   kp_upper_bound(disc(512), 2.0).value))

    pair = estimate_kp_pair(diamond(), math.inf, budget=120, seed=42)
    checks.append(("diamond pair product vs minimax", pair.product,
                   minimax_bounds(diamond(), math.inf).value))

    bad = [(lbl, e, c) for lbl, e, c in checks if not e <= c + 1e-9]
    ok = not bad
    worst = max((e - c) for _, e, c in checks)
    _report(9, ok, f"{len(checks)} estimate/bound pairs, max overshoot "
                   f"{worst:.2e}" + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_10_minimax_products():
    t0 = time.perf_counter()
    domains = [square(), diamond(), triangle(0, 0, 2, 0, 1, 1),
               parallelogram(2.0, 1.0), disc(64)] + \
        list(corpus_domains(2027, 30))
    exact = all(minimax_bounds(d, 1).value == 4.0 for d in domains)
    prods = [minimax_bounds(d, 1).details["fp_product"] for d in domains]
    fp_ok = all(abs(p - 4.0) <= 1e-9 for p in prods)
    pair = estimate_kp_pair(diamond(), math.inf, budget=120, seed=42)
    dt = time.perf_counter() - t0
    ok = exact and fp_ok and 0.90 <= pair.product <= 1.0 + 1e-12 and dt < 10.0
    _report(10, ok, f"L1 minimax product 4 on {len(domains)} domains "
                    f"(fp spread {max(abs(p - 4.0) for p in prods):.1e}); "
                    f"diamond sup pair product {pair.product:.6f} in "
                    f"[0.90, 1.0]; {dt:.2f}s")
