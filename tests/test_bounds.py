"""Tests for the ratio upper bounds, certificates, and the 1-D Poincare
constant solver."""

import math

import numpy as np
import pytest

from normratio.bounds import (
    _p_rayleigh_quotient,
    affine_normalize,
    directional_k1_upper,
    directional_upper_bound,
    k1_certificate,
    k_infinity,
    kp_upper_bound,
    minimax_bounds,
    poincare_constant,
    uniform_k1_upper,
)
from normratio.concave import tent_function
from normratio.geometry import (
    ConvexDomain,
    Direction,
    E1,
    E2,
    diamond,
    disc,
    extreme_x_points,
    parallelogram,
    square,
    triangle,
)
from normratio.norms import lp_directional_norm, norm_ratio
from normratio.sampling import keyed_rng

from conftest import corpus_domains


# ---------------------------------------------------------------------------
# L1 width-quotient bounds
# ---------------------------------------------------------------------------


def test_rectangle_directional_bound():
    rect = ConvexDomain([(0, 0), (2, 0), (2, 1), (0, 1)])
    rep = directional_k1_upper(rect, E1, E2)
    assert rep.value == pytest.approx(1.0, abs=1e-14)
    assert rep.attained
    assert rep.details["certificate_chord"] is not None


def test_triangle_bound_attained_by_certificate_tent():
    tri = triangle(0, 0, 4, 0, 3, 3)
    rep = directional_k1_upper(tri, E1, E2)
    assert rep.value == pytest.approx(1.5, abs=1e-13)
    assert rep.attained
    (a, b) = rep.details["certificate_chord"]
    assert a[0] == pytest.approx(3.0, abs=1e-12)
    assert b[0] == pytest.approx(3.0, abs=1e-12)
    # the tent over the certificate chord achieves the bound exactly
    u = tent_function(tri, [a, b])
    assert norm_ratio(u, E1, E2, 1) == pytest.approx(1.5, abs=1e-12)


def test_sheared_parallelogram_has_no_certificate():
    dom = ConvexDomain([(0, 0), (1, 0), (6, 1), (5, 1)])
    assert k1_certificate(dom, E1, E2) is None
    rep = directional_k1_upper(dom, E1, E2)
    assert not rep.attained
    uni = uniform_k1_upper(dom)
    assert uni.value == pytest.approx(2.0 * uni.details["w_max"]
                                      / uni.details["w_min"], rel=1e-14)
    assert not uni.attained


def test_uniform_bound_on_long_rectangle():
    # for an elongated box the diameter direction is orthogonal to the
    # minimal width up to tolerance, and the realizing chord exists
    rect = ConvexDomain([(0, 0), (100, 0), (100, 1), (0, 1)])
    rep = uniform_k1_upper(rect)
    assert rep.details["orthogonal_extremes"]
    assert rep.attained
    assert rep.value == pytest.approx(2.0 * math.hypot(100, 1), rel=1e-12)


def test_minimax_product_is_four():
    for k, dom in enumerate(corpus_domains(5301, 25)):
        rep = minimax_bounds(dom, 1)
        assert rep.value == 4.0
        assert rep.details["fp_product"] == pytest.approx(4.0, abs=1e-12), \
            f"case {k}"
    with pytest.raises(ValueError):
        minimax_bounds(square(), 2)


def test_minimax_sup_products():
    assert minimax_bounds(diamond(), math.inf).value == pytest.approx(
        1.0, abs=1e-12)
    rep = minimax_bounds(parallelogram(2.0, 1.0), math.inf)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.details["slope_xy"] == pytest.approx(1.0, abs=1e-12)
    # a vertical edge makes the product infinite
    assert minimax_bounds(square(), math.inf).value == math.inf


# ---------------------------------------------------------------------------
# Poincare constant
# ---------------------------------------------------------------------------


def test_poincare_p2_closed_form():
    c = poincare_constant(2.0, 2000)
    assert c == pytest.approx(1.0 / math.pi ** 2, rel=1e-6)
    # the discrete p = 2 maximum is the inverse of the smallest eigenvalue
    # of the second-difference matrix, 4 n^2 sin^2(pi / 2n)
    for n in (16, 400, 2000):
        exact = 1.0 / (4.0 * n * n * math.sin(math.pi / (2 * n)) ** 2)
        assert poincare_constant(2.0, n) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [100.0, 200.0])
def test_poincare_not_below_tent_at_large_p(p):
    # C_p is a supremum, so no admissible profile may exceed it; the tent
    # is near-optimal as p grows
    n = 16
    x = np.arange(1, n) / n
    tent = _p_rayleigh_quotient(np.minimum(x, 1.0 - x), 1.0 / n, p)
    assert poincare_constant(p, n) >= tent


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_poincare_grid_doubling_converged(p):
    assert abs(poincare_constant(p, 2000) - poincare_constant(p, 1000)) < 1e-4


@pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
def test_poincare_matches_direct_minimization(p):
    # independent check: minimize the same discrete quotient with a
    # general-purpose quasi-Newton method and compare minima
    from scipy.optimize import minimize

    n = 400
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    v0 = np.sin(math.pi * x)[1:-1]

    def neg_log_quotient(v):
        vp = np.concatenate([[0.0], v, [0.0]])
        q = np.diff(vp) / h
        N = float((np.abs(v) ** p).sum() * h)
        D = float((np.abs(q) ** p).sum() * h)
        gN = p * np.abs(v) ** (p - 1) * np.sign(v) * h
        gq = p * np.abs(q) ** (p - 1) * np.sign(q) * (1.0 / h) * h
        gD = gq[:-1] - gq[1:]
        return -(math.log(N) - math.log(D)), -(gN / N - gD / D)

    res = minimize(neg_log_quotient, v0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-12})
    direct = _p_rayleigh_quotient(res.x, h, p)
    ours = poincare_constant(p, n)
    assert ours == pytest.approx(direct, rel=1e-9)
    # and ours never undercuts the discrete minimum found independently
    assert ours >= direct - 1e-9 * direct


def test_poincare_runs_clean_at_p_700():
    # the sin start's quotient overflows there (warnings are errors under
    # this suite); the value stays near Lindqvist's closed form
    # 1 / ((p - 1) pi_p^p), pi_p = 2 pi / (p sin(pi / p)), taken in logs
    p = 700.0
    log_exact = -math.log(p - 1.0) - p * math.log(
        2.0 * math.pi / (p * math.sin(math.pi / p)))
    assert abs(math.log(poincare_constant(p)) - log_exact) < math.log(1.05)


def test_poincare_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poincare_constant(1.0)
    with pytest.raises(ValueError):
        poincare_constant(math.inf)
    with pytest.raises(ValueError):
        poincare_constant(2.0, 8)


# ---------------------------------------------------------------------------
# p > 1 bounds
# ---------------------------------------------------------------------------


def test_affine_normalize_pins_extremes():
    for k, dom in enumerate(corpus_domains(5302, 20)):
        image, lin, shift = affine_normalize(dom)
        assert lin[0, 1] == 0.0  # vertical lines stay vertical
        A, B, c = extreme_x_points(image)
        assert A == pytest.approx([0.0, 0.0], abs=1e-9), f"case {k}"
        assert B == pytest.approx([2.0, 0.0], abs=1e-9), f"case {k}"
        assert c == pytest.approx(0.0, abs=1e-9), f"case {k}"


def test_kp_upper_diamond_value():
    rep = kp_upper_bound(diamond(), 2.0)
    assert rep.value == pytest.approx(1.0 + 2.0 / math.pi, abs=2e-3)
    assert rep.details["normalized_max_slope"] == pytest.approx(1.0, abs=1e-12)
    assert rep.details["poincare_c"] == pytest.approx(1.0 / math.pi ** 2,
                                                      rel=1e-5)


def test_kp_upper_square_is_infinite():
    rep = kp_upper_bound(square(), 2.0)
    assert rep.value == math.inf
    with pytest.raises(ValueError):
        kp_upper_bound(square(), 1.0)
    with pytest.raises(ValueError):
        kp_upper_bound(square(), math.inf)


def test_k_infinity_cases():
    rep = k_infinity(diamond())
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.attained
    rep = k_infinity(triangle(0, 0, 2, 0, 1, 1))
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.attained
    rep = k_infinity(square())
    assert rep.value == math.inf
    assert not rep.attained


def test_directional_dispatch():
    d = diamond()
    assert directional_upper_bound(d, E1, E2, 1).value == pytest.approx(
        directional_k1_upper(d, E1, E2).value, rel=1e-14)
    assert directional_upper_bound(d, E1, E2, 2).value == pytest.approx(
        kp_upper_bound(d, 2.0).value, rel=1e-12)
    assert directional_upper_bound(d, E1, E2, math.inf).value == \
        pytest.approx(k_infinity(d).value, rel=1e-14)
    # non-orthogonal pairs have no finite bound for p > 1
    h45 = Direction.from_angle(math.pi / 4)
    rep = directional_upper_bound(d, E1, h45, 2)
    assert rep.value == math.inf
    assert "reason" in rep.details
    # but rotated orthogonal pairs are supported
    h135 = Direction.from_angle(3 * math.pi / 4)
    rep = directional_upper_bound(d, h45, h135, math.inf)
    assert math.isfinite(rep.value) or rep.value == math.inf  # well-defined


def test_rotated_pair_matches_rotated_domain():
    # bounding along a rotated pair equals bounding the rotated domain
    # along the axes
    rng = keyed_rng(5303)
    for k, dom in enumerate(corpus_domains(5303, 8)):
        th = rng.uniform(0.0, math.pi)
        h1 = Direction.from_angle(th)
        h2 = Direction.from_angle(th + 0.5 * math.pi)
        R = np.array([[h1.dx, h1.dy], [h2.dx, h2.dy]])
        rot = ConvexDomain(dom.vertices @ R.T)
        a = directional_upper_bound(dom, h1, h2, math.inf).value
        b = k_infinity(rot).value
        assert a == pytest.approx(b, rel=1e-9) or (a == b == math.inf), \
            f"case {k}"
