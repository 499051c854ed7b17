"""Tests for the lower-bound search: candidate enumeration, witnesses, the
divergent families and the direction sweep."""

import math

import numpy as np
import pytest

from normratio import (
    ConvexDomain,
    E1,
    E2,
    build_function,
    diamond,
    directional_sweep,
    disc,
    estimate_kp_lower,
    estimate_kp_pair,
    norm_ratio,
    omega_schedule_ratios,
    phi_eps_schedule_ratios,
    square,
    triangle,
)
from normratio.search import default_omega_anchor, vertical_omega_anchor

from conftest import NEAR_VERTICAL_SQUARES, corpus_domains


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------


def test_disc_l1_estimate_reaches_the_bound():
    est = estimate_kp_lower(disc(512), 1, budget=60, seed=42)
    assert est.best_ratio == pytest.approx(2.0, abs=1e-9)
    assert est.upper_bound == pytest.approx(2.0, abs=1e-12)
    assert est.witness["kind"] == "tent"
    # the witness is a complete recipe: rebuilding it reproduces the ratio
    u = build_function(disc(512), est.witness)
    assert norm_ratio(u, E1, E2, 1) == pytest.approx(est.best_ratio, rel=1e-12)


def test_estimate_is_deterministic():
    a = estimate_kp_lower(diamond(), 1, budget=50, seed=7)
    b = estimate_kp_lower(diamond(), 1, budget=50, seed=7)
    assert a.to_dict() == b.to_dict()


def test_estimate_rejects_zero_budget():
    with pytest.raises(ValueError):
        estimate_kp_lower(square(), 1, budget=0)


def test_estimates_never_exceed_bounds():
    for k, dom in enumerate(corpus_domains(4401, 12)):
        for p in (1, math.inf):
            est = estimate_kp_lower(dom, p, budget=40, seed=k)
            if math.isinf(est.upper_bound):
                continue
            assert est.best_ratio <= est.upper_bound + 1e-9, f"case {k} p={p}"
            assert est.gap == pytest.approx(
                est.upper_bound - est.best_ratio, abs=1e-12)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def test_vertical_anchor_prefers_left_wall():
    assert vertical_omega_anchor(square()) == pytest.approx([0.0, 0.5])
    for verts in NEAR_VERTICAL_SQUARES:
        dom = ConvexDomain(verts)
        assert vertical_omega_anchor(dom) == pytest.approx([0.0, 0.5],
                                                           abs=1e-9)
    # with a corner on the left, the right wall is the one to lean on
    assert vertical_omega_anchor(triangle(0, 0, 1, -1, 1, 1)) == \
        pytest.approx([1.0, 0.0])
    with pytest.raises(ValueError):
        vertical_omega_anchor(triangle(0, 0, 2, 0, 1, 1))


def test_default_anchor_on_diamond():
    assert default_omega_anchor(diamond()) == pytest.approx([0.5, 0.5])


# ---------------------------------------------------------------------------
# omega family schedules
# ---------------------------------------------------------------------------


def test_square_omega_schedule_diverges_sup():
    rows = omega_schedule_ratios(square(), math.inf,
                                 anchor=vertical_omega_anchor(square()))
    ratios = [r["ratio"] for r in rows]
    # the wall gradient is 1/omega and the transverse slope stays 2, so
    # the ratio is exactly 1/(2 omega)
    for row in rows:
        assert row["ratio"] == pytest.approx(0.5 / row["omega"], rel=1e-12)
        assert row["norm_h1"] == pytest.approx(1.0 / row["omega"], rel=1e-12)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 10.0


def test_square_omega_schedule_diverges_p2():
    rows = omega_schedule_ratios(square(), 2.0,
                                 anchor=vertical_omega_anchor(square()))
    ratios = [r["ratio"] for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 10.0


def test_angular_domains_saturate_at_max_slope():
    rows = omega_schedule_ratios(diamond(), math.inf)
    for row in rows:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-12)
    rows = omega_schedule_ratios(triangle(0, 0, 2, 0, 1, 1), math.inf)
    assert 0.95 <= rows[-1]["ratio"] <= 1.0 + 1e-12


def test_omega_schedule_skips_invalid_entries():
    rows = omega_schedule_ratios(square(), math.inf, omegas=(0.25, 2.0),
                                 anchor=(0.0, 0.5))
    assert rows[0]["ratio"] == pytest.approx(2.0, rel=1e-12)
    assert rows[1]["ratio"] is None and "error" in rows[1]
    with pytest.raises(ValueError):
        omega_schedule_ratios(square(), math.inf, omegas=(5.0,),
                              anchor=(0.0, 0.5))


# ---------------------------------------------------------------------------
# cap-sampling family schedule
# ---------------------------------------------------------------------------


def test_disc_phi_eps_schedule_increases():
    rows = phi_eps_schedule_ratios(disc(512), 2.0)
    ratios = [r["ratio"] for r in rows]
    assert all(r is not None for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r["n_sample"] > 0 for r in rows)


def test_phi_eps_rejects_angular_domain():
    with pytest.raises(ValueError):
        phi_eps_schedule_ratios(diamond(), 2.0, phi=0.4)


# ---------------------------------------------------------------------------
# pair products and sweeps
# ---------------------------------------------------------------------------


def test_diamond_pair_product_is_one():
    pair = estimate_kp_pair(diamond(), math.inf, budget=120, seed=42)
    assert pair.product == pytest.approx(1.0, abs=1e-9)
    assert pair.K_est.best_ratio == pytest.approx(1.0, abs=1e-9)
    assert pair.k_est == pytest.approx(1.0, abs=1e-9)


def test_sweep_triangle_peaks_at_width_extreme_pair():
    tri = triangle(0, 0, 2, 0, 1, 1)
    results = directional_sweep(tri, 1, n_angles=4, budget=40, seed=42)
    best = max(results, key=lambda r: r.best_ratio)
    assert best.best_ratio == pytest.approx(4.0, abs=1e-9)
    assert math.degrees(best.h1.angle()) == pytest.approx(90.0, abs=1e-9)
    for r in results:
        assert r.best_ratio <= r.upper_bound + 1e-9
    with pytest.raises(ValueError):
        directional_sweep(tri, 1, n_angles=1)
