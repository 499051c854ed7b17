"""Tests for the lower-bound search: candidate enumeration, witnesses, the
divergent families and the direction sweep."""

import math
import tracemalloc

import numpy as np
import pytest

from normratio.concave import _support_arc_point, build_function
from normratio.geometry import (
    ConvexDomain,
    Direction,
    E1,
    E2,
    cross2,
    diamond,
    disc,
    parallelogram,
    square,
    triangle,
    vertical_support_classification,
)
from normratio.norms import norm_ratio
from normratio.search import (
    OMEGA_SCHEDULE,
    _aligned_vertex_pairs,
    default_omega_anchor,
    directional_sweep,
    estimate_kp_lower,
    estimate_kp_pair,
    omega_schedule_ratios,
    phi_eps_schedule_ratios,
    vertical_omega_anchor,
)

from conftest import NEAR_VERTICAL_SQUARES, corpus_domains, frame_domains


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


@pytest.mark.parametrize("p", [math.nan, 0.5])
def test_estimate_rejects_p_below_one(p):
    with pytest.raises(ValueError, match="at least 1"):
        estimate_kp_lower(square(), p, budget=5)


def test_estimates_never_exceed_bounds():
    for k, dom in enumerate(corpus_domains(4401, 12)):
        for p in (1, math.inf):
            est = estimate_kp_lower(dom, p, budget=40, seed=k)
            if math.isinf(est.upper_bound):
                continue
            assert est.best_ratio <= est.upper_bound + 1e-9, f"case {k} p={p}"
            assert est.gap == pytest.approx(
                est.upper_bound - est.best_ratio, abs=1e-12)


@pytest.mark.parametrize("p", [150.0, 300.0, 700.0, 1000.0])
def test_large_p_estimates_skip_candidates_beyond_float_range(p):
    # a steep candidate's |d_h u|^p overflows, and it is skipped: scored,
    # it would read inf, above any bound, or nan as inf / inf
    for dom in (disc(64), diamond()):
        est = estimate_kp_lower(dom, p, budget=20)
        assert 1 <= est.evaluations < 20
        assert est.best_ratio <= est.upper_bound, f"{dom!r}"
    if p in (150.0, 700.0):
        for est in directional_sweep(disc(64), p, budget=20):
            assert est.best_ratio <= est.upper_bound


def test_no_evaluable_candidate_is_an_input_error():
    # at p = 3000 every candidate's facet sum on the square leaves float range
    with pytest.raises(ValueError, match="no candidate"):
        estimate_kp_lower(square(), 3000.0, budget=20)


# ---------------------------------------------------------------------------
# aligned vertex pairs (the p = 1 tents)
# ---------------------------------------------------------------------------


def _reference_aligned_pairs(dom, h2, limit):
    """All-pairs table: every vertex pair at once, sorted by (sin, i, j)."""
    if limit <= 0:
        return []
    v = dom.vertices
    n = dom.n
    ii, jj = np.triu_indices(n, 1)
    seg = v[jj] - v[ii]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    ok = lengths > dom.tol
    sin = np.full(len(ii), np.inf)
    sin[ok] = np.abs(cross2(seg[ok], h2.as_array())) / lengths[ok]
    keep = sin <= 0.2
    order = np.lexsort((jj[keep], ii[keep], sin[keep]))
    ii, jj = ii[keep][order], jj[keep][order]
    return list(zip(ii[:limit].tolist(), jj[:limit].tolist()))


def _rotated(dom, angle):
    c, s = math.cos(angle), math.sin(angle)
    return ConvexDomain(dom.vertices @ np.array([[c, -s], [s, c]]).T)


def test_aligned_vertex_pairs_match_all_pairs():
    # the disc preset is disc(512)
    presets = [disc(512), square(), diamond(), triangle(0, 0, 2, 0, 1, 1),
               parallelogram(2, 1)]
    domains = (presets + [_rotated(dom, 0.7) for dom in presets]
               + [disc(n) for n in (3, 4, 7, 64, 128)]
               + corpus_domains(42, 100))
    directions = [E1, E2] + [Direction.from_angle(a)
                             for a in np.linspace(0.0, math.pi, 13)]
    for k, dom in enumerate(domains):
        for h in directions:
            # the reference truncates its full sorted list, so one call
            # with a limit above the pair count gives every shorter answer
            full = _reference_aligned_pairs(dom, h, dom.n ** 2)
            for limit in (0, 1, 2, 5, 99, dom.n ** 2):
                assert _aligned_vertex_pairs(dom, h, limit) == full[:limit], \
                    f"domain {k}, angle {h.angle()}, limit {limit}"


def test_aligned_vertex_pairs_memory_is_linear():
    # the all-pairs table allocates about 162 MB at this size
    dom = disc(2048)
    tracemalloc.start()
    try:
        pairs = _aligned_vertex_pairs(dom, E2, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 100
    assert peak <= 1_000_000


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


# Reference copies of the counterclockwise index arithmetic of each anchor,
# written without the extreme frame of vertical_support_classification.

def _extreme_x_indices_reference(dom):
    v = dom.vertices
    tol = dom.tol
    xmin, xmax = v[:, 0].min(), v[:, 0].max()
    left = np.nonzero(v[:, 0] <= xmin + tol)[0]
    right = np.nonzero(v[:, 0] >= xmax - tol)[0]
    iA = int(left[np.argmin(v[left, 1])])
    iB = int(right[np.argmin(v[right, 1])])
    return iA, iB, len(left), len(right)


def _default_omega_anchor_reference(dom):
    iA, iB, _, _ = _extreme_x_indices_reference(dom)
    slopes = np.abs(vertical_support_classification(dom).slopes)
    entries = [(iA, iA, slopes[0]), (iA, (iA - 1) % dom.n, slopes[1]),
               (iB, (iB - 1) % dom.n, slopes[2]), (iB, iB, slopes[3])]
    _, edge, _ = max(entries, key=lambda t: (t[2], -t[0], -t[1]))
    A, B = dom.edges()
    return 0.5 * (A[edge] + B[edge])


def _vertical_omega_anchor_reference(dom):
    iA, iB, n_left, n_right = _extreme_x_indices_reference(dom)
    if n_left == 2:
        edge = (iA - 1) % dom.n
    elif n_right == 2:
        edge = iB
    else:
        return None
    A, B = dom.edges()
    return 0.5 * (A[edge] + B[edge])


def _support_arc_point_reference(dom, phi):
    normals = dom.edge_normals()
    alphas = np.arctan2(normals[:, 1], normals[:, 0])
    iA, iB, _, n_right = _extreme_x_indices_reference(dom)
    nv = dom.n
    if n_right == 1:
        a_prev = alphas[(iB - 1) % nv]
        a_next = alphas[iB]
        if abs(a_prev) < phi and abs(a_next) < phi:
            return dom.vertices[iB].copy()
    qual = np.nonzero(np.abs(alphas) < phi)[0]
    if len(qual) == 0:
        return None
    k = int(qual[np.argmin(np.abs(alphas[qual]))])
    A, B = dom.edges()
    return 0.5 * (A[k] + B[k])


def test_anchors_match_the_index_arithmetic():
    walls = 0
    for dom in frame_domains():
        iA, iB, n_left, n_right = _extreme_x_indices_reference(dom)
        info = vertical_support_classification(dom)
        assert info.extremes == (iA, iB), f"{dom!r}"
        assert (info.left_angular, info.right_angular) == (n_left == 1,
                                                           n_right == 1)
        assert np.array_equal(default_omega_anchor(dom),
                              _default_omega_anchor_reference(dom))
        ref = _vertical_omega_anchor_reference(dom)
        if ref is None:
            with pytest.raises(ValueError, match="no vertical support edge"):
                vertical_omega_anchor(dom)
        else:
            walls += 1
            assert np.array_equal(vertical_omega_anchor(dom), ref)
        for phi in (0.05, math.pi / 6, 0.5 * math.pi - 0.05):
            ref = _support_arc_point_reference(dom, phi)
            got = _support_arc_point(dom, phi)
            assert (got is None and ref is None) or np.array_equal(got, ref)
    assert walls == 1 + len(NEAR_VERTICAL_SQUARES)


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
    # a wall 0.05 wide: the first omega of the schedule leaves the domain
    strip = ConvexDomain([(0, 0), (0.05, 0), (0.05, 1), (0, 1)])
    rows = omega_schedule_ratios(strip, math.inf, anchor=(0.0, 0.5))
    assert rows[0]["ratio"] is None and "error" in rows[0]
    assert len(rows) == len(OMEGA_SCHEDULE)
    for row in rows[1:]:
        # the cone rises 1 over omega or 0.05 - omega to the walls and
        # over 0.5 to the ends
        w = row["omega"]
        assert row["ratio"] == pytest.approx(
            max(1.0 / w, 1.0 / (0.05 - w)) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        omega_schedule_ratios(
            ConvexDomain([(0, 0), (0.0005, 0), (0.0005, 1), (0, 1)]),
            math.inf, anchor=(0.0, 0.5))


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
        phi_eps_schedule_ratios(diamond(), 2.0)


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
    results = directional_sweep(tri, 1, budget=40, seed=42)
    best = max(results, key=lambda r: r.best_ratio)
    assert best.best_ratio == pytest.approx(4.0, abs=1e-9)
    assert math.degrees(best.h1.angle()) == pytest.approx(90.0, abs=1e-9)
    for r in results:
        assert r.best_ratio <= r.upper_bound + 1e-9
