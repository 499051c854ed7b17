"""Tests for piecewise-linear concave functions: construction, evaluation,
chord maxima and the parametric families."""

import math

import numpy as np
import pytest

from normratio import (
    ConvexDomain,
    Direction,
    E1,
    E2,
    build_function,
    chord_maxima,
    concave_envelope,
    diamond,
    disc,
    evaluate,
    family_u_omega,
    family_u_phi_eps,
    gradient_at,
    linear_extremal_triangle,
    max_profile,
    square,
    tent_function,
    transform_function,
    triangle,
)
from normratio.bounds import affine_normalize
from normratio.concave import (
    check_concavity,
    check_partition,
    check_vertex_consistency,
)
from normratio.norms import lp_directional_norm
from normratio.sampling import (
    keyed_rng,
    random_envelope,
    random_envelope_descriptor,
    random_interior_points,
)

from conftest import corpus_domains


# ---------------------------------------------------------------------------
# structure of simple envelopes
# ---------------------------------------------------------------------------


def test_square_pyramid_structure():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    assert u.mode == "classical"
    assert u.max_value == pytest.approx(1.0, abs=1e-14)
    assert u.n_facets == 4
    grads = sorted(map(tuple, np.round(u.gradients(), 9)))
    assert grads == [(-2.0, 0.0), (0.0, -2.0), (0.0, 2.0), (2.0, 0.0)]
    # facet areas partition the square
    assert u.facet_areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert check_partition(u) and check_concavity(u) and check_vertex_consistency(u)


def test_coplanar_facets_are_merged():
    # two constraints at equal height create a flat ridge; the side walls on
    # either side of each apex must come out as single planes, not slivers
    u = concave_envelope(square(), [((1 / 3, 0.5), 1.0), ((2 / 3, 0.5), 1.0)])
    distinct = np.unique(np.round(u.gradients(), 9), axis=0)
    assert len(distinct) == 4
    assert u.n_facets == 6
    assert evaluate(u, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_dominated_constraint_changes_nothing():
    dom = square()
    base = concave_envelope(dom, [((0.5, 0.5), 1.0)])
    # a low peak under the cone is inactive
    both = concave_envelope(dom, [((0.5, 0.5), 1.0), ((0.55, 0.5), 0.2)])
    pts = random_interior_points(keyed_rng(7101), dom, 200)
    assert evaluate(both, pts) == pytest.approx(evaluate(base, pts), abs=1e-12)


def _facet_planes(u):
    """Facet planes keyed by the sorted vertex triple of the facet."""
    return {tuple(sorted(map(int, t))): plane for t, plane in zip(u.tris, u.planes)}


def test_cone_matches_qhull_oracle():
    # A second constraint at half the cone's height, between the apex and
    # the centroid, is inactive but sends the same function through qhull
    # and the coplanar merge instead of the closed-form cone.
    domains = corpus_domains(7110, 150) + [disc(128), disc(512)]
    dirs = (E1, E2, Direction.from_angle(0.7))
    for k, dom in enumerate(domains):
        centroid = dom.vertices.mean(axis=0)
        for apex in random_interior_points(keyed_rng(7110, k), dom, 5):
            cone = concave_envelope(dom, [(apex, 1.0)])
            below = 0.5 * (apex + centroid)
            hull = concave_envelope(
                dom, [(apex, 1.0), (below, 0.5 * evaluate(cone, below))])
            assert np.array_equal(cone.verts, hull.verts), f"case {k}"
            assert np.array_equal(cone.vert_values, hull.vert_values), f"case {k}"
            a, b = _facet_planes(cone), _facet_planes(hull)
            assert a.keys() == b.keys(), f"case {k}"
            for key, plane in a.items():
                scale = np.abs(b[key]).max()
                assert np.abs(plane - b[key]).max() <= 1e-11 * scale, f"case {k}"
            for h in dirs:
                for p in (1, 2, 3.5, math.inf):
                    assert lp_directional_norm(cone, h, p).value == pytest.approx(
                        lp_directional_norm(hull, h, p).value, rel=1e-11, abs=0)


@pytest.mark.parametrize("dom", [disc(64), square()], ids=["disc64", "square"])
def test_plateau_is_one_fan_from_its_lowest_vertex(dom):
    u, _ = family_u_phi_eps(dom, math.pi / 6, 0.05)
    flat = np.abs(u.planes - [0.0, 0.0, 1.0]).max(axis=1) <= 1e-9
    plateau = u.tris[flat]
    vids = np.unique(plateau)
    assert len(vids) > 3
    assert len(plateau) == len(vids) - 2
    assert np.all(plateau[:, 0] == vids[0])
    assert check_partition(u) and check_concavity(u)


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_translated_envelopes_build(offset):
    # areas are taken relative to a vertex, so the cover check does not
    # cancel away from the origin
    shift = np.array([offset, -0.7 * offset])
    for k, dom in enumerate(corpus_domains(7111, 150)):
        rng = keyed_rng(7111, k)
        single = [[*random_interior_points(rng, dom, 1)[0], 1.0]]
        multi = random_envelope_descriptor(rng, dom)["constraints"]
        moved = ConvexDomain(dom.vertices + shift)
        for cons in (single, multi):
            u = concave_envelope(moved, [(np.array([x, y]) + shift, h)
                                         for x, y, h in cons])
            assert check_partition(u) and check_concavity(u), f"case {k}"


def test_envelope_peak_equals_top_constraint():
    for k, dom in enumerate(corpus_domains(7102, 20)):
        rng = keyed_rng(7102, k)
        u = random_envelope(rng, dom)
        tops = [h for (_, h) in
                [((x, y), h) for x, y, h in u.descriptor["constraints"]]]
        assert u.max_value <= max(tops) + 1e-12, f"case {k}"


def test_envelope_midpoint_concavity():
    rng = keyed_rng(7103)
    for k, dom in enumerate(corpus_domains(7103, 15)):
        u = random_envelope(keyed_rng(7103, k), dom)
        a = random_interior_points(keyed_rng(7103, k, 1), dom, 60)
        b = random_interior_points(keyed_rng(7103, k, 2), dom, 60)
        mid = 0.5 * (a + b)
        lhs = evaluate(u, mid)
        rhs = 0.5 * (evaluate(u, a) + evaluate(u, b))
        assert np.all(lhs >= rhs - 1e-10), f"case {k}"


# ---------------------------------------------------------------------------
# evaluation and gradients
# ---------------------------------------------------------------------------


def test_evaluate_rejects_outside_points():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    with pytest.raises(ValueError):
        evaluate(u, (1.5, 0.5))
    with pytest.raises(ValueError):
        evaluate(u, np.array([[0.5, 0.5], [0.5, -0.2]]))


def test_gradient_at_regular_and_ridge_points():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    g = gradient_at(u, (0.8, 0.5))
    assert g == pytest.approx([-2.0, 0.0], abs=1e-12)
    g = gradient_at(u, (0.5, 0.1))
    assert g == pytest.approx([0.0, 2.0], abs=1e-12)
    with pytest.raises(ValueError):
        gradient_at(u, (0.7, 0.7))  # diagonal ridge
    with pytest.raises(ValueError):
        gradient_at(u, (2.0, 0.5))  # outside


# ---------------------------------------------------------------------------
# chord maxima
# ---------------------------------------------------------------------------


def test_chord_maxima_against_dense_sampling():
    for k, dom in enumerate(corpus_domains(7104, 12)):
        u = random_envelope(keyed_rng(7104, k), dom)
        ends = random_interior_points(keyed_rng(7104, k, 1), dom, 20)
        P0, P1 = ends[:10], ends[10:]
        m, tstar = chord_maxima(u, P0, P1)
        assert np.all((tstar >= -1e-12) & (tstar <= 1 + 1e-12))
        lip = np.abs(u.gradients()).max()
        ts = np.linspace(0.0, 1.0, 2001)
        for i in range(10):
            pts = P0[i] + ts[:, None] * (P1[i] - P0[i])
            dense = evaluate(u, pts).max()
            seg = np.hypot(*(P1[i] - P0[i]))
            # exact max dominates any sample, and the sampling gap is
            # bounded by the Lipschitz constant times the step
            assert m[i] >= dense - 1e-10, f"case {k}.{i}"
            assert m[i] <= dense + lip * seg / 2000 + 1e-10, f"case {k}.{i}"
            # the reported argmax actually attains the value
            at = P0[i] + tstar[i] * (P1[i] - P0[i])
            assert evaluate(u, at) == pytest.approx(m[i], abs=1e-10)


def test_chord_maxima_flat_ridge():
    u = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)])
    m, _ = chord_maxima(u, np.array([[0.5, 0.0]]), np.array([[0.5, 1.0]]))
    assert m[0] == pytest.approx(1.0, abs=1e-14)
    m, t = chord_maxima(u, np.array([[0.0, 0.3]]), np.array([[1.0, 0.3]]))
    assert m[0] == pytest.approx(1.0, abs=1e-14)
    assert t[0] == pytest.approx(0.5, abs=1e-12)


def test_max_profile_of_diamond_cone():
    u = concave_envelope(diamond(), [((0.0, 0.0), 1.0)])
    prof = max_profile(u, E1, n_lines=33)
    mask = np.abs(prof.offsets) < 1.0 - 1e-9
    assert prof.values[mask] == pytest.approx(1.0 - np.abs(prof.offsets[mask]),
                                              abs=1e-9)
    assert prof.M == pytest.approx(1.0, abs=1e-14)
    assert evaluate(u, prof.z) == pytest.approx(prof.M, abs=1e-12)


# ---------------------------------------------------------------------------
# tents and the linear extremal
# ---------------------------------------------------------------------------


def test_tent_over_diamond_diameter():
    # ridge along the horizontal diameter: u = 1 - |y|, flat in x
    u = tent_function(diamond(), [(-1.0, 0.0), (1.0, 0.0)])
    assert u.mode == "distributional"
    distinct = np.unique(np.round(u.gradients(), 9), axis=0)
    assert sorted(map(tuple, distinct)) == [(0.0, -1.0), (0.0, 1.0)]
    assert evaluate(u, (0.75, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert evaluate(u, (0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)
    assert evaluate(u, (0.3, -0.4)) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        tent_function(diamond(), [(-0.5, 0.0), (0.5, 0.0)])  # interior ends


def test_tent_with_boundary_ridge_is_distributional():
    u = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)])
    assert u.mode == "distributional"
    distinct = np.unique(np.round(u.gradients(), 9), axis=0)
    assert sorted(map(tuple, distinct)) == [(-2.0, 0.0), (2.0, 0.0)]
    assert evaluate(u, (0.25, 0.77)) == pytest.approx(0.5, abs=1e-12)
    # nonzero boundary trace along top and bottom edges
    assert any(max(s.va, s.vb) > 0.5 for s in u.trace)


def test_one_sided_tent_degenerates_to_linear_function():
    # ridge along the whole bottom edge: the hull collapses to 1 - y
    tri = triangle(0, 0, 2, 0, 1, 1)
    u = tent_function(tri, [(0.0, 0.0), (2.0, 0.0)])
    assert u.mode == "distributional"
    pts = random_interior_points(keyed_rng(7105), tri, 120)
    assert evaluate(u, pts) == pytest.approx(1.0 - pts[:, 1], abs=1e-12)


def test_linear_extremal_triangle_matches_tent():
    tri = triangle(0, 0, 2, 0, 1, 1)
    u = linear_extremal_triangle(tri)
    assert u.mode == "distributional"
    pts = random_interior_points(keyed_rng(7106), tri, 80)
    assert evaluate(u, pts) == pytest.approx(1.0 - pts[:, 1], abs=1e-12)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


def test_u_omega_wall_gradient_scales_like_inverse_omega():
    dom = square()
    for omega in (0.4, 0.1, 0.02):
        u = family_u_omega(dom, (0.0, 0.5), omega)
        g = gradient_at(u, (omega / 2, 0.5))
        assert g == pytest.approx([1.0 / omega, 0.0], abs=1e-9 / omega)
        assert u.max_value == pytest.approx(1.0, abs=1e-12)


def test_u_omega_interior_anchor_displaces_vertically():
    # anchor on the bottom edge of the diamond's right half displaces up
    u = family_u_omega(diamond(), (0.5, -0.5), 0.25)
    assert evaluate(u, (0.5, -0.25)) == pytest.approx(1.0, abs=1e-12)


def test_u_omega_rejects_apex_outside():
    with pytest.raises(ValueError):
        family_u_omega(square(), (0.0, 0.5), 2.0)
    with pytest.raises(ValueError):
        family_u_omega(square(), (0.0, 0.5), -0.1)


def test_u_phi_eps_on_disc():
    dom = disc(128)
    u, pts = family_u_phi_eps(dom, 0.4, 0.02)
    assert len(pts) > 0
    # the sample keeps its distance from the boundary
    assert np.all(dom.signed_boundary_distance(pts) >= 0.02 - 1e-12)
    # and the envelope is pinned at height one on it
    assert evaluate(u, pts) == pytest.approx(np.ones(len(pts)), abs=1e-10)
    assert u.max_value == pytest.approx(1.0, abs=1e-12)


def test_u_phi_eps_rejects_angular_cap_and_bad_params():
    # the diamond's right support is a corner with normals at +-pi/4, so no
    # support arc qualifies for phi below that
    with pytest.raises(ValueError):
        family_u_phi_eps(diamond(), 0.4, 0.02)
    with pytest.raises(ValueError):
        family_u_phi_eps(disc(128), 2.0, 0.02)  # phi out of range
    with pytest.raises(ValueError):
        family_u_phi_eps(disc(128), 0.4, -1.0)


# ---------------------------------------------------------------------------
# descriptors and affine pushforward
# ---------------------------------------------------------------------------


def test_build_function_round_trips_every_kind():
    tri = triangle(0, 0, 2, 0, 1, 1)
    cases = [
        (square(), {"kind": "envelope",
                    "constraints": [[0.3, 0.4, 0.8], [0.6, 0.5, 1.0]]}),
        (diamond(), {"kind": "tent", "segment": [[-1.0, 0.0], [1.0, 0.0]],
                     "height": 1.0}),
        (tri, {"kind": "triangle-linear"}),
        (square(), {"kind": "u-omega", "anchor": [0.0, 0.5], "omega": 0.25}),
        (disc(64), {"kind": "u-phi-eps", "phi": 0.5, "eps": 0.05}),
    ]
    for dom, desc in cases:
        u = build_function(dom, desc)
        v = build_function(dom, u.descriptor)
        pts = random_interior_points(keyed_rng(7107), dom, 50)
        assert evaluate(u, pts) == pytest.approx(evaluate(v, pts), abs=1e-12)
    with pytest.raises(ValueError):
        build_function(square(), {"kind": "nope"})


def test_transform_preserves_values():
    for k, dom in enumerate(corpus_domains(7108, 10)):
        u = random_envelope(keyed_rng(7108, k), dom)
        image, lin, shift = affine_normalize(dom)
        tu = transform_function(u, lin, shift, image)
        pts = random_interior_points(keyed_rng(7108, k, 1), dom, 40)
        mapped = pts @ lin.T + shift
        assert evaluate(tu, mapped) == pytest.approx(evaluate(u, pts),
                                                     abs=1e-9), f"case {k}"
        assert check_partition(tu) and check_concavity(tu)


def test_checks_pass_on_random_envelopes():
    for k, dom in enumerate(corpus_domains(7109, 15)):
        u = random_envelope(keyed_rng(7109, k), dom)
        assert check_partition(u), f"case {k}"
        assert check_concavity(u), f"case {k}"
        assert check_vertex_consistency(u), f"case {k}"
