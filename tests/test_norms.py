"""Tests for exact directional derivative norms.

Hand-computed values on the model functions first, then cross-checks of
the two independent L1 computations (facet sums vs scan lines) on a random
corpus.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normratio import (
    E1,
    E2,
    Direction,
    concave_envelope,
    diamond,
    disc,
    line_integral_abs_dh,
    linear_extremal_triangle,
    lp_directional_norm,
    norm_ratio,
    scanline_l1_norm,
    sup_directional_norm,
    tent_function,
    triangle,
    square,
)
from normratio.concave import CLASSICAL, ConcaveFunction
from normratio.norms import _jump_mass
from normratio.sampling import keyed_rng, random_envelope

from conftest import corpus_domains


# ---------------------------------------------------------------------------
# model functions with known norms
# ---------------------------------------------------------------------------


def test_square_pyramid_norms():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    r1 = lp_directional_norm(u, E1, 1)
    assert r1.value == pytest.approx(1.0, abs=1e-14)
    assert r1.jump_part == 0.0 and r1.ac_part == r1.value
    r2 = lp_directional_norm(u, E1, 2)
    assert r2.value == pytest.approx(math.sqrt(2.0), abs=1e-14)
    ri = lp_directional_norm(u, E1, math.inf)
    assert ri.value == pytest.approx(2.0, abs=1e-14)
    assert ri.attained_on_boundary
    # symmetry in the two axes
    assert lp_directional_norm(u, E2, 1).value == pytest.approx(1.0, abs=1e-14)


def test_diamond_cone_mass_is_width_times_height():
    u = concave_envelope(diamond(), [((0.0, 0.0), 1.0)])
    assert lp_directional_norm(u, E1, 1).value == pytest.approx(2.0, abs=1e-15)
    assert lp_directional_norm(u, E2, 1).value == pytest.approx(2.0, abs=1e-15)


def test_square_ridge_tent_norms():
    u = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)])
    rx = lp_directional_norm(u, E1, 1)
    assert rx.value == pytest.approx(2.0, abs=1e-14)
    assert rx.jump_part == pytest.approx(0.0, abs=1e-14)
    ry = lp_directional_norm(u, E2, 1)
    assert ry.value == pytest.approx(1.0, abs=1e-14)
    # u_y vanishes a.e.: the whole norm is boundary jump
    assert ry.ac_part == pytest.approx(0.0, abs=1e-14)
    assert ry.jump_part == pytest.approx(1.0, abs=1e-14)
    assert norm_ratio(u, E1, E2, 1) == pytest.approx(2.0, abs=1e-13)
    # the sheet lives on the horizontal edges, so it has no component
    # along E1 and the p = 2 norm in x stays finite
    assert lp_directional_norm(u, E1, 2).value == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        lp_directional_norm(u, E2, 2)
    with pytest.raises(ValueError):
        sup_directional_norm(u, E2)


def test_linear_extremal_triangle_norms():
    u = linear_extremal_triangle(triangle(0, 0, 2, 0, 1, 1))
    ry = lp_directional_norm(u, E2, 1)
    # interior mass 1 (slope 1 on area 1), bottom edge sheet 2, slant
    # sheets 1/2 each
    assert ry.value == pytest.approx(4.0, abs=1e-13)
    assert ry.ac_part == pytest.approx(1.0, abs=1e-13)
    assert ry.jump_part == pytest.approx(3.0, abs=1e-13)
    rx = lp_directional_norm(u, E1, 1)
    assert rx.value == pytest.approx(1.0, abs=1e-13)
    assert norm_ratio(u, E2, E1, 1) == pytest.approx(4.0, abs=1e-12)


def test_disc_tent_scanline_values():
    u = tent_function(disc(512), [(0.0, -1.0), (0.0, 1.0)])
    assert scanline_l1_norm(u, E1).value == pytest.approx(4.0, abs=1e-9)
    assert scanline_l1_norm(u, E2).value == pytest.approx(2.0, abs=1e-9)
    rx = lp_directional_norm(u, E1, 1)
    # facet split: |u_x| = 1 a.e. gives the polygon area, and the boundary
    # sheet supplies the rest of the scan-line total
    assert rx.ac_part == pytest.approx(u.domain.area, abs=1e-12)
    assert rx.value == pytest.approx(4.0, abs=1e-9)
    ry = lp_directional_norm(u, E2, 1)
    assert ry.ac_part == 0.0
    assert ry.jump_part == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# cross-checks between independent computations
# ---------------------------------------------------------------------------


def test_scanline_matches_facet_sum_on_corpus():
    for k, dom in enumerate(corpus_domains(6201, 40)):
        u = random_envelope(keyed_rng(6201, k), dom)
        for h in (E1, E2):
            exact = lp_directional_norm(u, h, 1)
            scan = scanline_l1_norm(u, h)
            assert scan.value == pytest.approx(exact.value, rel=1e-9), \
                f"case {k}"
            # the report's split reuses the sheet mass, so it must agree
            assert scan.jump_part == pytest.approx(exact.jump_part,
                                                   abs=1e-12)


def test_jump_mass_matches_segment_loop():
    # reference: the boundary sheet summed one trace segment at a time
    dom = disc(512)
    tents = [tent_function(dom, [dom.vertices[3], dom.vertices[290]]),
             tent_function(square(), [(0.0, 0.3), (1.0, 0.9)]),
             linear_extremal_triangle(triangle(0, 0, 2, 0, 1, 1))]
    for h in (E1, E2, Direction.from_angle(0.3)):
        for u in tents:
            normals = u.domain.edge_normals()
            loop = sum(abs(float(normals[s.edge_index] @ h.as_array()))
                       * s.length * 0.5 * (s.va + s.vb) for s in u.trace)
            assert _jump_mass(u, h) == pytest.approx(loop, rel=1e-13, abs=0)


def test_line_integral_equals_twice_chord_max():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    assert line_integral_abs_dh(u, E1, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert line_integral_abs_dh(u, E1, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert line_integral_abs_dh(u, E1, -0.5) == 0.0  # off the domain


def test_line_integral_includes_boundary_jumps():
    u = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)])
    # along a vertical line, u_y = 0 inside but the trace jumps at both
    # ends; offsets run along perp(E2) = (-1, 0), so x = 0.3 is t = -0.3
    v = 2.0 * min(2 * 0.3, 2 - 2 * 0.3)
    assert line_integral_abs_dh(u, E2, -0.3) == pytest.approx(v, abs=1e-12)


def test_sup_norm_reports_boundary_facet():
    for k, dom in enumerate(corpus_domains(6202, 10)):
        u = random_envelope(keyed_rng(6202, k), dom)
        for h in (E1, E2):
            rep = sup_directional_norm(u, h)
            assert rep.attained_on_boundary, f"case {k}"
            g = u.gradients()[rep.argmax_facet]
            assert abs(g @ h.as_array()) == pytest.approx(rep.value, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(c=st.floats(min_value=0.05, max_value=20.0))
def test_norms_scale_linearly_in_height(c):
    base = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)], height=1.0)
    tall = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)], height=c)
    for h, p in ((E1, 1), (E2, 1), (E1, 2), (E1, math.inf)):
        a = lp_directional_norm(base, h, p).value
        b = lp_directional_norm(tall, h, p).value
        assert b == pytest.approx(c * a, rel=1e-12)


def test_invalid_p_rejected():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    with pytest.raises(ValueError):
        lp_directional_norm(u, E1, 0.5)
    with pytest.raises(ValueError):
        scanline_l1_norm(u, E1, n_lines=8)


def test_reports_carry_method_and_serialize():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    facet = lp_directional_norm(u, E1, 1)
    assert facet.method == "facet-sum"
    assert scanline_l1_norm(u, E1).method == "scan-line"
    assert facet.to_dict() == {
        "p": 1.0, "h": [1.0, 0.0], "value": facet.value,
        "method": "facet-sum", "ac_part": facet.ac_part,
        "jump_part": facet.jump_part,
    }
    sup = sup_directional_norm(u, E1)
    d = sup.to_dict()
    assert sup.method == d["method"] == "facet-max"
    assert d["argmax_facet"] == sup.argmax_facet >= 0
    assert d["attained_on_boundary"] is True


def _affine_sheet(gx, gy, z0):
    # Single affine piece over the unit square with an empty trace record.
    # Deliberately skips the boundary-condition bookkeeping so the
    # degenerate branches of norm_ratio can be reached at all: any genuine
    # nonzero member of the class has positive derivative mass in every
    # direction.
    dom = square()
    v = dom.vertices
    planes = np.array([[gx, gy, z0], [gx, gy, z0]])
    return ConcaveFunction(
        domain=dom, verts=v.copy(), vert_values=v @ planes[0, :2] + z0,
        tris=np.array([[0, 1, 2], [0, 2, 3]]), planes=planes,
        mode=CLASSICAL, trace=(), descriptor={"kind": "affine-sheet"},
    )


def test_norm_ratio_degenerate_branches():
    flat = _affine_sheet(0.0, -1.0, 1.0)
    assert norm_ratio(flat, E2, E1, 1) == math.inf
    assert norm_ratio(flat, E1, E2, 1) == 0.0
    with pytest.raises(ValueError, match="vanish"):
        norm_ratio(_affine_sheet(0.0, 0.0, 0.0), E1, E2, 1)
