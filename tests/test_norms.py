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

from normratio.concave import (
    ConcaveFunction,
    build_function,
    chord_maxima,
    concave_envelope,
    family_u_phi_eps,
    linear_extremal_triangle,
    plane_values,
    tent_function,
)
from normratio.facets import FacetTable
from normratio.geometry import (
    ConvexDomain,
    Direction,
    E1,
    E2,
    chord,
    cross2,
    diamond,
    disc,
    dot2,
    square,
    triangle,
)
from normratio.norms import (
    _jump_mass,
    line_integral_abs_dh,
    line_masses,
    lp_directional_norm,
    norm_ratio,
    scanline_l1_norm,
    sup_directional_norm,
)
from normratio.sampling import keyed_rng, random_envelope_descriptor
from normratio.verify import CASE_BLOCK, Block, _case

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
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(6201, k), dom))
        for h in (E1, E2):
            exact = lp_directional_norm(u, h, 1)
            scan = scanline_l1_norm(u, h)
            assert scan.value == pytest.approx(exact.value, rel=1e-9), \
                f"case {k}"
            # the report's split reuses the sheet mass, so it must agree
            assert scan.jump_part == pytest.approx(exact.jump_part,
                                                   abs=1e-12)


def _sheet_mass_loop(u, h, line=None):
    # min-of-planes integrated along each edge, one edge at a time, by the
    # trapezoid rule over the edge's ends and its crossing with the tent
    # line, between which it is linear; never reads u.trace
    total = 0.0
    for a, b, n in zip(*u.domain.edges(), u.domain.edge_normals()):
        knots = [0.0, 1.0]
        if line is not None:
            p, q = np.asarray(line)
            da = float(cross2(q - p, a - p))
            db = float(cross2(q - p, b - p))
            if da * db < 0.0:
                knots.insert(1, da / (da - db))
        pts = a + np.array(knots)[:, None] * (b - a)
        vals = plane_values(u, pts).min(axis=1)
        total += (abs(float(n @ h.as_array())) * float(np.hypot(*(b - a)))
                  * float(np.trapezoid(vals, knots)))
    return total


def test_jump_mass_matches_segment_loop():
    dom = disc(512)
    sq = square()
    tents = [tent_function(dom, [dom.vertices[3], dom.vertices[290]]),
             tent_function(sq, [(0.0, 0.3), (1.0, 0.9)]),
             tent_function(sq, [(0.5, 0.0), (0.5, 1.0)]),
             # the line passes tol/2 above the corner (0, 0), so the trace
             # bends on the left edge inside the tol band; the lower side's
             # slope of 500 puts the corner 250 tol below the height
             tent_function(sq, [(0.0, 0.5 * sq.tol), (1.0, 0.002)])]
    for ang in (0.3, 1.1, 2.5):
        c, s = math.cos(ang), math.sin(ang)
        rot = ConvexDomain(sq.vertices @ np.array([[c, s], [-s, c]])
                           + (2.0 + c, -7.0))
        v = rot.vertices
        tents += [tent_function(rot, [v[0], 0.5 * (v[1] + v[2])]),
                  tent_function(rot, [v[3], 0.5 * (v[1] + v[2])]),
                  tent_function(rot, [v[1], v[2]])]
    tri = linear_extremal_triangle(triangle(0, 0, 2, 0, 1, 1))
    for h in (E1, E2, Direction.from_angle(0.3)):
        for u in tents:
            loop = _sheet_mass_loop(u, h, u.descriptor["segment"])
            assert _jump_mass(u, h) == pytest.approx(loop, rel=1e-13, abs=0)
        assert _jump_mass(tri, h) == pytest.approx(_sheet_mass_loop(tri, h),
                                                   rel=1e-13, abs=0)


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


def test_line_integral_counts_a_mesh_edge_on_the_line_once():
    # the diagonal of the square pyramid and the x-axis of the disc cone
    # run along mesh edges, each bounding two facets
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    assert line_integral_abs_dh(u, Direction.of(1, 1), 0.0) == \
        pytest.approx(2.0, abs=1e-12)
    cone = concave_envelope(disc(64), [((0.0, 0.0), 1.0)])
    assert line_integral_abs_dh(cone, E1, 0.0) == pytest.approx(2.0, abs=1e-12)
    # along a support line the chord is a boundary edge, each half of which
    # bounds one facet only
    tent = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)])
    for t in (0.0, 1.0):
        assert line_integral_abs_dh(tent, E1, t) == pytest.approx(2.0, abs=1e-12)
    assert line_integral_abs_dh(tent, E1, -0.5) == 0.0


def test_line_integral_along_slanted_boundary_edges():
    # the two ends of a rotated edge project to offsets a rounding apart;
    # the line through both still runs along the edge's facet
    for ang in np.linspace(0.1, 3.0, 12):
        c, s = math.cos(ang), math.sin(ang)
        dom = ConvexDomain(square().vertices @ np.array([[c, s], [-s, c]]))
        v = dom.vertices
        for u in (tent_function(dom, [v[0], 0.5 * (v[1] + v[2])]),
                  concave_envelope(dom, [(v.mean(axis=0), 1.0)])):
            for a, b in zip(v, np.roll(v, -1, axis=0)):
                h = Direction.of(*(b - a))
                top = chord_maxima(u, a[None, :], b[None, :])[0][0]
                assert line_integral_abs_dh(u, h, a @ h.perp().as_array()) == \
                    pytest.approx(2.0 * top, abs=1e-12), f"angle {ang}"


def test_line_integral_of_many_offsets_matches_scalar_calls():
    funcs = []
    for k, dom in enumerate(corpus_domains(6204, 20)):
        v = dom.vertices
        desc = random_envelope_descriptor(keyed_rng(6204, k), dom)
        funcs += [build_function(dom, desc),
                  tent_function(dom, [v[0], 0.5 * (v[-2] + v[-1])])]
    funcs.append(family_u_phi_eps(square(), math.pi / 6, 0.05)[0])
    rng = keyed_rng(6204, 1000)
    for i, u in enumerate(funcs):
        for h in (E1, E2, Direction.from_angle(0.7)):
            proj = u.domain.vertices @ h.perp().as_array()
            lo, hi = proj.min(), proj.max()
            # interior offsets, both support values, one within tol of a
            # support value (it clamps), and one off each side
            ts = np.concatenate([lo + (hi - lo) * rng.uniform(0.0, 1.0, 5),
                                 [lo, hi, hi + 0.5 * u.domain.tol,
                                  lo - 1.0, hi + 1.0]])
            batch = line_integral_abs_dh(u, h, ts)
            assert batch.shape == ts.shape
            for t, value in zip(ts, batch):
                one = line_integral_abs_dh(u, h, float(t))
                assert isinstance(one, float)
                assert value == one, f"function {i}"
            assert batch[-3] == batch[-4]
            assert batch[-2] == 0.0 and batch[-1] == 0.0
    # the pyramid's diagonal runs along a mesh edge, counted once per line
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    diag = line_integral_abs_dh(u, Direction.of(1, 1), np.array([0.0, 0.0]))
    assert diag == pytest.approx([2.0, 2.0], abs=1e-12)


def _triangle_line_overlap(tri, a, d):
    """Parameter interval of {a + s d, s in [0, 1]} inside a triangle."""
    lo, hi = 0.0, 1.0
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        e = q - p
        # inside is to the left of each CCW edge: cross(e, x - p) >= 0
        denom = e[0] * d[1] - e[1] * d[0]
        num = e[0] * (a[1] - p[1]) - e[1] * (a[0] - p[0])
        if abs(denom) < 1e-15 * (1.0 + abs(num)):
            if num < 0:
                return 0.0, 0.0
            continue
        s = -num / denom
        if denom < 0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        if lo >= hi:
            return 0.0, 0.0
    return lo, hi


def _line_integral_loop(u, h, t):
    """Reference line integral: the chord from geometry.chord, each facet
    clipped against it one at a time, and min-of-planes at its ends.  A
    mesh edge on the line is counted by both of its facets, so only lines
    off the mesh edges can be compared."""
    ch = chord(u.domain, h.perp().as_array(), t)
    if ch is None:
        return 0.0
    d = ch.b - ch.a
    L = float(np.hypot(*d))
    if L <= u.domain.tol:
        return 0.0
    total = 0.0
    for f in range(u.n_facets):
        lo, hi = _triangle_line_overlap(u.verts[u.tris[f]], ch.a, d)
        if hi > lo:
            total += abs(float(u.planes[f, :2] @ h.as_array())) * (hi - lo) * L
    ends = plane_values(u, np.array([ch.a, ch.b])).min(axis=1)
    return total + float(ends.sum())


def test_line_integral_matches_facet_clipping_loop():
    funcs = []
    for k, dom in enumerate(corpus_domains(6203, 30)):
        v = dom.vertices
        desc = random_envelope_descriptor(keyed_rng(6203, k), dom)
        funcs += [build_function(dom, desc),
                  tent_function(dom, [v[0], 0.5 * (v[-2] + v[-1])])]
    funcs.append(family_u_phi_eps(square(), math.pi / 6, 0.05)[0])
    rng = keyed_rng(6203, 1000)
    for i, u in enumerate(funcs):
        for h in (E1, E2, Direction.from_angle(0.7)):
            proj = u.domain.vertices @ h.perp().as_array()
            for frac in rng.uniform(0.05, 0.95, size=3):
                t = proj.min() + (proj.max() - proj.min()) * frac
                ref = _line_integral_loop(u, h, t)
                assert line_integral_abs_dh(u, h, t) == pytest.approx(
                    ref, rel=0, abs=1e-12 * (1.0 + abs(ref))), f"function {i}"


def _one_pass_line_integral(u, h, ts):
    """The line integral of u along each offset in ts as one array pass
    over all its facets: the whole (lines, facets, 6) table at once, each
    line's facet terms added in facet order."""
    n, harr = h.perp().as_array(), h.as_array()
    dom = u.domain
    proj = dot2(dom.vertices, n)
    lo, hi = float(proj.min()), float(proj.max())
    meets = (ts >= lo - dom.tol) & (ts <= hi + dom.tol)
    dist = dot2(u.verts, n) - np.clip(ts, lo, hi)[:, None]
    dist[np.abs(dist) <= dom.tol] = 0.0
    s = dist[:, u.tris]
    nxt = [1, 2, 0]
    cross = s * s[..., nxt] < 0.0
    lam = s / np.where(cross, s - s[..., nxt], 1.0)
    qz = np.column_stack([dot2(u.verts, harr), u.vert_values])[u.tris]
    qz = np.concatenate([np.broadcast_to(qz, lam.shape + (2,)),
                         qz + lam[..., None] * (qz[:, nxt] - qz)], axis=2)
    on = s == 0.0
    hit = np.concatenate([on, cross], axis=2)
    q_lo = np.where(hit, qz[..., 0], np.inf)
    q_hi = np.where(hit, qz[..., 0], -np.inf)
    length = np.maximum(q_hi.max(axis=2) - q_lo.min(axis=2), 0.0)
    pair = on.sum(axis=2) == 2
    for i in np.flatnonzero(pair.any(axis=1)).tolist():
        edge_facets = np.flatnonzero(pair[i])
        ends = np.sort(np.where(on[i, edge_facets], u.tris[edge_facets], -1),
                       axis=1)[:, 1:]
        _, first = np.unique(ends[:, 0] * len(u.verts) + ends[:, 1],
                             return_index=True)
        length[i, np.delete(edge_facets, first)] = 0.0
    slopes = np.abs(dot2(u.planes[:, :2], harr))
    ac = np.zeros(len(ts))
    for f in range(u.n_facets):
        ac += length[:, f] * slopes[f]
    z = qz[..., 1].reshape(len(ts), -1)
    rows = np.arange(len(ts))
    out = (ac + z[rows, q_lo.reshape(len(ts), -1).argmin(axis=1)]
           + z[rows, q_hi.reshape(len(ts), -1).argmax(axis=1)])
    out[~meets] = 0.0
    return out


def test_line_masses_match_per_function_calls():
    # one batch: a verify block's 80 envelopes, then a tent on each of its
    # domains; per function and direction, random offsets, every vertex's
    # offset (lines through mesh vertices, along mesh edges for the
    # diagonal of the pyramid), both support offsets, one within tol of a
    # support offset and one off each side
    block = Block(_case(42, k) for k in range(CASE_BLOCK))
    funcs = [u for case in block for u in case.envelopes]
    for case in block:
        v = case.domain.vertices
        funcs.append(tent_function(case.domain, [v[0], 0.5 * (v[-2] + v[-1])]))
    funcs.append(concave_envelope(square(), [((0.5, 0.5), 1.0)]))
    vstart = np.cumsum([0] + [len(u.verts) for u in funcs])
    fstart = np.cumsum([0] + [u.n_facets for u in funcs])[:-1]
    mesh = (np.concatenate([u.verts for u in funcs]),
            np.concatenate([u.vert_values for u in funcs]),
            np.concatenate([u.tris + lo for u, lo in zip(funcs, vstart)]),
            np.concatenate([u.planes for u in funcs]), fstart)
    rng = keyed_rng(6205, 0)
    groups = []                    # (function, h, offsets, support ends)
    for k, u in enumerate(funcs):
        dom = u.domain
        for h in (E1, E2, Direction.from_angle(float(rng.uniform(0, math.pi))),
                  Direction.of(1, 1)):
            proj = dot2(dom.vertices, h.perp().as_array())
            lo, hi = proj.min(), proj.max()
            ts = np.concatenate([lo + (hi - lo) * rng.uniform(0, 1, 3),
                                 dot2(u.verts, h.perp().as_array()),
                                 [lo, hi, hi + 0.5 * dom.tol, lo - 1.0,
                                  hi + 1.0]])
            groups.append((k, h, ts, lo, hi))
    sizes = [len(ts) for _, _, ts, _, _ in groups]
    fn, hs, ts, lo, hi = zip(*groups)
    got = line_masses(*mesh, np.repeat(fn, sizes),
                      np.repeat([h.as_array() for h in hs], sizes, axis=0),
                      np.concatenate(ts), np.repeat(lo, sizes),
                      np.repeat(hi, sizes),
                      np.repeat([funcs[k].domain.tol for k in fn], sizes))
    at = 0
    for k, h, offs, _, _ in groups:
        u, mine = funcs[k], got[at:at + len(offs)]
        at += len(offs)
        np.testing.assert_array_equal(mine, line_integral_abs_dh(u, h, offs))
        np.testing.assert_array_equal(mine,
                                      _one_pass_line_integral(u, h, offs))
        assert mine[-1] == 0.0 and mine[-2] == 0.0
        assert mine[-3] == mine[-4]
        if k % 8 == 0:
            for t, value in zip(offs[:4].tolist(), mine[:4].tolist()):
                assert line_integral_abs_dh(u, h, t) == value
    assert at == len(got)


def test_line_masses_take_the_first_of_equal_chord_ends():
    # two facets end at (1, 0) on the line y = 0, with the values 5 and 7
    # there; the first facet in facet order gives the chord's end
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [1.0, 0.0], [0.0, -1.0], [1.0, -1.0]])
    values = np.array([0.0, 5.0, 0.0, 7.0, 0.0, 0.0])
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    planes = np.zeros((2, 3))
    for order, end in (([0, 1], 5.0), ([1, 0], 7.0)):
        got = line_masses(verts, values, tris[order], planes, [0], [0],
                          E1.as_array(), np.array([0.0]), -1.0, 1.0, 1e-12)
        assert got.tolist() == [end]


def test_sup_norm_reports_boundary_facet():
    for k, dom in enumerate(corpus_domains(6202, 10)):
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(6202, k), dom))
        for h in (E1, E2):
            rep = sup_directional_norm(u, h)
            assert rep.attained_on_boundary, f"case {k}"
            g = u.planes[:, :2][rep.argmax_facet]
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
    with pytest.raises(ValueError, match="at least 1"):
        lp_directional_norm(u, E1, math.nan)


def test_norm_beyond_float_range_raises_naming_p():
    # |d_x u| is 200 on half the square, and 200^150 overflows; 0.02^300
    # underflows below the smallest normal float
    steep = concave_envelope(square(), [((0.5, 0.5), 100.0)])
    flat = concave_envelope(square(), [((0.5, 0.5), 0.01)])
    for u, p in ((steep, 150.0), (flat, 300.0)):
        with pytest.raises(ValueError, match=f"_{p} is out of"):
            lp_directional_norm(u, E1, p)
    # in range the sum stays exact: 2 (1/2)^(1/p) on the unit pyramid
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    assert lp_directional_norm(u, E1, 150.0).value == pytest.approx(
        2.0 * 0.5 ** (1.0 / 150.0), rel=1e-14)


def test_table_norm_beyond_float_range_raises_as_the_function_norm():
    # a table slope past 1e308^(1/p) (200 > 114 at p = 150) overflows its
    # power sum, and one of 0.02 at p = 300 underflows: the table's norms
    # raise as lp_directional_norm does, beside an envelope in range too
    axes = np.array([[E1.as_array()], [E2.as_array()]])
    steep = concave_envelope(square(), [((0.5, 0.5), 100.0)])
    flat = concave_envelope(square(), [((0.5, 0.5), 0.01)])
    calm = concave_envelope(square(), [((0.3, 0.6), 1.0)])
    for u, p in ((steep, 150.0), (flat, 300.0)):
        with pytest.raises(ValueError, match=f"_{p} is out of"):
            FacetTable([calm, u], [2]).norms(axes, p)
    # a zero slope has no norm to lose: 0, as lp_directional_norm gives
    sheet = _affine_sheet(0.0, -1.0, 1.0)
    got = FacetTable([sheet], [1]).norms(axes, 150.0)
    assert got.tolist() == [[lp_directional_norm(sheet, h, 150.0).value
                             for h in (E1, E2)]] == [[0.0, 1.0]]


def test_table_norms_check_p_as_the_function_norm():
    # the first seed-42 envelope: p below 1 and NaN raise lp's message, and
    # p = inf gives the sups
    u = _case(42, 0).envelopes[0]
    table = FacetTable([u], [1])
    axes = np.array([[E1.as_array()], [E2.as_array()]])
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="p must be at least 1"):
            lp_directional_norm(u, E1, p)
        with pytest.raises(ValueError, match="p must be at least 1"):
            table.norms(axes, p)
    assert table.norms(axes, math.inf).tolist() == [
        [sup_directional_norm(u, h).value for h in (E1, E2)]]


def test_reports_carry_method_and_serialize():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    facet = lp_directional_norm(u, E1, 1)
    assert facet.method == "facet-sum"
    assert scanline_l1_norm(u, E1).method == "scan-line"
    sup = sup_directional_norm(u, E1)
    assert sup.method == "facet-max"
    assert sup.argmax_facet >= 0
    assert sup.attained_on_boundary is True


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
        trace=(), descriptor={"kind": "affine-sheet"},
    )


def test_norm_ratio_degenerate_branches():
    flat = _affine_sheet(0.0, -1.0, 1.0)
    assert norm_ratio(flat, E2, E1, 1) == math.inf
    assert norm_ratio(flat, E1, E2, 1) == 0.0
    with pytest.raises(ValueError, match="vanish"):
        norm_ratio(_affine_sheet(0.0, 0.0, 0.0), E1, E2, 1)
