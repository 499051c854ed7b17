import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normratio
from normratio.geometry import (
    ConvexDomain,
    Direction,
    DomainError,
    E1,
    E2,
    WidthExtremes,
    _edge_slope,
    _edge_widths,
    chord,
    chords_batch,
    circumscribed_rectangle,
    cross2,
    diamond,
    disc,
    domain_from_json,
    domain_to_json,
    dot2,
    extreme_x_points,
    max_boundary_slope,
    parallelogram,
    square,
    triangle,
    vertical_support_classification,
    width,
    width_extremes,
)
from normratio.sampling import keyed_rng, random_convex_polygon

from conftest import NEAR_VERTICAL_SQUARES, corpus_domains, frame_domains


# ---------------------------------------------------------------------------
# construction and canonicalization
# ---------------------------------------------------------------------------


def test_clockwise_input_is_reordered():
    # far off the origin the raw cross products cancel: the orientation
    # must come from coordinates relative to a vertex
    for offset in (0.0, 1e8):
        dom = ConvexDomain(np.array([(0, 0), (0, 1), (1, 1), (1, 0)]) + offset)
        assert dom.area == pytest.approx(1.0)
        v = dom.vertices
        e1 = np.roll(v, -1, axis=0) - v
        e2 = np.roll(v, -2, axis=0) - np.roll(v, -1, axis=0)
        crosses = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(crosses > 0), "canonical order must be counterclockwise"


def test_rejects_degenerate_input():
    with pytest.raises(DomainError):
        ConvexDomain([(0, 0), (1, 0)])
    with pytest.raises(DomainError):
        ConvexDomain([(0, 0), (1, 0), (2, 0)])  # collinear
    with pytest.raises(DomainError):
        ConvexDomain([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])  # reflex
    with pytest.raises(DomainError, match="must be <= 1e\\+150"):
        ConvexDomain([(0, 0), (1e308, 0), (0, 1e308)])  # area overflows
    # at the limit every product of two coordinates is finite
    assert ConvexDomain([(0, 0), (1e150, 0), (0, -1e150)]).area == \
        pytest.approx(0.5e300, rel=1e-12)


def test_edge_frame_is_stored_read_only():
    for dom in corpus_domains(13, 20) + [disc(512), square()]:
        a, b = dom.edges()
        e = b - a
        assert np.array_equal(dom.edge_lengths(), np.hypot(e[:, 0], e[:, 1]))
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        n = n / np.hypot(n[:, 0], n[:, 1])[:, None]
        assert np.array_equal(dom.edge_normals(), n)
        assert np.array_equal(dom.edge_offsets(), [
            x * nx + y * ny
            for (x, y), (nx, ny) in zip(dom.vertices.tolist(), n.tolist())])
        with pytest.raises(ValueError):
            dom.edge_lengths()[0] = 0.0
        with pytest.raises(ValueError):
            dom.edge_normals()[0, 0] = 0.0
        with pytest.raises(ValueError):
            dom.edge_offsets()[0] = 0.0
        # area relative to the first vertex, edge ends the next vertices
        v = dom.vertices - dom.vertices[0]
        assert dom.area == 0.5 * float(cross2(v, np.roll(v, -1, axis=0)).sum())
        assert np.array_equal(dom.edges()[1], np.roll(dom.vertices, -1, axis=0))
        with pytest.raises(AttributeError):
            dom.area = 0.0
        with pytest.raises(ValueError):
            dom.edges()[1][0, 0] = 0.0


# ---------------------------------------------------------------------------
# products of 2-vectors
# ---------------------------------------------------------------------------


def test_dot2_rounds_as_python_floats():
    # magnitudes 1e-6 .. 1e6, so the two products often nearly cancel and a
    # fused multiply-add would round the sum differently
    rng = keyed_rng(2026, 10)
    a = rng.standard_normal((9, 1, 2)) * 10.0 ** rng.integers(-6, 7, (9, 1, 2))
    b = rng.standard_normal((6, 2)) * 10.0 ** rng.integers(-6, 7, (6, 2))
    out = dot2(a, b)
    assert out.shape == (9, 6)
    want = [[x * bx + y * by for bx, by in b.tolist()]
            for [[x, y]] in a.tolist()]
    assert out.tobytes() == np.array(want).tobytes()
    # pairwise rows, and many vectors against one
    rows = a[:6, 0]
    assert dot2(rows, b).tobytes() == np.array(
        [x * bx + y * by for (x, y), (bx, by)
         in zip(rows.tolist(), b.tolist())]).tobytes()
    assert dot2(b, b[0]).tobytes() == np.array(
        [x * b[0, 0] + y * b[0, 1] for x, y in b.tolist()]).tobytes()


def test_package_has_no_blas_products():
    # every product of 2-vectors goes through dot2: a BLAS product rounds as
    # the kernel numpy loads decides
    banned = {"einsum", "dot", "matmul", "inner"}
    found = []
    for path in sorted(Path(normratio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in banned and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in ("np", "numpy"):
                found.append(f"{where} np.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "numpy" and \
                    banned & {alias.name for alias in node.names}:
                found.append(f"{where} from numpy import")
    assert found == []


def test_repeated_near_and_collinear_vertices_collapse():
    tol = square().tol
    inputs = [
        # a repeated vertex, a collinear middle, a vertex within tol of the
        # one before it
        [(0, 0), (0, 0), (0.5, 0), (1, 0), (1, 1), (1 + 0.2 * tol, 1), (0, 1)],
        # the last vertex within tol of the first
        [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0.2 * tol)],
    ]
    for pts in inputs:
        dom = ConvexDomain(pts)
        assert np.array_equal(dom.vertices, square().vertices), pts
        assert dom.area == 1.0


def test_signed_boundary_distance_signs():
    dom = square()
    d = dom.signed_boundary_distance([(0.5, 0.5), (2.0, 0.5), (0.0, 0.5)])
    assert d[0] == pytest.approx(0.5)
    assert d[1] < 0
    assert abs(d[2]) <= 1e-12


# ---------------------------------------------------------------------------
# widths: rotating calipers against a dense projection grid
# ---------------------------------------------------------------------------


def _extent(dom, theta):
    d = np.array([math.cos(theta), math.sin(theta)])
    proj = dom.vertices @ d
    return float(proj.max() - proj.min())


def test_width_max_is_brute_force_diameter():
    for k, dom in enumerate(corpus_domains(811, 50)):
        v = dom.vertices
        diff = v[:, None, :] - v[None, :, :]
        diam = float(np.hypot(diff[..., 0], diff[..., 1]).max())
        we = width_extremes(dom)
        assert we.w_max == pytest.approx(diam, abs=1e-12), f"case {k}"


def test_width_min_matches_refined_angle_scan():
    from scipy.optimize import minimize_scalar

    grid = np.linspace(0.0, math.pi, 1024, endpoint=False)
    for k, dom in enumerate(corpus_domains(811, 50)):
        ext = np.array([_extent(dom, a) for a in grid])
        we = width_extremes(dom)
        # exactness: no sampled extent may undercut the calipers minimum
        assert we.w_min <= ext.min() + 1e-9, f"case {k}"
        # sharpness: refining the best grid angle reproduces it (the width
        # function has a kink at the minimizer, so the raw grid is O(dtheta)
        # off and a bracketed scalar minimization is needed)
        j = int(np.argmin(ext))
        step = grid[1] - grid[0]
        res = minimize_scalar(lambda a: _extent(dom, a),
                              bounds=(grid[j] - step, grid[j] + step),
                              method="bounded",
                              options={"xatol": 1e-12})
        assert we.w_min == pytest.approx(res.fun, abs=1e-6), f"case {k}"


def _width_extremes_whole_table(dom):
    # reference: widths from one n x n projection table, the diameter from
    # every pair in (i, j) order, one row of j > i at a time, keeping the
    # first strict maximum
    verts = dom.vertices
    projs = dot2(verts[:, None, :], dom.edge_normals())
    widths_by_edge = projs.max(axis=0) - projs.min(axis=0)
    imin = int(np.argmin(widths_by_edge))
    a, b = dom.edges()
    e = (b - a)[imin]
    best = (-1.0, None)
    for i in range(dom.n - 1):
        row = verts[i + 1:] - verts[i]
        lengths = np.hypot(row[:, 0], row[:, 1])
        k = int(np.argmax(lengths))
        if lengths[k] > best[0]:
            best = (float(lengths[k]), (i, i + 1 + k))
    sep = verts[best[1][1]] - verts[best[1][0]]
    return widths_by_edge, WidthExtremes(
        w_max=best[0], w_min=float(widths_by_edge[imin]),
        h_max=Direction.of(-sep[1], sep[0]), h_min=Direction.of(e[0], e[1]))


def test_width_extremes_match_whole_projection_table():
    # the blocked table must reproduce every bit of the whole one: on a
    # disc all edges have the same width up to rounding, so one ulp moves
    # h_min to another edge, and sweep's direction pairs with it.  Vertex
    # counts one past a multiple of the block width leave a last block of
    # one column.
    ns = [*range(3, 200), 255, 256, 257, 511, 512, 513, 641, 769, 1025,
          1537, 2048, 4096]
    doms = [disc(n) for n in ns]
    doms += [random_convex_polygon(keyed_rng(42, k, 0)) for k in range(200)]
    for dom in doms:
        widths, extremes = _width_extremes_whole_table(dom)
        np.testing.assert_array_equal(_edge_widths(dom), widths,
                                      err_msg=f"{dom!r}")
        assert width_extremes(dom) == extremes, f"{dom!r}"


def test_width_direction_convention():
    # widths are support-line distances PARALLEL to the direction, i.e.
    # extents along its perpendicular
    rect = ConvexDomain([(0, 0), (3, 0), (3, 1), (0, 1)])
    assert width(rect, E1) == pytest.approx(1.0)   # horizontal lines, y-extent
    assert width(rect, E2) == pytest.approx(3.0)
    assert circumscribed_rectangle(rect) == (3.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.1, 10.0), ang=st.floats(0.0, math.pi))
def test_width_extremes_scaled_rotated_square(s, ang):
    c, n = math.cos(ang), math.sin(ang)
    R = np.array([[c, -n], [n, c]])
    dom = ConvexDomain((np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * s) @ R.T)
    we = width_extremes(dom)
    assert we.w_min == pytest.approx(s, rel=1e-12)
    assert we.w_max == pytest.approx(s * math.sqrt(2), rel=1e-12)


# ---------------------------------------------------------------------------
# chords
# ---------------------------------------------------------------------------


def test_chord_basic():
    dom = diamond()
    ch = chord(dom, np.array([0.0, 1.0]), 0.0)
    assert ch.a == pytest.approx([-1.0, 0.0])
    assert ch.b == pytest.approx([1.0, 0.0])
    assert ch.length == pytest.approx(2.0)
    assert chord(dom, np.array([0.0, 1.0]), 2.0) is None
    assert chord(square(), (0, 1), 0.25).length == pytest.approx(1.0)
    assert chord(square(), (0, 1), 3.0) is None


def test_horizontal_chord_shorthand():
    # A horizontal chord is chord() with the tuple normal (0, 1); endpoints
    # come ordered left to right.
    ch = chord(diamond(), (0, 1), 0.5)
    assert ch.a == pytest.approx([-0.5, 0.5])
    assert ch.b == pytest.approx([0.5, 0.5])
    ch = chord(square(), (0, 1), 0.25)
    assert ch.a == pytest.approx([0.0, 0.25])
    assert ch.b == pytest.approx([1.0, 0.25])
    assert chord(square(), (0, 1), -0.5) is None


def test_chord_endpoints_on_boundary():
    rng = keyed_rng(12)
    for dom in corpus_domains(12, 25):
        n = np.array([math.cos(rng.uniform(0, 2 * math.pi)),
                      math.sin(rng.uniform(0, 2 * math.pi))])
        proj = dom.vertices @ n
        t = float(rng.uniform(proj.min(), proj.max()))
        ch = chord(dom, n, t)
        assert ch is not None
        for pt in (ch.a, ch.b):
            assert abs(dom.signed_boundary_distance(pt[None])[0]) <= 1e-9
        mid = 0.5 * (ch.a + ch.b)
        assert dom.contains(mid[None])[0]


def _reference_chord(dom, n, t):
    """Chord endpoints (a, b) from a loop over the edges, or None."""
    verts = dom.vertices
    proj = verts @ n
    lo, hi = float(proj.min()), float(proj.max())
    tol = dom.tol
    if t < lo - tol or t > hi + tol:
        return None
    s = proj - min(max(t, lo), hi)
    s_next = np.concatenate((s[1:], s[:1]))
    ends = dom.edges()[1]
    pts = []
    for i in range(len(verts)):
        si, sj = s[i], s_next[i]
        if abs(si) <= tol:
            pts.append(verts[i])
            continue
        if si * sj < 0.0:
            lam = si / (si - sj)
            pts.append(verts[i] + lam * (ends[i] - verts[i]))
    if not pts:
        return None
    pts = np.array(pts)
    along = pts @ np.array([n[1], -n[0]])
    return pts[int(np.argmin(along))], pts[int(np.argmax(along))]


def test_chords_batch_matches_scalar():
    dom = corpus_domains(99, 1)[0]
    n = np.array([0.3, 0.9])
    n = n / np.hypot(*n)
    proj = dom.vertices @ n
    ts = np.linspace(proj.min() - 0.1, proj.max() + 0.1, 41)
    P0, P1, valid = chords_batch(dom, n, ts)
    for i, t in enumerate(ts):
        ref = _reference_chord(dom, n, float(t))
        ch = chord(dom, n, float(t))
        if ref is None:
            assert not valid[i] and ch is None
        else:
            assert valid[i]
            for got in ((P0[i], P1[i]), (ch.a, ch.b)):
                np.testing.assert_allclose(got[0], ref[0], atol=1e-12)
                np.testing.assert_allclose(got[1], ref[1], atol=1e-12)


# ---------------------------------------------------------------------------
# extreme points and slope classification
# ---------------------------------------------------------------------------


def test_extreme_points_vertical_edge_picks_lower():
    A, B, rise = extreme_x_points(square())
    assert A == pytest.approx([0.0, 0.0])
    assert B == pytest.approx([1.0, 0.0])
    assert rise == 0.0


def test_vertical_classification_square():
    for dom in [square()] + [ConvexDomain(v) for v in NEAR_VERTICAL_SQUARES]:
        info = vertical_support_classification(dom)
        assert not info.left_angular and not info.right_angular
        assert math.isinf(max(abs(s) for s in info.slopes))
        assert max_boundary_slope(dom) == math.inf


def test_extreme_frame_slopes_run_over_their_edges():
    for dom in frame_domains():
        info = vertical_support_classification(dom)
        iA, iB = info.extremes
        a, b = dom.edges()
        # lower-left leaves A and upper-left reaches it; lower-right
        # reaches B and upper-right leaves it
        assert np.array_equal(a[info.edges[0]], dom.vertices[iA])
        assert np.array_equal(b[info.edges[1]], dom.vertices[iA])
        assert np.array_equal(b[info.edges[2]], dom.vertices[iB])
        assert np.array_equal(a[info.edges[3]], dom.vertices[iB])
        # each slope runs from its edge's start to its end, except
        # upper-left, which runs from A back to its edge's start
        for k, e in enumerate(info.edges):
            p, q = (b[e], a[e]) if k == 1 else (a[e], b[e])
            assert info.slopes[k] == _edge_slope(p, q, dom.tol), f"{dom!r}"
        A, B, _ = extreme_x_points(dom)
        assert np.array_equal(A, dom.vertices[iA])
        assert np.array_equal(B, dom.vertices[iB])


def test_vertical_classification_diamond():
    info = vertical_support_classification(diamond())
    assert info.left_angular and info.right_angular
    assert sorted(abs(s) for s in info.slopes) == [1.0, 1.0, 1.0, 1.0]


def test_max_slope_regular_polygon_closed_form():
    # steepest edge of the 2n-gon inscribed in the unit circle meets the
    # horizontal extreme at slope cot(pi/n)
    for n in (8, 64, 512):
        m = max_boundary_slope(disc(n))
        assert m == pytest.approx(1.0 / math.tan(math.pi / n), rel=1e-12)


def test_max_slope_triangle():
    dom = triangle(0, 0, 2, 0, 1, 1)
    assert max_boundary_slope(dom) == pytest.approx(1.0)
    info = vertical_support_classification(dom)
    assert info.left_angular and info.right_angular


# ---------------------------------------------------------------------------
# presets and serialization
# ---------------------------------------------------------------------------


def test_disc_area_converges():
    assert disc(512).area == pytest.approx(math.pi, rel=1e-4)
    assert disc(512).n == 512


def test_parallelogram_equal_slopes():
    dom = parallelogram(2.0, 1.0)
    v = dom.vertices
    e = np.roll(v, -1, axis=0) - v
    slopes = np.abs(e[:, 1] / e[:, 0])
    np.testing.assert_allclose(slopes, 1.0, atol=1e-12)
    assert max_boundary_slope(dom) == pytest.approx(1.0)


def test_json_roundtrip():
    dom = corpus_domains(5, 1)[0]
    again = domain_from_json(domain_to_json(dom))
    assert again == dom


def test_direction_helpers():
    h = Direction.of(3.0, 4.0)
    assert np.hypot(h.dx, h.dy) == pytest.approx(1.0)
    assert h.perp().dot(h) == pytest.approx(0.0)
    assert Direction.from_angle(0.0).as_array() == pytest.approx([1.0, 0.0])
    assert E1.dot(E2) == 0.0
    # a NaN norm is not within 1e-12 of 1
    for dx, dy in ((math.nan, math.nan), (math.nan, 0.0), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="unit vector"):
            Direction(dx, dy)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            Direction.from_angle(theta)


def test_random_polygon_contract():
    for k in range(40):
        dom = random_convex_polygon(keyed_rng(314, k))
        assert 3 <= dom.n <= 12
        assert dom.area > 0.04
