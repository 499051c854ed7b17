"""Tests for piecewise-linear concave functions: construction, evaluation,
chord maxima and the parametric families."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from normratio import concave
from normratio.bounds import affine_normalize
from normratio.concave import (
    ConcaveFunction,
    _fan_triangulate,
    _locate_boundary_edge,
    _polygon_area,
    _polygon_ccw,
    build_function,
    check_concavity,
    check_partition,
    check_vertex_consistency,
    chord_max_hulls,
    chord_maxima,
    concave_envelope,
    concave_envelope_groups,
    evaluate,
    family_u_omega,
    family_u_phi_eps,
    gradient_at,
    linear_extremal_triangle,
    tent_function,
    transform_function,
)
from normratio.facets import active_gradients
from normratio.geometry import (
    ConvexDomain,
    Direction,
    E1,
    E2,
    chords_batch,
    cross2,
    diamond,
    disc,
    dot2,
    parallelogram,
    square,
    triangle,
)
from normratio.norms import lp_directional_norm, scanline_l1_norms
from normratio.sampling import (
    keyed_rng,
    random_convex_polygon,
    random_envelope_descriptor,
    random_interior_points,
)
from normratio.search import _candidates
from normratio.verify import CASE_BLOCK, ENVELOPES_PER_CASE, Block, _case, _cones

from conftest import (chord_max_hull, corpus_domains, max_profile,
                      stacked_gradients_at)


# ---------------------------------------------------------------------------
# structure of simple envelopes
# ---------------------------------------------------------------------------


def test_square_pyramid_structure():
    u = concave_envelope(square(), [((0.5, 0.5), 1.0)])
    assert not u.trace.any()
    assert u.max_value == pytest.approx(1.0, abs=1e-14)
    assert u.n_facets == 4
    grads = sorted(map(tuple, np.round(u.planes[:, :2], 9)))
    assert grads == [(-2.0, 0.0), (0.0, -2.0), (0.0, 2.0), (2.0, 0.0)]
    # facet areas partition the square
    assert u.facet_areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert check_partition(u) and check_concavity(u) and check_vertex_consistency(u)


def test_coplanar_facets_are_merged():
    # two constraints at equal height create a flat ridge; the side walls on
    # either side of each apex must come out as single planes, not slivers
    u = concave_envelope(square(), [((1 / 3, 0.5), 1.0), ((2 / 3, 0.5), 1.0)])
    distinct = np.unique(np.round(u.planes[:, :2], 9), axis=0)
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


def _merge_upper_facets(points3, hull):
    """Group coplanar upper-hull simplices and re-triangulate each group by
    a fan from its lowest-index vertex, so the facet set is reproducible.

    Groups come out in the order of their lowest member simplex.  A simplex
    with no coplanar neighbour is a group of its own and is emitted directly;
    only the others go through the flood fill, which is skipped when there
    are none.
    """
    eqs = hull.equations
    upper = eqs[:, 2] > 1e-9
    upper_idx = np.nonzero(upper)[0]
    if len(upper_idx) == 0:
        raise ValueError("degenerate envelope: no upper facets")
    pos = -np.ones(len(eqs), dtype=np.int64)
    pos[upper_idx] = np.arange(len(upper_idx))

    simpl = hull.simplices[upper_idx]
    eq_u = eqs[upper_idx]
    nbr = pos[hull.neighbors[upper_idx]]                  # (n_up, 3), -1: none
    other = eq_u[np.maximum(nbr, 0)]                      # (n_up, 3, 4)
    # coplanar[f, k]: neighbour k of f lies in f's plane (tolerance set by f)
    coplanar = ((nbr >= 0)
                & (np.abs(eq_u[:, None, :3] - other[:, :, :3]).max(axis=2) <= 1e-9)
                & (np.abs(eq_u[:, None, 3] - other[:, :, 3])
                   <= 1e-9 * (1.0 + np.abs(eq_u[:, None, 3]))))
    # the relation is not symmetric, so a facet flagged only by its
    # neighbour can still be pulled into that neighbour's group
    linked = coplanar.any(axis=1)
    linked[nbr[coplanar]] = True
    planes_u = -eq_u[:, [0, 1, 3]] / eq_u[:, 2:3]

    alone = np.nonzero(~linked)[0]
    tris_alone = np.sort(simpl[alone], axis=1)
    p = points3[tris_alone, :2]
    flip = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    tris_alone[flip] = tris_alone[flip][:, [0, 2, 1]]
    if len(alone) == len(simpl):
        return tris_alone, planes_u

    n_up = len(upper_idx)
    group = -np.ones(n_up, dtype=np.int64)
    keys, tris, planes = [alone], [tris_alone], [planes_u[alone]]
    for start in np.nonzero(linked)[0]:
        if group[start] >= 0:
            continue
        stack = [start]
        group[start] = start
        while stack:
            f = stack.pop()
            for k in range(3):
                g = nbr[f, k]
                if coplanar[f, k] and group[g] < 0:
                    group[g] = start
                    stack.append(g)
        vids = np.unique(simpl[group == start].ravel())
        if len(vids) == 3:
            order = vids
        else:
            pts2 = points3[vids, :2]
            cen = pts2.mean(axis=0)
            ang = np.arctan2(pts2[:, 1] - cen[1], pts2[:, 0] - cen[0])
            order = vids[np.argsort(ang, kind="stable")]
            start_pos = int(np.argmin(order))
            order = np.roll(order, -start_pos)
        fan = []
        for a in range(1, len(order) - 1):
            t = [order[0], order[a], order[a + 1]]
            q = points3[t, :2]
            if cross2(q[1] - q[0], q[2] - q[0]) < 0:
                t = [t[0], t[2], t[1]]
            fan.append(t)
        keys.append(np.full(len(fan), start))
        tris.append(np.array(fan, dtype=np.int64))
        planes.append(np.tile(planes_u[start], (len(fan), 1)))
    order = np.argsort(np.concatenate(keys), kind="stable")
    return np.concatenate(tris)[order], np.concatenate(planes)[order]


def _full_ring_envelope(dom, cons):
    """Reference envelope: qhull on the whole boundary ring at height zero
    plus the constraints, with the coplanar merge, vertices in input order."""
    points3 = np.zeros((dom.n + len(cons), 3))
    points3[:dom.n, :2] = dom.vertices
    points3[dom.n:, :2] = [p for p, _ in cons]
    points3[dom.n:, 2] = [h for _, h in cons]
    tris, planes = _merge_upper_facets(points3, ConvexHull(points3,
                                                           qhull_options="Qt"))
    used = np.unique(tris.ravel())
    remap = -np.ones(len(points3), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return ConcaveFunction(dom, points3[used, :2], points3[used, 2],
                           remap[tris], planes, np.zeros(dom.n),
                           {"kind": "envelope"})


def _facet_planes(u):
    """Facet planes keyed by the sorted vertex triple of the facet."""
    return {tuple(sorted(map(int, t))): plane for t, plane in zip(u.tris, u.planes)}


def _assert_matches_oracle(dom, cons, label):
    u, ref = concave_envelope(dom, cons), _full_ring_envelope(dom, cons)
    assert np.array_equal(u.verts, ref.verts), label
    assert np.array_equal(u.vert_values, ref.vert_values), label
    a, b = _facet_planes(u), _facet_planes(ref)
    assert a.keys() == b.keys(), label
    for key, plane in a.items():
        scale = np.abs(b[key]).max()
        assert np.abs(plane - b[key]).max() <= 1e-11 * scale, label
    for h in (E1, E2, Direction.from_angle(0.7)):
        for p in (1, 2, 3.5, math.inf):
            assert lp_directional_norm(u, h, p).value == pytest.approx(
                lp_directional_norm(ref, h, p).value, rel=1e-11, abs=0), label


def test_cone_matches_qhull_oracle():
    domains = corpus_domains(7110, 150) + [disc(128), disc(512)]
    for k, dom in enumerate(domains):
        for apex in random_interior_points(keyed_rng(7110, k), dom, 5):
            _assert_matches_oracle(dom, [(apex, 1.0)], f"case {k}")


def test_envelope_matches_full_ring_qhull_oracle():
    shift = np.array([1e6, -0.7e6])
    for k, dom in enumerate(corpus_domains(7114, 150) + [disc(128), disc(512)]):
        cons = [((x, y), h) for x, y, h in
                random_envelope_descriptor(keyed_rng(7114, k), dom)["constraints"]]
        _assert_matches_oracle(dom, cons, f"case {k}")
        if k < 150:
            _assert_matches_oracle(
                ConvexDomain(dom.vertices + shift),
                [(np.array(p) + shift, h) for p, h in cons], f"moved case {k}")
    for dom in (square(), disc(16), disc(64), disc(512)):
        for eps in (0.05, 0.02):
            _, pts = family_u_phi_eps(dom, math.pi / 6, eps)
            _assert_matches_oracle(dom, [(p, 1.0) for p in pts],
                                   f"u-phi-eps {dom.n} {eps}")


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_paraboloid_lift_matches_full_ring_qhull_oracle(n):
    # heights on a paraboloid over disc(64): no constraint is dominated, so
    # every one is a vertex and the interior facets are n-sized
    dom = disc(64)
    pts = random_interior_points(keyed_rng(7120, n), dom, n)
    cons = [(p, h) for p, h in zip(pts, 2.0 - (pts ** 2).sum(axis=1))]
    u = concave_envelope(dom, cons)
    assert len(u.verts) == dom.n + n
    _assert_matches_oracle(dom, cons, f"paraboloid {n}")


def test_polygon_ccw_matches_qhull_2d():
    # the same vertices in the same cyclic order as qhull's 2-D hull, on
    # clouds shaped as random_convex_polygon draws them and on large ones
    rng = keyed_rng(7121)
    sizes = list(rng.integers(4, 16, size=2000)) + [200, 1000, 5000]
    for k, m in enumerate(sizes):
        pts = rng.standard_normal((m, 2)) * rng.uniform(0.5, 1.8, size=2)
        ang = rng.uniform(0.0, np.pi)
        pts = pts @ np.array([[np.cos(ang), np.sin(ang)],
                              [-np.sin(ang), np.cos(ang)]])
        ours = _polygon_ccw(pts, 0.0)
        ref = ConvexHull(pts).vertices.tolist()
        assert len(ours) == len(ref), f"cloud {k}"
        start = ref.index(ours[0])
        assert ours == ref[start:] + ref[:start], f"cloud {k}"


def test_small_scaled_envelope_covers_its_domain():
    # seed-42 corpus case 151, envelope 0, scaled by 1e-4: the build once
    # covered 98% of the domain and passed a cover check that was absolute
    # below area 1; it must cover the domain or raise
    case = _case(42, 151)
    desc = case.envelopes[0].descriptor
    dom = ConvexDomain(case.domain.vertices * 1e-4)
    cons = [((x * 1e-4, y * 1e-4), h) for x, y, h in desc["constraints"]]
    try:
        u = concave_envelope(dom, cons)
    except ValueError:
        return
    assert abs(u.facet_areas.sum() - dom.area) <= 1e-9 * dom.area
    assert check_partition(u) and check_concavity(u)


def test_cover_checks_are_relative_to_the_area(monkeypatch):
    dom = ConvexDomain(square().vertices * 1e-4)
    cons = [((0.3e-4, 0.4e-4), 1.0), ((0.6e-4, 0.5e-4), 0.8),
            ((0.5e-4, 0.75e-4), 0.9)]
    u = concave_envelope(dom, cons)
    assert check_partition(u)
    # shrinking the mesh by 1e-4 leaves a gap of 2e-12, far below 1e-9 but
    # 2e-4 of the area
    shrunk = ConcaveFunction(dom, (u.verts - 0.5e-4) * (1 - 1e-4) + 0.5e-4,
                             u.vert_values, u.tris, u.planes, u.trace,
                             u.descriptor)
    assert not check_partition(shrunk)
    # a hull step that loses a facet must fail the build's own cover check
    hull = concave.ConvexHull

    def lose_one(*args):
        (tris, planes), = hull(*args)
        return [(tris[1:], planes[1:])]

    monkeypatch.setattr(concave, "ConvexHull", lose_one)
    with pytest.raises(ValueError, match="does not triangulate"):
        concave_envelope(dom, cons)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_tied_edge_facet_is_one_fan(offset):
    # three equal apexes on a line parallel to the bottom edge: its facet is
    # the quadrilateral through the outer two, fanned from its lowest
    # vertex, and the middle apex lies on an edge of it, so is no vertex
    shift = np.array([offset, -0.7 * offset])
    dom = ConvexDomain(square().vertices + shift)
    apexes = np.array([[0.25, 0.3], [0.5, 0.3], [0.75, 0.3]])
    cons = [(p + shift, 1.0) for p in apexes]
    u = concave_envelope(dom, cons)
    local = u.verts - shift
    assert not np.any(np.all(np.abs(local - [0.5, 0.3]) <= 1e-9, axis=1))
    bottom = u.tris[np.all(np.abs(u.planes[:, :2] - [0.0, 1.0 / 0.3]) <= 1e-6,
                           axis=1)]
    assert len(bottom) == 2
    assert np.all(bottom[:, 0] == bottom.min())
    corners = local[np.unique(bottom)]
    assert corners == pytest.approx(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.3], [0.75, 0.3]]), abs=1e-9)
    assert check_partition(u) and check_concavity(u)
    _assert_matches_oracle(dom, cons, f"offset {offset}")


def test_tied_constraint_inside_edge_facet_is_no_vertex():
    # (0.3, 0.2) at height 0.5 lies on the bottom facet of the cone over
    # (0.5, 0.4): it ties on that edge but is inside the facet, so the
    # envelope is the cone, and it must not make the reduced hull flat
    cons = [((0.5, 0.4), 1.0), ((0.3, 0.2), 0.5)]
    u = concave_envelope(square(), cons)
    assert u.n_facets == 4 and len(u.verts) == 5
    _assert_matches_oracle(square(), cons, "inside")


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


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
def test_translated_envelopes_build(offset):
    # areas are taken relative to a vertex, so the cover check does not
    # cancel away from the origin; the reduced hull and its filter run in a
    # frame local to the first vertex, without which 1e8 fails
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
        u = build_function(dom, random_envelope_descriptor(rng, dom))
        tops = [h for (_, h) in
                [((x, y), h) for x, y, h in u.descriptor["constraints"]]]
        assert u.max_value <= max(tops) + 1e-12, f"case {k}"


def test_envelope_midpoint_concavity():
    rng = keyed_rng(7103)
    for k, dom in enumerate(corpus_domains(7103, 15)):
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(7103, k), dom))
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


def _gradient_batch():
    """(planes, domain, points) per function: the images of a seed-42
    block under each case's normalizing map, at lemma-tan's points, the
    midpoints of their facet edges (two active planes, which disagree),
    their mesh vertices (three or more), a point just outside the margin
    and one far outside per domain vertex; then planes on the unit square
    with two active planes that agree, three of which one disagrees, and
    two active at u = -5, where the tie threshold needs |u|."""
    batch = []
    for case in Block.build(42, range(CASE_BLOCK)):
        dom, _, images = case.normalized
        rng = case.rng(3)
        c = dom.vertices.mean(axis=0)
        out = dom.vertices - c
        out /= np.hypot(out[:, 0], out[:, 1])[:, None]
        outside = np.concatenate([dom.vertices + 2.0 * dom.margin * out,
                                  c + 4.0 * (dom.vertices - c)])
        for tu in images:
            edges = tu.tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
            batch.append((tu.planes, dom, np.concatenate([
                random_interior_points(rng, dom, 25),
                tu.verts[edges].mean(axis=1), tu.verts, outside])))
    sq = square()
    batch.append((np.array([[1.0, 0.0, 0.0], [1.0 + 1e-12, 0.0, 0.0],
                            [-1.0, 0.0, 1.0]]), sq,
                  np.array([[0.25, 0.3], [0.25, 0.7], [0.5, 0.5],
                            [0.9, 0.2]])))
    batch.append((np.array([[0.0, 0.0, 10.0], [1.0, 0.0, -5.5],
                            [0.0, 0.0, -5.0 + 4e-11]]), sq,
                  np.array([[0.5, 0.5], [0.5, 0.2]])))
    return batch


def _active_counts(planes, pts):
    vals = dot2(pts[:, None, :], planes[:, :2]) + planes[:, 2]
    vmin = vals.min(axis=1)
    return (vals <= (vmin + 1e-11 * (1.0 + np.abs(vmin)))[:, None]).sum(axis=1)


def _batch_gradients(batch):
    """active_gradients over every function of ``batch`` in one call, and
    each domain's containment, as gradient_at's regular test takes it."""
    planes = np.concatenate([p for p, _, _ in batch])
    fstart = np.cumsum([0] + [len(p) for p, _, _ in batch[:-1]])
    fn = np.repeat(np.arange(len(batch)), [len(x) for _, _, x in batch])
    pts = np.concatenate([x for _, _, x in batch])
    vals, grads, agree = active_gradients(planes, fstart, pts, fn)
    inside = np.concatenate([d.contains(x, d.margin) for _, d, x in batch])
    return vals, grads, agree & inside


def _split(arrays, batch):
    cut = np.cumsum([len(x) for _, _, x in batch])[:-1]
    return zip(*(np.split(a, cut) for a in arrays))


def test_active_gradients_match_the_stacked_rule_bitwise():
    batch = _gradient_batch()
    got = _batch_gradients(batch)
    counts = np.concatenate([_active_counts(p, x) for p, _, x in batch])
    agreeing = []
    for (planes, dom, pts), block_part in zip(batch, _split(got, batch)):
        u = types.SimpleNamespace(planes=planes, domain=dom)
        want = stacked_gradients_at(u, pts)
        vals, grads, agree = active_gradients(planes, [0], pts,
                                              np.zeros(len(pts), dtype=int))
        alone = vals, grads, agree & dom.contains(pts, dom.margin)
        for a, b, c in zip(block_part, alone, want):
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes()
            assert b.dtype == c.dtype and b.tobytes() == c.tobytes()
        agreeing += (want[2] & (_active_counts(planes, pts) > 1)).tolist()
    regular = got[2]
    # the batch holds every kind of point the rule tells apart
    assert (regular & (counts == 1)).sum() >= 400
    assert (~regular & (counts == 2)).sum() >= 500
    assert sum(agreeing) == 2
    assert (~regular & (counts >= 3)).sum() >= 100
    assert (~regular & (counts == 1)).any()          # outside the margin
    assert (got[0] < -1.0).sum() >= 100


def test_active_gradients_do_not_depend_on_their_batch():
    # each function alone, and the batch reversed; freed NaN-filled
    # buffers of the sizes the call allocates are handed back to it first,
    # so a slot read before it is written would change the bits
    batch = _gradient_batch()
    whole = _batch_gradients(batch)
    for _ in range(2):
        for n in range(1, 4 * len(whole[0]), 53):
            junk = np.full(n, np.nan)
            del junk
        again = _batch_gradients(batch)
        for a, b in zip(again, whole):
            assert a.tobytes() == b.tobytes()
    back = list(_split(_batch_gradients(batch[::-1]), batch[::-1]))[::-1]
    for part, rev, item in zip(_split(whole, batch), back, batch):
        alone = _batch_gradients([item])
        for a, b, c in zip(part, rev, alone):
            assert a.tobytes() == b.tobytes() == c.tobytes()


# ---------------------------------------------------------------------------
# chord maxima
# ---------------------------------------------------------------------------


def test_chord_maxima_against_dense_sampling():
    for k, dom in enumerate(corpus_domains(7104, 12)):
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(7104, k), dom))
        ends = random_interior_points(keyed_rng(7104, k, 1), dom, 20)
        P0, P1 = ends[:10], ends[10:]
        m, tstar = chord_maxima(u, P0, P1)
        assert np.all((tstar >= -1e-12) & (tstar <= 1 + 1e-12))
        lip = np.abs(u.planes[:, :2]).max()
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


def _chord_max_oracle(u, P0, P1):
    # along a segment u is the minimum of the planes' restrictions, so its
    # maximum is at an end or where two of them cross: reads planes only
    C = P0 @ u.planes[:, :2].T + u.planes[:, 2]
    S = (P1 - P0) @ u.planes[:, :2].T
    out = np.empty(len(P0))
    for i in range(len(P0)):
        dc = C[i][None, :] - C[i][:, None]
        ds = S[i][:, None] - S[i][None, :]
        t = dc[ds != 0] / ds[ds != 0]
        t = np.concatenate([[0.0, 1.0], t[(t >= 0.0) & (t <= 1.0)]])
        out[i] = (C[i] + np.outer(t, S[i])).min(axis=1).max()
    return out


def test_chord_maxima_matches_plane_crossing_oracle():
    funcs = []
    for k, dom in enumerate(corpus_domains(7113, 40)):
        desc = random_envelope_descriptor(keyed_rng(7113, k), dom)
        funcs.append(build_function(dom, desc))
        v, i = dom.vertices, dom.n // 2
        funcs.append(tent_function(dom, [v[0], 0.5 * (v[i - 1] + v[i])]))
    for j, n in enumerate((16, 24, 40, 48)):
        dom = disc(n)
        desc = random_envelope_descriptor(keyed_rng(7113, 100 + j), dom)
        funcs.append(build_function(dom, desc))
        funcs.append(tent_function(dom, dom.vertices[[1, n // 2 + 3]]))
    funcs = [u for u in funcs if u.n_facets <= 60]
    assert len(funcs) >= 80 and max(u.n_facets for u in funcs) >= 40
    for k, u in enumerate(funcs):
        ends = random_interior_points(keyed_rng(7113, k, 1), u.domain, 40)
        P0, P1 = ends[:20], ends[20:]
        m, tstar = chord_maxima(u, P0, P1)
        tol = 1e-12 * (1.0 + u.max_value)
        assert np.abs(m - _chord_max_oracle(u, P0, P1)).max() <= tol, \
            f"case {k}"
        assert np.all((tstar >= 0.0) & (tstar <= 1.0))
        at = P0 + tstar[:, None] * (P1 - P0)
        assert np.abs(evaluate(u, at) - m).max() <= tol, f"case {k}"
    # a segment through the apex of a cone must find the apex
    u = concave_envelope(square(), [((0.3, 0.6), 1.0)])
    m, tstar = chord_maxima(u, np.array([[0.1, 0.2], [0.0, 0.6]]),
                            np.array([[0.5, 1.0], [1.0, 0.6]]))
    assert m == pytest.approx([1.0, 1.0], abs=1e-14)
    assert tstar == pytest.approx([0.5, 0.3], abs=1e-12)


def test_chord_max_hull_matches_chord_maxima():
    funcs = [build_function(
                 dom, random_envelope_descriptor(keyed_rng(7112, k), dom))
             for k, dom in enumerate(corpus_domains(7112, 40))]
    funcs += [family_u_phi_eps(square(), math.pi / 6, 0.05)[0],
              family_u_phi_eps(disc(64), math.pi / 6, 0.05)[0]]
    dom = disc(512)
    funcs.append(tent_function(dom, [dom.vertices[3], dom.vertices[290]]))
    # on the square, E1 and E2 give pairs of vertices equal projections
    funcs.append(concave_envelope(square(), [((0.3, 0.6), 1.0)]))
    for k, u in enumerate(funcs):
        for h in (E1, E2, Direction.from_angle(0.7)):
            normal = h.perp().as_array()
            ht, hm = chord_max_hull(u, normal)
            proj = dot2(u.domain.vertices, normal)
            # the hull spans exactly the domain's projection
            assert ht[0] == proj.min() and ht[-1] == proj.max(), f"case {k}"
            assert np.all(np.diff(ht) > 0), f"case {k}"
            ts = np.linspace(proj.min(), proj.max(), 101)
            P0, P1, valid = chords_batch(u.domain, normal, ts)
            assert valid.all()
            m, _ = chord_maxima(u, P0, P1)
            tol = 1e-12 * (1.0 + u.max_value)
            assert np.abs(np.interp(ts, ht, hm) - m).max() <= tol, f"case {k}"


def test_chord_max_hull_at_support_offsets_of_slanted_edges():
    # the two ends of a rotated edge project a rounding apart; the tent's
    # top meets edge 1 at its midpoint, so the hull must read 1 there too
    for ang in [0.3636] + np.linspace(0.1, 3.0, 12).tolist():
        c, s = math.cos(ang), math.sin(ang)
        dom = ConvexDomain(square().vertices @ np.array([[c, s], [-s, c]]))
        v = dom.vertices
        for u in (tent_function(dom, [v[0], 0.5 * (v[1] + v[2])]),
                  concave_envelope(dom, [(v.mean(axis=0), 1.0)])):
            # each edge both ways: its line is the lower and the upper
            # support line
            A, B = dom.edges()
            for a, b in zip(np.vstack([A, B]), np.vstack([B, A])):
                normal = Direction.of(*(b - a)).perp().as_array()
                ht, hm = chord_max_hull(u, normal)
                top = chord_maxima(u, a[None, :], b[None, :])[0][0]
                assert np.interp(a @ normal, ht, hm) == pytest.approx(
                    top, abs=1e-12), f"angle {ang}"
                assert np.all(np.diff(ht) > 0), f"angle {ang}"


HULL_DIRS = [E1, E2, Direction.of(1, 1)] + [Direction.from_angle(a)
                                            for a in (0.7, 1.9, 2.6)]


def _chord_max_hull_reference(u, normal):
    """chord_max_hull's rule with its upper chain over (t, z) written out:
    the last point kept is popped while it is on or under the chord from
    the one before it to the next."""
    t = dot2(u.verts, np.asarray(normal, dtype=float))
    lo, hi = t.min(), t.max()
    t[t <= lo + u.domain.tol] = lo
    t[t >= hi - u.domain.tol] = hi
    order = np.lexsort((u.vert_values, t))
    t, z = t[order], u.vert_values[order]
    top = np.append(t[1:] != t[:-1], True)
    ht, hz = [], []
    for ti, zi in zip(t[top].tolist(), z[top].tolist()):
        while len(ht) >= 2 and ((ht[-1] - ht[-2]) * (zi - hz[-2])
                                >= (hz[-1] - hz[-2]) * (ti - ht[-2])):
            ht.pop()
            hz.pop()
        ht.append(ti)
        hz.append(zi)
    return np.array(ht), np.array(hz)


def test_chord_max_hull_matches_its_upper_chain_reference_bitwise():
    # the lower chain over (t, -z) pops exactly where the upper chain over
    # (t, z) does; a chain run the other way round rounds its turn tests
    # differently and keeps other points at near-collinear triples
    funcs = [u for seed in (42, 7) for k in range(200)
             for u in _case(seed, k).envelopes]
    for dom in (disc(512), disc(128), square(), diamond()):
        for p in (1.0, 2.0):
            for desc in _candidates(dom, p, E1, E2, 100, 42):
                try:
                    funcs.append(build_function(dom, desc))
                except ValueError:
                    continue
    assert sum(u.descriptor["kind"] == "tent" for u in funcs) >= 100
    profiles = 0
    for k, u in enumerate(funcs):
        for h in HULL_DIRS:
            normal = h.perp().as_array()
            got = chord_max_hull(u, normal)
            ref = _chord_max_hull_reference(u, normal)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    f"function {k}: {u}, direction {h}"
            profiles += 1
    assert profiles >= 16000


def _hull_batch(funcs):
    """Every function of funcs across every HULL_DIRS normal, as one
    batch: (verts, values, vstart, fn, normals, tol)."""
    nv = [len(u.verts) for u in funcs]
    fn = np.repeat(np.arange(len(funcs)), len(HULL_DIRS))
    normals = np.array([h.perp().as_array() for h in HULL_DIRS])
    return (np.concatenate([u.verts for u in funcs]),
            np.concatenate([u.vert_values for u in funcs]),
            np.cumsum([0, *nv[:-1]]), fn, np.tile(normals, (len(funcs), 1)),
            np.array([u.domain.tol for u in funcs])[fn])


def _hulls(*batch):
    """chord_max_hulls as one (t, m) pair per profile."""
    t, m, cut = chord_max_hulls(*batch)
    return [(t[a:b], m[a:b]) for a, b in zip(cut[:-1], cut[1:])]


@pytest.fixture(scope="module")
def hull_funcs():
    """Corpus envelopes and search candidates, tents with up to 256 hull
    breakpoints among them."""
    funcs = [u for seed in (42, 7) for k in range(150)
             for u in _case(seed, k).envelopes]
    for dom, budget in ((disc(512), 20), (disc(128), 60), (square(), 60),
                        (diamond(), 60)):
        for p in (1.0, 2.0):
            for desc in _candidates(dom, p, E1, E2, budget, 42):
                try:
                    funcs.append(build_function(dom, desc))
                except ValueError:
                    continue
    assert sum(u.descriptor["kind"] == "tent" for u in funcs) >= 40
    return funcs


def _same_bits(got, want, where):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                f"{where}: profile {i}"


def test_chord_max_hulls_in_one_call_match_the_reference_bitwise(hull_funcs):
    # and so do the scan-line norms, against np.trapezoid on each
    # reference hull
    verts, values, vstart, fn, normals, tol = batch = _hull_batch(hull_funcs)
    got = _hulls(*batch)
    assert len(got) >= 9000
    assert max(len(t) for t, _ in got) >= 200
    want = [_chord_max_hull_reference(hull_funcs[k], normal)
            for k, normal in zip(fn.tolist(), normals)]
    _same_bits(got, want, "one call")
    h = np.tile([h.as_array() for h in HULL_DIRS], (len(hull_funcs), 1))
    scan = scanline_l1_norms(verts, values, vstart, fn, h, tol)
    ref = np.array([np.trapezoid(2.0 * m, t) for t, m in want])
    assert scan.tobytes() == ref.tobytes()


def test_chord_max_hull_does_not_depend_on_its_batch(hull_funcs):
    # alone, inside the whole batch and with the batch reversed
    verts, values, vstart, fn, normals, tol = _hull_batch(hull_funcs)
    block = _hulls(verts, values, vstart, fn, normals, tol)
    alone = [chord_max_hull(hull_funcs[k], normal)
             for k, normal in zip(fn.tolist(), normals)]
    _same_bits(block, alone, "alone")
    back = _hulls(verts, values, vstart, fn[::-1], normals[::-1], tol[::-1])
    _same_bits(back[::-1], block, "reversed")


def test_chord_max_hulls_keep_the_ends_of_profiles_that_meet():
    # on the unit square the profile across (0, -1) ends at t = 0, where the
    # one across (0, 1) starts: each keeps its own end points
    u = concave_envelope(square(), [((0.3, 0.6), 1.0)])
    normals = np.array([[0.0, -1.0], [0.0, 1.0], [0.0, -1.0]])
    got = _hulls(u.verts, u.vert_values, [0], [0, 0, 0], normals,
                 u.domain.tol)
    _same_bits(got, [chord_max_hull(u, n) for n in normals], "meeting ends")
    assert got[0][0][-1] == got[1][0][0] == 0.0


def test_chord_max_hulls_snap_each_profile_with_its_own_tol():
    # the walls of the large square lean 5e-7 in x, inside its tol (about
    # 1.4e-6) and outside the unit square's.  The tent is 1 on the right
    # wall: across (-1, 0) its two ends are one hull point only when they
    # snap onto one support value, under the large tol
    big = ConvexDomain([(0.0, 0.0), (1e3, 0.0), (1e3 + 5e-7, 1e3),
                        (5e-7, 1e3)])
    wall = big.vertices[big.vertices[:, 0] > 1.0]
    funcs = [concave_envelope(square(), [((0.3, 0.6), 1.0)]),
             tent_function(big, wall)]
    for order in (funcs, funcs[::-1]):
        got = _hulls(*_hull_batch(order))
        _same_bits(got, [chord_max_hull(u, h.perp().as_array())
                         for u in order for h in HULL_DIRS], "own tol")
    t, m = chord_max_hull(funcs[1], E2.perp().as_array())
    assert t[0] == -1e3 - 5e-7 and len(t) == 2 and m[0] == 1.0


def test_chord_max_hulls_read_no_unwritten_memory():
    # freed NaN-filled buffers of every size the call allocates are handed
    # back to it; a slot read before it is written would change the bits
    funcs = [u for k in range(40) for u in _case(42, k).envelopes]
    dom = disc(128)
    funcs.append(tent_function(dom, dom.vertices[[5, 70]]))
    batch = _hull_batch(funcs)
    first = _hulls(*batch)
    for _ in range(3):
        for n in range(1, 2 * len(batch[0]) * len(HULL_DIRS), 97):
            junk = np.full(n, np.nan)
            del junk
        _same_bits(_hulls(*batch), first, "after NaN buffers")


def test_max_profile_of_diamond_cone():
    u = concave_envelope(diamond(), [((0.0, 0.0), 1.0)])
    ts, ms = max_profile(u, E1)
    assert len(ts) == 33
    mask = np.abs(ts) < 1.0 - 1e-9
    assert ms[mask] == pytest.approx(1.0 - np.abs(ts[mask]), abs=1e-9)
    assert ms.max() == pytest.approx(u.max_value, abs=1e-14)


def test_max_profile_matches_chords_of_the_domain():
    # reference: the domain's chords at the profile's offsets, each
    # maximized by the segment oracle chord_maxima, which finds the chord
    # ends and edge crossings itself instead of reading projected edges
    funcs = [u for k in range(200) for u in _case(42, k).envelopes]
    para = ConvexDomain([(0.0, 0.0), (2.0, 0.0), (2.7, 1.3), (0.7, 1.3)])
    for dom in (square(), disc(64), diamond(), triangle(0, 0, 3, 0, 0.5, 2),
                para):
        v, i = dom.vertices, dom.n // 2
        funcs += [family_u_omega(dom, 0.5 * (v[0] + v[1]), 0.05),
                  tent_function(dom, [v[0], 0.5 * (v[i - 1] + v[i])]),
                  tent_function(dom, [v[1], v[i + 1]])]
    funcs += [family_u_phi_eps(dom, phi, eps)[0] for dom in (square(), disc(64))
              for phi, eps in ((math.pi / 6, 0.05), (math.pi / 4, 0.01))]
    assert sum(u.trace.any() for u in funcs) >= 10
    dirs = [E1, E2] + [Direction.from_angle(a)
                       for a in np.linspace(0.1, 3.0, 11)]
    for k, u in enumerate(funcs):
        profs = [max_profile(u, h) for h in dirs]
        P0, P1, valid = zip(*(chords_batch(u.domain, h.perp().as_array(), ts)
                              for h, (ts, _) in zip(dirs, profs)))
        assert np.all(valid)
        ref, _ = chord_maxima(u, np.vstack(P0), np.vstack(P1))
        got = np.concatenate([ms for _, ms in profs])
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + u.max_value), \
            f"case {k}: {u}"


# ---------------------------------------------------------------------------
# tents and the linear extremal
# ---------------------------------------------------------------------------


def test_tent_over_diamond_diameter():
    # ridge along the horizontal diameter: u = 1 - |y|, flat in x
    u = tent_function(diamond(), [(-1.0, 0.0), (1.0, 0.0)])
    assert u.trace.any()
    distinct = np.unique(np.round(u.planes[:, :2], 9), axis=0)
    assert sorted(map(tuple, distinct)) == [(0.0, -1.0), (0.0, 1.0)]
    assert evaluate(u, (0.75, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert evaluate(u, (0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)
    assert evaluate(u, (0.3, -0.4)) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        tent_function(diamond(), [(-0.5, 0.0), (0.5, 0.0)])  # interior ends


def test_tent_with_boundary_ridge_is_distributional():
    u = tent_function(square(), [(0.5, 0.0), (0.5, 1.0)])
    assert u.trace.any()
    distinct = np.unique(np.round(u.planes[:, :2], 9), axis=0)
    assert sorted(map(tuple, distinct)) == [(-2.0, 0.0), (2.0, 0.0)]
    assert evaluate(u, (0.25, 0.77)) == pytest.approx(0.5, abs=1e-12)
    # mean trace 1/2 along the bottom and top edges, none on the sides
    assert u.trace.tolist() == [0.5, 0.0, 0.5, 0.0]


def test_one_sided_tent_degenerates_to_linear_function():
    # ridge along the whole bottom edge: the hull collapses to 1 - y
    tri = triangle(0, 0, 2, 0, 1, 1)
    u = tent_function(tri, [(0.0, 0.0), (2.0, 0.0)])
    assert u.trace.any()
    pts = random_interior_points(keyed_rng(7105), tri, 120)
    assert evaluate(u, pts) == pytest.approx(1.0 - pts[:, 1], abs=1e-12)


@pytest.mark.parametrize("cons", [
    [((math.nan, 0.5), 1.0)],
    [((0.5, 0.5), 1.0), ((0.25, 0.25), math.nan)],
    [((0.5, 0.5), math.inf)],
], ids=["nan-point", "nan-height", "inf-height"])
def test_envelope_rejects_non_finite_inputs(cons):
    # rejected before any arithmetic: no warning, and a message that says so
    with pytest.raises(ValueError, match="must be finite"):
        concave_envelope(square(), cons)


@pytest.mark.parametrize("dom", [square(), disc(512)], ids=["square", "disc"])
def test_envelope_interior_rule_reads_its_slack_table(dom, monkeypatch):
    calls = []
    sbd = ConvexDomain.signed_boundary_distance

    def counted(self, pts):
        calls.append(len(pts))
        return sbd(self, pts)

    monkeypatch.setattr(ConvexDomain, "signed_boundary_distance", counted)
    # points at a signed depth from the middle of edge 0, with a central
    # constraint beside them or not
    a, b = dom.edges()
    mid, n_out = 0.5 * (a[0] + b[0]), dom.edge_normals()[0]
    centre = dom.vertices.mean(axis=0)
    for depth in (-0.1, 0.0, 0.5 * dom.tol):
        pt = mid - depth * n_out
        for cons in ([(pt, 1.0)], [(centre, 1.0), (pt, 0.5)]):
            with pytest.raises(ValueError, match="constraint points must lie "
                               "strictly inside the domain"):
                concave_envelope(dom, cons)
    u = concave_envelope(dom, [(mid - 2 * dom.tol * n_out, 1.0)])
    assert check_partition(u) and check_concavity(u)
    concave_envelope(dom, [(centre, 1.0), (mid - 2 * dom.tol * n_out, 0.5)])
    assert calls == []
    # the count is live: the domain's own test goes through it
    dom.contains(centre[None])
    assert calls == [1]


@pytest.mark.parametrize("segment, height", [
    ([(math.nan, 0.0), (1.0, 1.0)], 1.0),
    ([(0.0, 0.0), (1.0, math.inf)], 1.0),
    ([(0.0, 0.0), (1.0, 1.0)], math.nan),
], ids=["nan-end", "inf-end", "nan-height"])
def test_tent_rejects_non_finite_inputs(segment, height):
    with pytest.raises(ValueError, match="must be finite"):
        tent_function(square(), segment, height)


def test_linear_extremal_triangle_matches_tent():
    tri = triangle(0, 0, 2, 0, 1, 1)
    u = linear_extremal_triangle(tri)
    assert u.trace.any()
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
    with pytest.raises(ValueError, match="omega too large: displaced apex "
                                         "leaves the domain"):
        family_u_omega(square(), (0.0, 0.5), 2.0)
    with pytest.raises(ValueError, match="omega too large: .* inside the "
                                         "interior margin"):
        family_u_omega(square(), (0.0, 0.5), 1.0 - 1e-12)
    with pytest.raises(ValueError):
        family_u_omega(square(), (0.0, 0.5), -0.1)


def test_u_omega_names_a_too_small_omega():
    # walls tilted by 5e-8 (slope 2e7) are not vertical, so the apex moves
    # straight up from the left wall's midpoint: omega = 1e-3 puts it 5e-11
    # from the wall, inside the domain but within its 10*tol margin
    tilted = ConvexDomain([(0, 0), (1, 0), (1 - 5e-8, 1), (-5e-8, 1)])
    anchor = (-2.5e-8, 0.5)
    apex = np.array([anchor[0], anchor[1] + 1e-3])
    depth = tilted.signed_boundary_distance(apex)[0]
    assert 0.0 < depth <= 10 * tilted.tol
    with pytest.raises(ValueError, match="omega too small: displaced apex "
                                         "lies 5e-11 from its edge"):
        family_u_omega(tilted, anchor, 1e-3)
    # larger than the domain, the same anchor leaves it
    with pytest.raises(ValueError, match="omega too large: displaced apex "
                                         "leaves the domain"):
        family_u_omega(tilted, anchor, 2.0)


def _locate_boundary_edge_loop(dom, pt):
    # reference: one edge at a time, a later edge winning only when it is
    # closer by more than 1e-15
    px, py = map(float, pt)
    A, B = (v.tolist() for v in dom.edges())
    best = (math.inf, -1)
    for e, ((ax, ay), (bx, by)) in enumerate(zip(A, B)):
        abx, aby = bx - ax, by - ay
        lam = ((px - ax) * abx + (py - ay) * aby) / (abx * abx + aby * aby)
        lam = min(max(lam, 0.0), 1.0)
        dist = math.hypot(ax + lam * abx - px, ay + lam * aby - py)
        if dist < best[0] - 1e-15:
            best = (dist, e)
    if best[0] > 10 * dom.tol:
        raise ValueError("anchor must lie on the boundary")
    return best[1]


def test_locate_boundary_edge_matches_loop():
    for k, dom in enumerate(corpus_domains(7110, 150) + [disc(512)]):
        A, B = dom.edges()
        for pt in np.concatenate([A, 0.5 * (A + B)]):
            assert _locate_boundary_edge(dom, pt) == \
                _locate_boundary_edge_loop(dom, pt), f"case {k}"
    with pytest.raises(ValueError):
        _locate_boundary_edge(square(), np.array([0.5, 0.5]))


def _locate_boundary_edge_record(dom, pt):
    # reference: the locator's own distances, then a record loop in which a
    # later edge wins only when closer by more than 1e-15
    A, B = dom.edges()
    ab = B - A
    lam = np.clip(dot2(pt - A, ab) / dot2(ab, ab), 0.0, 1.0)
    dist = np.hypot(*(A + lam[:, None] * ab - pt).T)
    best, edge = math.inf, -1
    for e, d in enumerate(dist.tolist()):
        if d < best - 1e-15:
            best, edge = d, e
    if best > dom.margin:
        raise ValueError("anchor must lie on the boundary")
    return edge


def _locator_probe_points(dom, rng):
    # at each of at most 128 evenly strided vertices: the vertex, its edge's
    # midpoint and points 1e-16 to 1e-12 off it along both of its edges;
    # then 20 random edge points, the centroid, and points just within and
    # just beyond the boundary margin off the first edge
    A, B = dom.edges()
    ab = B - A
    unit = ab / dom.edge_lengths()[:, None]
    s = slice(None, None, max(1, dom.n // 128))
    off = 10.0 ** np.arange(-16, -11)[:, None, None]
    fwd = A[s] + off * unit[s]
    back = A[s] - off * np.roll(unit, 1, axis=0)[s]
    k = rng.integers(dom.n, size=20)
    on = A[k] + rng.random(20)[:, None] * ab[k]
    mid0, normal0 = 0.5 * (A[0] + B[0]), dom.edge_normals()[0]
    near = [A.mean(axis=0), mid0 + 0.5 * dom.margin * normal0,
            mid0 + 2 * dom.margin * normal0, mid0 - 2 * dom.margin * normal0]
    return np.concatenate([A[s], 0.5 * (A + B)[s], fwd.reshape(-1, 2),
                           back.reshape(-1, 2), on, near])


def test_locate_boundary_edge_matches_record_loop():
    doms = [disc(n) for n in (3, 4, 5, 6, 7, 8, 9, 16, 17, 64, 127, 128,
                              512, 513, 2048)]
    doms += [square(), diamond(), triangle(0, 0, 2, 0, 1, 1),
             parallelogram(2.0, 1.0)]
    doms += [random_convex_polygon(keyed_rng(seed, k, 0))
             for seed in (42, 7) for k in range(100)]
    raised = 0
    for i, dom in enumerate(doms):
        for pt in _locator_probe_points(dom, np.random.default_rng(i)):
            try:
                want = _locate_boundary_edge_record(dom, pt)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    _locate_boundary_edge(dom, pt)
                raised += 1
                continue
            assert _locate_boundary_edge(dom, pt) == want, f"{dom!r} at {pt}"
    assert raised == 3 * len(doms)


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


def _assert_planes_match_reference(tu, u, lin, shift):
    # reference planes: gradients by the inverse transpose, offsets through
    # each facet's first mapped vertex and its value
    grads = u.planes[:, :2] @ np.linalg.inv(lin)
    v0 = (u.verts @ lin.T + shift)[u.tris[:, 0]]
    z0 = u.vert_values[u.tris[:, 0]] - np.einsum("ij,ij->i", grads, v0)
    ref = np.column_stack([grads, z0])
    assert np.abs(tu.planes - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_transform_preserves_values():
    for k, dom in enumerate(corpus_domains(7108, 10)):
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(7108, k), dom))
        image, lin, shift = affine_normalize(dom)
        tu = transform_function(u, lin, shift, image)
        pts = random_interior_points(keyed_rng(7108, k, 1), dom, 40)
        mapped = pts @ lin.T + shift
        assert evaluate(tu, mapped) == pytest.approx(evaluate(u, pts),
                                                     abs=1e-9), f"case {k}"
        assert check_partition(tu) and check_concavity(tu)
        _assert_planes_match_reference(tu, u, lin, shift)
    with pytest.raises(ValueError):
        transform_function(u, np.array([[1.0, 2.0], [2.0, 4.0]]), shift, image)


@pytest.mark.parametrize("lin", [[[-1.0, 0.0], [0.0, 1.0]],
                                 [[0.0, 1.0], [1.0, 0.0]],
                                 [[0.0, -1.0], [1.0, 0.0]]],
                         ids=["reflect-x", "swap", "rotate"])
def test_transform_keeps_trace_on_its_edges(lin):
    # the mapped tent must equal the tent built directly on the image, also
    # when the map reverses orientation and so the image's vertex order
    lin = np.array(lin)
    shift = np.array([0.25, -0.5])
    disc512 = disc(512)
    cases = [(triangle(0, 0, 3, 0, 0.5, 2), [(0.0, 0.0), (1.75, 1.0)]),
             (disc512, [disc512.vertices[3], disc512.vertices[290]])]
    for dom, seg in cases:
        image = ConvexDomain(dom.vertices @ lin.T + shift)
        u = tent_function(dom, seg)
        tu = transform_function(u, lin, shift, image)
        _assert_planes_match_reference(tu, u, lin, shift)
        direct = tent_function(image, np.asarray(seg) @ lin.T + shift)
        assert tu.trace == pytest.approx(direct.trace, abs=1e-14)
        for h in (E1, E2, Direction.from_angle(0.3)):
            assert lp_directional_norm(tu, h, 1).value == pytest.approx(
                lp_directional_norm(direct, h, 1).value, rel=1e-12)


def test_checks_pass_on_random_envelopes():
    for k, dom in enumerate(corpus_domains(7109, 15)):
        u = build_function(
            dom, random_envelope_descriptor(keyed_rng(7109, k), dom))
        assert check_partition(u), f"case {k}"
        assert check_concavity(u), f"case {k}"
        assert check_vertex_consistency(u), f"case {k}"


# ---------------------------------------------------------------------------
# batched builds
# ---------------------------------------------------------------------------

_BUILD_FIELDS = ("verts", "vert_values", "tris", "planes", "trace",
                 "facet_areas")


def _assert_same_build(u, ref, label):
    for name in _BUILD_FIELDS:
        a, b = getattr(u, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (label, name)
        assert a.tobytes() == b.tobytes(), (label, name)
    assert u.descriptor == ref.descriptor, label


def test_batched_corpus_builds_match_single_builds_bytewise():
    # each corpus case builds its five envelopes as one batch
    for seed in (42, 7):
        for k in range(200):
            case = _case(seed, k)
            for j, u in enumerate(case.envelopes):
                cons = [((x, y), h) for x, y, h in u.descriptor["constraints"]]
                _assert_same_build(u, concave_envelope(case.domain, cons),
                                   f"seed {seed} case {k} envelope {j}")


def _special_sets(dom):
    """Tied edge facets, a tied constraint inside its facet, a plateau of
    many constraints, a cone and a dominated constraint."""
    centre = dom.vertices.mean(axis=0)
    _, plateau = family_u_phi_eps(dom, math.pi / 6, 0.05)
    lo = dom.vertices[:, 1].min()
    return [
        [((x, lo + 0.3), 1.0) for x in (centre[0] - 0.25, centre[0],
                                         centre[0] + 0.25)],
        [((centre[0], centre[1] - 0.1), 1.0),
         ((centre[0] - 0.2, centre[1] - 0.3), 0.5)],
        [(p, 1.0) for p in plateau],
        [(centre, 1.0)],
        [(centre, 1.0), (centre + 0.05, 0.2)],
    ]


def test_batched_special_sets_match_single_builds_bytewise():
    # the special sets in one ragged batch per domain and in the reverse
    # order
    for dom in (square(), disc(64)):
        sets = _special_sets(dom)
        centre = dom.vertices.mean(axis=0)
        # and equal-size batches, which have no padded rows
        cones = [sets[3], [(centre + 0.1, 0.5)]]
        pairs = [sets[1], sets[4]]
        for batch in (sets, sets[::-1], cones, pairs):
            (envs,) = concave_envelope_groups([(dom, batch)])
            for u, cons in zip(envs, batch):
                _assert_same_build(u, concave_envelope(dom, cons), f"{dom}")


def test_ragged_group_matches_single_builds_bytewise():
    # a triangle, the square and a 64-gon, 3, 4 and 64 edges, with the
    # special sets each, in one group call: in this order and reversed,
    # domains and sets both, and with a domain that has no set
    groups = [(dom, _special_sets(dom))
              for dom in (triangle(0, 0, 2, 0, 2, 1.5), square(), disc(64))]
    reverse = [(dom, sets[::-1]) for dom, sets in groups[::-1]]
    for order in (groups, reverse, [(square(), [])] + groups[1:]):
        built = concave_envelope_groups(order)
        assert [len(envs) for envs in built] == [len(s) for _, s in order]
        for (dom, sets), envs in zip(order, built):
            for u, cons in zip(envs, sets):
                assert u.domain is dom
                _assert_same_build(u, concave_envelope(dom, cons), f"{dom}")
    assert concave_envelope_groups([]) == []
    assert concave_envelope_groups([(square(), [])]) == [[]]
    (dom, sets), = groups[:1]
    built = concave_envelope_groups([(square(), []), (dom, sets[:1]),
                                     (disc(64), [])])
    assert [len(envs) for envs in built] == [0, 1, 0]
    _assert_same_build(built[1][0], concave_envelope(dom, sets[0]), "alone")


def test_group_ties_each_set_within_its_own_domains_tol():
    # on a square 1000 across, tol is 1.4e-6, on the unit square 1.4e-9:
    # constraints 1e-7 off a tie are tied on the large domain only, at its
    # bottom edge and on an interior plateau, so a set ties with its own
    # domain's tol or its functions change
    big = ConvexDomain([(0, 0), (1000, 0), (1000, 1000), (0, 1000)])
    big_sets = [
        [((400.0, 300.0), 1.0), ((500.0, 300.0 - 1e-7), 1.0),
         ((600.0, 300.0), 1.0)],
        [((300.0, 300.0), 1.0), ((700.0, 300.0), 1.0 - 1e-7),
         ((700.0, 700.0), 1.0 + 1e-7), ((300.0, 700.0), 1.0)],
    ]
    small = [(square(), _special_sets(square())[:2])]
    for groups in ([(big, big_sets)] + small, small + [(big, big_sets)]):
        for (dom, sets), envs in zip(groups, concave_envelope_groups(groups)):
            for u, cons in zip(envs, sets):
                _assert_same_build(u, concave_envelope(dom, cons), f"{dom}")


@pytest.mark.parametrize("seed", [42, 7, 31337])
def test_corpus_blocks_built_as_one_group_match_per_domain_builds(seed):
    # a verify block builds its envelopes, and cone-mass its cones, with
    # one group call over the block's domains; each domain's functions are
    # the bits of building that domain's sets on their own
    for start in range(0, 200, CASE_BLOCK):
        block = Block.build(seed, range(start, min(start + CASE_BLOCK, 200)))
        cones = _cones(block)
        for case, (dom, sets), built in zip(block, cones,
                                            concave_envelope_groups(cones)):
            label = f"seed {seed} case {case.index}"
            (ref,) = concave_envelope_groups([(dom, sets)])
            assert dom is case.domain and len(built) == len(ref) == 2
            for j, (u, r) in enumerate(zip(built, ref)):
                _assert_same_build(u, r, f"{label} cone {j}")
            sets = [[((x, y), h) for x, y, h in u.descriptor["constraints"]]
                    for u in case.envelopes]
            (ref,) = concave_envelope_groups([(dom, sets)])
            for j, (u, r) in enumerate(zip(case.envelopes, ref)):
                _assert_same_build(u, r, f"{label} envelope {j}")


def test_wrap_returns_each_sets_facets_in_its_own_range(monkeypatch):
    # one wrap call takes three sets over two domains with 4 and 6 edges
    # and gives back one (tris, planes) pair per set.  Each set has its
    # own ring and ids in the wrap's graph, set after set, its points in
    # the frame of its own domain's first vertex, and its domain's tol
    sq, hexagon = square(), disc(6)
    groups = [(sq, [[((0.5, 0.5), 1.0), ((0.3, 0.7), 0.8), ((0.75, 0.3), 0.7)],
                    [((0.5, 0.5), 1.0), ((0.3, 0.7), 0.8)]]),
              (hexagon, [[((0.1, 0.2), 1.0), ((-0.3, -0.2), 0.9),
                          ((0.4, -0.3), 0.8)]])]
    hull, calls = concave.ConvexHull, []

    def record(*args):
        out = hull(*args)
        calls.append((args, [(t.copy(), p.copy()) for t, p in out]))
        return out

    monkeypatch.setattr(concave, "ConvexHull", record)
    concave_envelope_groups(groups)
    (((xy, z, cands, polys, rings, tols), pairs),) = calls
    sets = [(dom, cons) for dom, group in groups for cons in group]
    assert len(pairs) == len(sets) == len(rings) == len(tols)
    base = 0
    for (dom, cons), (tris, planes), ring, tol in zip(sets, pairs, rings,
                                                      tols):
        nb, end = dom.n, base + dom.n + len(cons)
        assert ring == range(base, base + nb) and tol == dom.tol
        pts = np.array([p for p, _ in cons])
        np.testing.assert_array_equal(
            xy[base:end], np.concatenate((dom.vertices, pts)) - dom.vertices[0])
        np.testing.assert_array_equal(z[base + nb:end], [h for _, h in cons])
        assert len(tris) and tris.shape == planes.shape == (len(tris), 3)
        assert tris.min() >= base and tris.max() < end
        assert (tris >= base + nb).any()
        base = end
    assert len(xy) == base


def test_batch_raises_as_its_failing_set_alone():
    dom = square()
    good = [((0.5, 0.5), 1.0), ((0.3, 0.7), 0.8)]
    assert concave_envelope_groups([(dom, [])]) == [[]]
    for bad, match in (([], "need at least one constraint"),
                       ([((math.nan, 0.5), 1.0)], "must be finite"),
                       ([((0.5, 0.5), 0.0)], "heights must be positive"),
                       ([((1.5, 0.5), 1.0)], "strictly inside")):
        with pytest.raises(ValueError, match=match):
            concave_envelope(dom, bad)
        with pytest.raises(ValueError, match=match):
            concave_envelope_groups([(dom, [good, bad])])


def test_group_raises_as_its_failing_set_alone():
    # a set that fails on a later domain makes the group raise what it
    # raises alone: (0.5, 0.5) lies inside the square, outside the triangle
    sq, tri = square(), triangle(0, 0, 1, 0, 0, 0.4)
    good = [((0.5, 0.5), 1.0), ((0.3, 0.7), 0.8)]
    fits = [((0.2, 0.1), 1.0)]
    for bad, match in (([], "need at least one constraint"),
                       ([((math.nan, 0.1), 1.0)], "must be finite"),
                       ([((0.2, 0.1), 0.0)], "heights must be positive"),
                       ([((0.5, 0.5), 1.0)], "strictly inside")):
        with pytest.raises(ValueError, match=match):
            concave_envelope(tri, bad)
        for groups in ([(sq, [good, good]), (tri, [fits, bad])],
                       [(tri, [bad]), (sq, [good])]):
            with pytest.raises(ValueError, match=match):
                concave_envelope_groups(groups)
    assert concave_envelope_groups([(sq, [good]), (tri, [fits])])


def _exact_grid(values):
    """Integers n_i and a common denominator d with values_i = n_i / d
    exactly: every float is an integer over a power of two."""
    ratios = [float(x).as_integer_ratio() for x in values]
    d = max(q for _, q in ratios)
    return [n * (d // q) for n, q in ratios], d


def test_corpus_envelopes_are_exactly_concave_with_exact_l1_norms():
    # the vertices, heights and triangles of an envelope are exact
    # rationals, so its concavity and its facet sums are exact too.  Per
    # facet, with D = 2 x its signed area, d_x u = Nx / D and d_y u = Ny / D;
    # the float components of a direction h are exact rationals as well, so
    # d_h u = h_x d_x u + h_y d_y u = M / D, and ||d_h u||_1 = sum |M| / 2,
    # ||d_h u||_2^2 = sum M^2 / (2 |D|) and ||d_h u||_inf = max |M / D|
    dirs = [E1, E2] + [Direction.from_angle(t) for t in (0.3, 1.1, 2.5)]
    for k in range(0, 200, 10):
        for u in _case(42, k).envelopes:
            X, dx = _exact_grid(u.verts[:, 0])
            Y, dy = _exact_grid(u.verts[:, 1])
            Z, dz = _exact_grid(u.vert_values)
            pts = list(zip(X, Y, Z))
            facets = []
            for a, b, c in u.tris.tolist():
                (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = pts[a], pts[b], pts[c]
                ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
                wx, wy, wz = x2 - x0, y2 - y0, z2 - z0
                D = ux * wy - uy * wx                   # units 1 / (dx dy)
                Nx = uz * wy - wz * uy                  # units 1 / (dz dy)
                Ny = ux * wz - wx * uz                  # units 1 / (dx dz)
                facets.append((D, Nx, Ny))
                # q lies on or below the plane when, in units
                # 1 / (dx dy dz), D (z_q - z0) - Nx (x_q - x0) - Ny (y_q - y0)
                # has the sign of -D or is zero
                for xq, yq, zq in pts:
                    side = D * (zq - z0) - Nx * (xq - x0) - Ny * (yq - y0)
                    assert side * D <= 0, (k, desc)
            for h in dirs:
                (HX, HY), dh = _exact_grid([h.dx, h.dy])
                # M in units 1 / (dx dy dz dh): d_x u = Nx dx / (D dz)
                Ms = [(HX * Nx * dx + HY * Ny * dy, D) for D, Nx, Ny in facets]
                unit = dx * dy * dz * dh
                l1 = Fraction(sum(abs(M) for M, _ in Ms), 2 * unit)
                l2 = sum(Fraction(M * M, 2 * abs(D)) for M, D in Ms) \
                    * Fraction(1, unit * dz * dh)
                sup = max(Fraction(abs(M), abs(D)) for M, D in Ms) \
                    * Fraction(1, dz * dh)
                for p, exact in ((1, l1), (2, l2), (math.inf, sup)):
                    got = Fraction(lp_directional_norm(u, h, p).value)
                    if p == 2:
                        got *= got
                    assert abs(got - exact) <= Fraction(1, 10 ** 12) * exact, \
                        (k, desc, h, p)


# ---------------------------------------------------------------------------
# builds against the earlier array expressions, byte for byte
# ---------------------------------------------------------------------------


def _facet_areas_reference(u):
    tri_pts = u.verts[u.tris]                       # (F, 3, 2)
    return 0.5 * np.abs(
        cross2(tri_pts[:, 1] - tri_pts[:, 0], tri_pts[:, 2] - tri_pts[:, 0]))


def _fan_triangulate_reference(poly, offset):
    k = int(np.lexsort((poly[:, 1], poly[:, 0]))[0])
    order = np.roll(np.arange(len(poly)), -k) + offset
    return np.column_stack([np.full(len(poly) - 2, order[0]), order[1:-1],
                            order[2:]])


def _polygon_area_reference(poly):
    if len(poly) < 3:
        return 0.0
    rel = poly - poly[0]
    return 0.5 * float(cross2(rel, np.roll(rel, -1, axis=0)).sum())


def _tent_sides(u):
    """A tent's side polygons: its vertices, cut after the first side's
    fan, whose triangles share the first plane."""
    n0 = int((u.planes == u.planes[0]).all(axis=1).sum()) + 2
    return [u.verts[:n0], u.verts[n0:]] if n0 < len(u.verts) else [u.verts]


def _reference_builds():
    for seed in (42, 7):
        for k in range(40):
            case = _case(seed, k)
            yield from case.envelopes
    dom = disc(512)
    for p in (1.0, 2.0):
        for desc in _candidates(dom, p, E1, E2, 200, 42):
            try:
                yield build_function(dom, desc)
            except ValueError:
                continue


def test_builds_match_the_reference_expressions_bytewise():
    kinds = {}
    for u in _reference_builds():
        kind = u.descriptor["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        assert u.facet_areas.tobytes() == _facet_areas_reference(u).tobytes()
        if kind != "tent":
            continue
        sides = _tent_sides(u)
        offsets = np.cumsum([0] + [len(poly) for poly in sides[:-1]])
        fans = [_fan_triangulate_reference(poly, off)
                for poly, off in zip(sides, offsets.tolist())]
        assert u.tris.tobytes() == np.concatenate(fans).tobytes()
        for poly, off, fan in zip(sides, offsets.tolist(), fans):
            assert _fan_triangulate(poly, off).tobytes() == fan.tobytes()
            assert (_polygon_area(poly).hex()
                    == _polygon_area_reference(poly).hex())
    assert kinds["envelope"] > 2 * 40 * ENVELOPES_PER_CASE
    assert kinds["tent"] >= 100 and kinds["u-omega"] >= 1


@pytest.mark.parametrize("poly, start", [
    ([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 1),
    ([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], 1),
    ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]], 0),
], ids=["shared-lowest-x", "tie-in-both", "tie-across-the-seam"])
def test_fan_starts_at_lowest_x_then_lowest_y_then_lowest_index(poly, start):
    poly = np.array(poly)
    fan = _fan_triangulate(poly, 5)
    assert fan.tobytes() == _fan_triangulate_reference(poly, 5).tobytes()
    assert np.all(fan[:, 0] == start + 5)
    assert _polygon_area(poly).hex() == _polygon_area_reference(poly).hex()
