"""Concave piecewise-linear functions on convex polygon domains.

A function is stored as a triangulated graph: facet triangles with plane
coefficients (gx, gy, z0).  Because the function is concave, its value
anywhere equals the minimum over all facet planes, which gives exact
evaluation without point location; the active plane identifies the
gradient.  Functions are immutable once built.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate
from operator import add

import numpy as np

from .facets import active_gradients, segments
from .geometry import (
    ConvexDomain,
    Direction,
    _edge_slope,
    cross2,
    dot2,
    vertical_support_classification,
)
from .hull import _chain, _fan, _interior_facets, _polygon_ccw

PROFILE_LINES = 33          # scan lines per profile of max_profiles


class ConcaveFunction:
    """Concave PL function vanishing-or-jumping on the domain boundary.

    trace[e] is the mean of the boundary trace along domain edge e.  A
    zero trace means the function vanishes on the boundary (the classical
    case); a nonzero one means it jumps there, and first-order derivative
    norms acquire a singular (jump) part along the boundary.
    """

    def __init__(self, domain, verts, vert_values, tris, planes, trace,
                 descriptor):
        self.domain = domain
        self.verts = np.asarray(verts, dtype=float)
        self.vert_values = np.asarray(vert_values, dtype=float)
        self.max_value = float(self.vert_values.max())
        self.tris = np.asarray(tris, dtype=np.int64)
        self.planes = np.asarray(planes, dtype=float)
        self.trace = np.asarray(trace, dtype=float)
        self.descriptor = dict(descriptor)
        # one coordinate gathered at a time: (F, 3) each
        X, Y = self.verts[:, 0][self.tris], self.verts[:, 1][self.tris]
        xa, ya = X[:, 0], Y[:, 0]
        self.facet_areas = 0.5 * np.abs((X[:, 1] - xa) * (Y[:, 2] - ya)
                                        - (Y[:, 1] - ya) * (X[:, 2] - xa))

    @cached_property
    def facet_on_boundary(self) -> np.ndarray:
        """Facets with a vertex on the domain boundary."""
        dom = self.domain
        bd = np.abs(dom.signed_boundary_distance(self.verts)) <= dom.margin
        return bd[self.tris].any(axis=1)

    @property
    def n_facets(self) -> int:
        return len(self.tris)

    def __repr__(self):
        return (f"ConcaveFunction({self.descriptor.get('kind', '?')}, "
                f"{self.n_facets} facets)")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(u: ConcaveFunction, pts):
    """Exact values at points inside the domain (min over facet planes)."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = u.domain.contains(arr, u.domain.margin)
    if not np.all(inside):
        raise ValueError("evaluation point outside the domain")
    vals = plane_values(u, arr).min(axis=1)
    if np.ndim(pts) == 1:
        return float(vals[0])
    return vals


def plane_values(u: ConcaveFunction, arr: np.ndarray) -> np.ndarray:
    return dot2(arr[:, None, :], u.planes[:, :2]) + u.planes[:, 2]


def gradient_at(u: ConcaveFunction, pt) -> np.ndarray:
    """Gradient at a point where the active planes agree (within
    ``facets.TIE`` of the minimum, gradients within ``facets.AGREE``, by
    :func:`facets.active_gradients`) inside the domain widened by its
    margin; raises on facet edges and vertices and outside the domain."""
    pts = np.asarray(pt, dtype=float)[None, :]
    _, grads, agree = active_gradients(u.planes, [0], pts, [0])
    if not (agree[0] and u.domain.contains(pts, u.domain.margin)[0]):
        raise ValueError("gradient undefined: the point is on a facet edge "
                         "or vertex, or outside the domain")
    return grads[0]


def chord_maxima(u: ConcaveFunction, P0: np.ndarray, P1: np.ndarray):
    """Exact maxima of u along many segments, in closed form.

    u is affine on each facet, so along a segment it is piecewise linear
    with breakpoints only where the segment crosses a mesh edge; the maximum
    is at one of those crossings or at an end of the segment.  Crossings
    are accepted with a 1e-12 slack in both parameters, so a segment through
    a mesh vertex cannot miss it by rounding.  Returns (maxima, t_star) with
    t_star in [0, 1] along each segment.
    """
    # mesh edges (a, b) with a < b, sorted, deduplicated by the code a V + b
    ends = u.tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    nv = len(u.verts)
    ea, eb = np.divmod(np.unique(ends.min(axis=1) * nv + ends.max(axis=1)), nv)
    A = u.verts[ea]
    f = u.verts[eb] - A                                # (E, 2)
    d = P1 - P0                                        # (L, 2)
    w = A[None, :, :] - P0[:, None, :]                 # (L, E, 2)
    # P0 + s d = A + mu f, solved by cross products; parallel pairs skipped
    den = cross2(d[:, None, :], f[None, :, :])
    par = den == 0.0
    den = np.where(par, 1.0, den)
    s = cross2(w, f[None, :, :]) / den
    mu = cross2(w, d[:, None, :]) / den
    lo, hi = -1e-12, 1.0 + 1e-12
    hit = ~par & (s >= lo) & (s <= hi) & (mu >= lo) & (mu <= hi)
    za, zb = u.vert_values[ea], u.vert_values[eb]
    z = np.where(hit, za + np.clip(mu, 0.0, 1.0) * (zb - za), -np.inf)
    L = len(P0)
    vals = np.column_stack([plane_values(u, P0).min(axis=1),
                            plane_values(u, P1).min(axis=1), z])
    ts = np.column_stack([np.zeros(L), np.ones(L), np.clip(s, 0.0, 1.0)])
    k = vals.argmax(axis=1)
    rows = np.arange(L)
    return vals[rows, k], ts[rows, k]


def _gather(start, n, fn) -> tuple:
    """The elements of function ``fn[i]`` for each profile i in turn, of
    ``n`` elements of which function k owns those from ``start[k]`` on:
    (each profile's first position, each position's profile, its element)."""
    count = np.diff(np.append(start, n))[fn]
    first, prof = segments(count)
    return first, prof, np.arange(len(prof)) + np.repeat(start[fn] - first,
                                                        count)


def _support_projections(verts, vstart, fn, normals, tol) -> tuple:
    """Each profile's vertices projected onto its normal, those within tol
    of its support values lo, hi (their extremes) snapped onto them, for
    :func:`chord_max_hulls` and :func:`max_profiles`: (t, prof, idx,
    pstart, lo, hi), as :func:`_gather` and the support values."""
    vstart, fn = np.asarray(vstart), np.asarray(fn)
    normals = np.broadcast_to(normals, fn.shape + (2,))
    tol = np.broadcast_to(tol, fn.shape)
    pstart, prof, idx = _gather(vstart, len(verts), fn)
    t = dot2(verts[idx], normals[prof])
    lo, hi = np.minimum.reduceat(t, pstart), np.maximum.reduceat(t, pstart)
    t = np.where(t <= (lo + tol)[prof], lo[prof], t)
    t = np.where(t >= (hi - tol)[prof], hi[prof], t)
    return t, prof, idx, pstart, lo, hi


def chord_max_hulls(verts, values, vstart, fn, normals, tol) -> tuple:
    """Breakpoints (t, m) of many full-chord maximum profiles,
    m(t) = max{u(x) : x . normal = t}, each of its own function.

    The functions' meshes come concatenated, as :func:`norms.line_masses`
    takes them: function k owns the ``verts`` and their ``values`` from
    ``vstart[k]`` on.  Profile i is that of function ``fn[i]`` across
    ``normals[i]``, with the tolerance ``tol[i]`` of its domain; normals
    and tol may also be one for all profiles.

    The hypograph of u is a convex polytope whose top vertices are the
    lifted mesh vertices, and those include every domain vertex.  Its
    projection onto (x . normal, z) is bounded above by the upper hull of
    the projected vertices (v . normal, u(v)), so m is that hull: a concave
    polyline over the whole projection range, found by one monotone chain
    (Andrew 1979), :func:`hull._chain`.  It reads vertex values only,
    never facet planes.  The ends of a support edge can project a
    rounding apart, so projections within tol of the two support values
    are snapped onto them (:func:`_support_projections`): the highest
    vertex on each support line then stays on the hull.

    The projection, the snapping, the sort and the highest-at-equal-t
    filter are one array pass over all profiles; the chain runs on each
    profile's slice of one list of points.  Every step is elementwise or
    within one profile, so a profile's hull does not depend on the other
    profiles of the batch.  Returns (t, m, cut): the breakpoints of every
    profile, in order, with profile i's at ``cut[i]:cut[i + 1]``.
    """
    t, prof, idx, _, _, _ = _support_projections(verts, vstart, fn, normals,
                                                 tol)
    z = values[idx]
    # by profile first, and prof is already sorted, so it stays as it is
    order = np.lexsort((z, t, prof))
    t, z = t[order], z[order]
    # at equal t only the highest point can lie on the hull
    top = np.append((t[1:] != t[:-1]) | (prof[1:] != prof[:-1]), True)
    t, z = t[top], z[top]
    ends = np.cumsum(np.bincount(prof[top], minlength=len(fn))).tolist()
    # the upper hull of (t, z) is the lower chain of (t, -z); negating z is
    # exact, so every pop is the same comparison an upper chain would make
    pts = list(zip(t.tolist(), (-z).tolist()))
    keep, cut = [], [0]
    for a, b in zip([0] + ends[:-1], ends):
        keep += _chain(pts, range(a, b), 0.0)
        cut.append(len(keep))
    return t[keep], z[keep], cut


def max_profiles(verts, values, tris, fstart, vstart, fn, normals,
                 tol) -> tuple:
    """Chord maxima of many profiles at PROFILE_LINES offsets t spanning
    each support range: (t, m), each (profiles, PROFILE_LINES).  The
    arguments, support values and snapping are those of
    :func:`chord_max_hulls`; function k also owns ``tris`` from
    ``fstart[k]`` on.  Along a chord u is piecewise linear with
    breakpoints on mesh edges, so the maximum on the line x . normal = t
    is the largest value interpolated along the triangle sides whose
    projections span t.  A side parallel to the lines is skipped: its ends
    are ends of the facet's other sides.  Each line is one pass over all
    the profiles' sides, so memory stays linear in the sides.
    """
    t, _, _, pstart, lo, hi = _support_projections(verts, vstart, fn,
                                                   normals, tol)
    fn = np.asarray(fn)
    ts = np.linspace(lo, hi, PROFILE_LINES, axis=1)
    fpos, fprof, facet = _gather(np.asarray(fstart), len(tris), fn)
    # the sides (a, b) of each facet, their ends shifted to positions in t
    a, shift = tris[facet], (pstart - np.asarray(vstart)[fn])[fprof, None]
    b = a[:, [1, 2, 0]]
    ta, za = t[a + shift].ravel(), values[a].ravel()
    span, dz = t[b + shift].ravel() - ta, values[b].ravel() - za
    del a, b, shift     # the side arrays kept below are the pass's memory
    # nan fails both range tests below, so parallel sides drop out
    span[span == 0.0] = np.nan
    sprof, ms = np.repeat(fprof, 3), np.empty(ts.shape)
    for j, tj in enumerate(ts.T):
        # za + lam dz on the sides that span line j, else -inf, in place
        lam = tj[sprof]
        lam -= ta
        lam /= span
        off = ~((lam >= 0.0) & (lam <= 1.0))
        lam *= dz
        lam += za
        lam[off] = -np.inf
        ms[:, j] = np.maximum.reduceat(lam, 3 * fpos)
    return ts, ms


# ---------------------------------------------------------------------------
# upper convex hull envelope
# ---------------------------------------------------------------------------


# bench/spans.py times the wrap through the name of the qhull call it
# replaced, so the builder calls it by that name
ConvexHull = _interior_facets


def concave_envelope(dom: ConvexDomain, constraints) -> ConcaveFunction:
    """Least concave function that vanishes on the boundary and dominates
    the given interior heights; its graph is the 3D upper convex hull of
    the boundary ring at height zero plus the constraint points.

    constraints: iterable of ((x, y), height) with strictly interior points
    and positive heights.  Constraints that end up below the hull of the
    others are strictly exceeded rather than active.  It is the batch of
    one of :func:`concave_envelope_groups`, which says how it is built.
    """
    return concave_envelope_groups([(dom, [constraints])])[0][0]


def _edge_facets(pts, hts, sdom, nbset, tol, first, gset) -> tuple:
    """The facet over each domain edge of each set, for
    :func:`concave_envelope_groups`: set k is over ``sdom[k]``, with
    ``nbset[k]`` edges and tol ``tol[k]``, and owns the constraints
    ``pts``, ``hts`` from ``first[k]`` on; group g holds the sets
    ``gset[g]:gset[g + 1]``.

    Column ``colstart[k] + e`` is set k's edge e.  The slack table has a
    row per constraint of the longest set: set k's constraints fill the
    top of its columns, each against its own domain's edges.  It is padded
    to the most edges of any domain, and a shorter set's rows after its
    real ones, at infinite slack and zero height, which never win a
    maximum nor tie; each column ties within its own domain's tol.
    Returns the edge facets' triangles, in each set's own ids [ring, its
    constraints], and planes, the tie table, the columns with one tied
    constraint and each column's previous and next column.  The tables,
    a batch's largest arrays, die with the call.
    """
    colstart = list(accumulate(nbset, initial=0))
    # slack[i, e] of constraint i at edge e of its domain, one part per
    # group, taken from the difference rather than as the edge offset minus
    # n_e . a, which cancels for points near the boundary; its row minimum
    # is the distance to the boundary
    parts, spans = [], []
    for j, k in zip(gset, gset[1:]):
        if j == k:
            continue
        spans.append((j, k))
        a, b, dom = first[j], first[k], sdom[j]
        v, n = dom.vertices, dom.edge_normals()
        parts.append(n[:, 0] * (v[:, 0] - pts[a:b, :1])
                     + n[:, 1] * (v[:, 1] - pts[a:b, 1:]))
        if parts[-1].min() <= dom.tol:
            raise ValueError("constraint points must lie strictly inside "
                             "the domain")
    # one set keeps its own layout: its ring's columns, one domain's tol
    slack, height, nbcol, coltol = parts[0], hts[:, None], nbset[0], tol[0]
    normals, offsets = sdom[0].edge_normals(), sdom[0].edge_offsets()
    col = np.arange(colstart[-1])
    prev, nxt = col - 1, col + 1           # the columns of edges e - 1, e + 1
    nxt[-1] = 0
    ends = col, nxt                        # the edge ids in a set's own ids
    if len(sdom) > 1:
        counts = np.diff(first)
        rows = counts.max()
        real = np.arange(rows) < counts[:, None]                 # (S, rows)
        table = np.full((len(sdom), rows, max(nbset)), np.inf)
        for part, (j, k) in zip(parts, spans):
            table[j:k, :, :nbset[j]][real[j:k]] = part
        height = np.zeros(real.shape)
        height[real] = hts
        nb = np.array(nbset)
        edge = np.arange(table.shape[2]) < nb[:, None]
        slack = table.transpose(1, 0, 2).reshape(rows, -1)[:, edge.ravel()]
        height = np.repeat(height.T, nb, axis=1)
        # each column's set's first column, edge count and tol
        lo = np.array(colstart[:-1])
        start, nbcol, coltol = (np.repeat(x, nb) for x in (lo, nb, tol))
        prev[lo] += nb
        nxt[lo + nb - 1] = lo
        ends = col - start, nxt - start
        normals = np.concatenate([dom.edge_normals() for dom in sdom])
        offsets = np.concatenate([dom.edge_offsets() for dom in sdom])
    ratio = height / slack                                     # (rows, columns)
    top = ratio.argmax(axis=0)
    s = ratio.max(axis=0)
    tied = slack - height / s <= coltol
    single = tied.sum(axis=0) == 1
    # edge facet e of a set is [e, e + 1, apex] on the plane s_e (-n_e, c_e),
    # in the set's own ids [ring, its constraints]
    edge_tris = np.empty((len(col), 3), dtype=np.int64)
    edge_tris[:, 0], edge_tris[:, 1], edge_tris[:, 2] = *ends, nbcol + top
    edge_planes = np.empty((len(col), 3))
    np.multiply(-s, normals[:, 0], out=edge_planes[:, 0])
    np.multiply(-s, normals[:, 1], out=edge_planes[:, 1])
    np.multiply(s, offsets, out=edge_planes[:, 2])
    return edge_tris, edge_planes, tied, single, prev, nxt


def concave_envelope_groups(groups) -> list:
    """The :func:`concave_envelope` of each constraint set of each group
    ``(domain, constraint_sets)``, built in one batched pass: one list per
    group, bit for bit the functions that building each set alone gives.

    The facet over edge e is closed form.  With the slack
    d_e(a) = n_e . (v_e - a), its plane vanishes on the edge with slope
    s_e = max_i H_i / d_e(a_i).  When several constraints lie on that plane
    (within tol of its level line at their height), the facet is one
    polygon through the edge and the extreme ones, and its tie set is the
    constraints that are vertices of it.  An upper facet with two ring
    vertices has them adjacent, so it is an edge facet; any other facet has
    at most one ring vertex, where the tie sets of the two edges differ (a
    switch vertex).  So the other facets are wrapped outward from the edge
    facets over the constraints plus the switch vertices only (see
    :func:`_interior_facets`), in a frame local to the first domain
    vertex.  One constraint has no switch vertex and gives the cone over
    the ring.

    The sets share every array pass, whatever their domains: the edge
    facets (:func:`_edge_facets`), the switch vertices and every round of
    one wrap (called as ``ConvexHull``) over the frontiers of every set
    that has switch vertices.  In the wrap's graph each set has its own
    points [its domain's ring, its constraints], set after set, shifted by
    its domain's first vertex, and its domain's tol, so every float is the
    one a lone build computes.  Each facet goes to its set's own list as
    it is made, in that set's ids: its single edge facets, then its tied
    edge facets, then its wrapped facets.  A batch of one keeps the one-set
    array layout.  A set that fails makes the batch raise the ValueError
    that building it alone raises.
    """
    # set k is over sdom[k], with nbset[k] edges and tol[k]; group g holds
    # the sets gset[g]:gset[g + 1]
    sets, sdom, nbset, tol, gset = [], [], [], [], [0]
    for dom, group in groups:
        for cons in group:
            sets.append([(float(p[0]), float(p[1]), float(h))
                         for p, h in cons])
        n = len(sets) - gset[-1]
        sdom += [dom] * n
        nbset += [dom.n] * n
        tol += [dom.tol] * n
        gset.append(len(sets))
    if not all(sets):
        raise ValueError("need at least one constraint")
    if not sets:
        return [[] for _ in gset[1:]]
    con = np.array([c for cons in sets for c in cons])     # rows (x, y, height)
    if not np.isfinite(con).all():
        raise ValueError("constraint points and heights must be finite")
    pts, hts = con[:, :2], con[:, 2]
    if hts.min() <= 0.0:
        raise ValueError("constraint heights must be positive")

    first = list(accumulate(map(len, sets), initial=0))   # set k's rows
    colstart = list(accumulate(nbset, initial=0))
    edge_tris, edge_planes, tied, single, prev, nxt = _edge_facets(
        pts, hts, sdom, nbset, tol, first, gset)
    # the wrap's graph points are set after set, each in its own ids [ring,
    # its constraints]: set k's own id i is base[k] + i there, and its ring
    # vertex of column i is i + first[k].  tris[k] and planes[k] gather its
    # facets but its single edge facets, polys[k] its tied edge facets
    base = list(map(add, colstart, first))
    ring_z = np.zeros(max(nbset))
    xy, z, tris, planes, polys = [], [], [], [], []
    for k, dom in enumerate(sdom):
        rows = slice(first[k], first[k + 1])
        xy += dom.vertices, pts[rows]
        z += ring_z[:dom.n], hts[rows]
        tris.append([])
        planes.append([])
        polys.append([])
    points, z = np.concatenate(xy), np.concatenate(z)
    # set k's single edge facets follow its first colstart[k] columns but
    # their tied ones
    tied_cols = (~single).nonzero()[0].tolist()
    cut = [c - bisect_left(tied_cols, c) for c in colstart]
    # compress: a boolean index of a 2-d array costs several times more
    kept_tris = edge_tris.compress(single, axis=0)
    kept_planes = edge_planes.compress(single, axis=0)
    for i in tied_cols:
        k = bisect_right(colstart, i) - 1
        nb, off = nbset[k], base[k]
        ids = np.concatenate([edge_tris[i, :2], nb + np.flatnonzero(tied[:, i])])
        poly = ids[_polygon_ccw(points[off + ids] - points[off + ids[0]],
                                tol[k])]
        # a tied constraint that is no vertex of the polygon must not make a
        # switch vertex: with it the reduced hull can come out flat
        tied[:, i] = False
        tied[poly[poly >= nb] - nb, i] = True
        poly, fan = _fan(poly.tolist())
        polys[k].append([off + a for a in poly])
        tris[k].append(np.array(fan, dtype=np.int64).reshape(-1, 3))
        planes[k].append(np.tile(edge_planes[i], (len(fan) // 3, 1)))
    change = (tied != tied.take(prev, axis=1)).any(axis=0)
    switch = change.nonzero()[0]
    if len(switch):
        cands = [[] for _ in sets]
        for i in switch.tolist():
            k = bisect_right(colstart, i) - 1
            cands[k].append(i + first[k])
        # the edge facets at a switch vertex first, then the tied ones
        near = [[] for _ in sets]
        at = ((change | change[nxt]) & single).nonzero()[0]
        for i, facet in zip(at.tolist(), edge_tris[at].tolist()):
            k = bisect_right(colstart, i) - 1
            near[k].append([base[k] + a for a in facet])
        wrap = [k for k, c in enumerate(cands) if c]
        # each set in the frame of its domain's first vertex
        v0 = points[base[:-1]]
        shift = np.repeat(v0, [b - a for a, b in zip(base, base[1:])], axis=0)
        # called as ConvexHull: see the note at its definition
        inner = ConvexHull(
            points - shift, z,
            [cands[k] + list(range(base[k] + nbset[k], base[k + 1]))
             for k in wrap],
            [near[k] + polys[k] for k in wrap],
            [range(base[k], base[k] + nbset[k]) for k in wrap],
            [tol[k] for k in wrap])
        for k, (inner_tris, inner_planes) in zip(wrap, inner):
            inner_planes[:, 2] -= dot2(inner_planes[:, :2], v0[k])
            tris[k].append(inner_tris - base[k])
            planes[k].append(inner_planes)
    out = []
    for k, (cons, dom) in enumerate(zip(sets, sdom)):
        own, own_z = points[base[k]:base[k + 1]], z[base[k]:base[k + 1]]
        set_tris = np.concatenate([kept_tris[cut[k]:cut[k + 1]]] + tris[k])
        used = np.zeros(len(own), dtype=bool)
        used[set_tris] = True
        if not used.all():
            set_tris = (np.cumsum(used) - 1)[set_tris]
            own, own_z = own[used], own_z[used]
        fn = ConcaveFunction(
            domain=dom,
            verts=own,
            vert_values=own_z,
            tris=set_tris,
            planes=np.concatenate([kept_planes[cut[k]:cut[k + 1]]]
                                  + planes[k]),
            trace=np.zeros(dom.n),
            descriptor={"kind": "envelope",
                        "constraints": [list(c) for c in cons]},
        )
        if not check_partition(fn):
            raise ValueError("upper hull does not triangulate the domain")
        out.append(fn)
    return [out[a:b] for a, b in zip(gset, gset[1:])]


# ---------------------------------------------------------------------------
# tents and linear extremals (nonzero boundary trace)
# ---------------------------------------------------------------------------


def _fan_triangulate(poly: np.ndarray, offset: int) -> np.ndarray:
    """Fan triangles from the vertex of lowest x, then lowest y, then lowest
    index, with vertex ids shifted by offset."""
    low = (poly[:, 0] == poly[:, 0].min()).nonzero()[0]
    k = int(low[poly[low, 1].argmin()])
    ids = np.arange(offset, offset + len(poly))
    order = np.concatenate((ids[k:], ids[:k]))
    fan = np.empty((len(poly) - 2, 3), dtype=np.int64)
    fan[:, 0] = order[0]
    fan[:, 1] = order[1:-1]
    fan[:, 2] = order[2:]
    return fan


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    rel = poly - poly[0]
    return 0.5 * float(cross2(rel, np.concatenate((rel[1:], rel[:1]))).sum())


def tent_function(dom: ConvexDomain, segment, height: float = 1.0) -> ConcaveFunction:
    """Tent of given height over a chord: equal to height on the segment,
    affine on each side, vanishing on the support lines parallel to it.

    Both endpoints must lie on the boundary.  A segment lying along a
    boundary edge is allowed as the degenerate one-sided case (then the
    function is a single affine piece, positive on that edge).
    """
    ends = np.array([segment[0], segment[1]], dtype=float)
    if not (np.isfinite(ends).all() and math.isfinite(height)):
        raise ValueError("tent segment ends and height must be finite")
    if height <= 0:
        raise ValueError("tent height must be positive")
    p, q = ends
    if np.hypot(*(q - p)) <= dom.tol:
        raise ValueError("tent segment endpoints must be distinct")
    if np.abs(dom.signed_boundary_distance(ends)).max() > dom.margin:
        raise ValueError("tent segment endpoints must lie on the boundary")

    n = Direction.of(*(q - p)).perp().as_array()
    s0 = float(dot2(p, n))
    A, B = dom.edges()
    proj = dot2(A, n)
    smin, smax = float(proj.min()), float(proj.max())
    tol = dom.tol

    # one split of the boundary ring by the line: each vertex is followed
    # by the point where its outgoing edge changes side.  The mesh takes
    # only those on edges that run from beyond tol on one side to beyond
    # tol on the other, and a vertex within tol of the line goes to both
    # sides.  The trace bends at every such point: a bend next to a vertex
    # within tol is worth up to tol times the steeper side's slope
    s = proj - s0
    s_next = np.concatenate((s[1:], s[:1]))
    bend = np.flatnonzero(s * s_next < 0.0)
    lam = s[bend] / (s[bend] - s_next[bend])
    ring = np.empty((len(s), 2, 2))     # a point [e, 1] is set at bends only
    ring[:, 0] = A
    ring[bend, 1] = A[bend] + lam[:, None] * (B[bend] - A[bend])
    pick = np.zeros((len(s), 2), dtype=bool)
    pick[bend, 1] = (np.abs(s[bend]) > tol) & (np.abs(s_next[bend]) > tol)

    verts_list = []
    fans = []
    sides = []
    for above, present in ((False, s0 - smin > dom.margin),
                           (True, smax - s0 > dom.margin)):
        if not present:
            continue
        pick[:, 0] = s >= -tol if above else s <= tol
        poly = ring[pick]
        step = poly[1:] - poly[:-1]
        poly = poly[np.concatenate(([True], np.hypot(*step.T) > tol))]
        while len(poly) > 1 and np.hypot(*(poly[-1] - poly[0])) <= tol:
            poly = poly[:-1]
        if _polygon_area(poly) <= tol:
            continue
        if above:
            g = -height / (smax - s0) * n
            z0 = height * smax / (smax - s0)
        else:
            g = height / (s0 - smin) * n
            z0 = -height * smin / (s0 - smin)
        offset = sum(len(v) for v in verts_list)
        fans.append(_fan_triangulate(poly, offset))
        sides.append((g[0], g[1], z0))
        verts_list.append(poly)
    if not fans:
        raise ValueError("tent segment does not meet the domain interior")

    verts = np.concatenate(verts_list)
    sides = np.array(sides)
    planes = np.repeat(sides, [len(f) for f in fans], axis=0)
    # min over the one or two side planes, the first and last columns, at
    # the mesh vertices, then the ring vertices and the bends
    pts = np.concatenate((verts, A, ring[bend, 1]))
    vals = dot2(pts[:, None, :], sides[:, :2]) + sides[:, 2]
    vert_values, fa, fx = np.split(np.minimum(vals[:, 0], vals[:, -1]),
                                   [len(verts), len(verts) + dom.n])

    # trace[e] is the mean of min-of-planes along edge e: one trapezoid, or
    # two at a bend
    fb = np.concatenate((fa[1:], fa[:1]))
    trace = 0.5 * (fa + fb)
    trace[bend] = (lam * 0.5 * (fa[bend] + fx)
                   + (1.0 - lam) * 0.5 * (fx + fb[bend]))
    return ConcaveFunction(
        domain=dom, verts=verts, vert_values=vert_values,
        tris=np.concatenate(fans), planes=planes, trace=trace,
        descriptor={"kind": "tent", "segment": ends.tolist(),
                    "height": float(height)},
    )


def linear_extremal_triangle(dom: ConvexDomain) -> ConcaveFunction:
    """Affine function equal to 1 on the longest side of a triangle and 0
    at the opposite vertex (ties resolve to the lowest edge index): the
    one-sided tent over that side."""
    if dom.n != 3:
        raise ValueError("linear extremal requires a triangle domain")
    A, B = dom.edges()
    e = int(np.argmax(dom.edge_lengths()))
    fn = tent_function(dom, (A[e], B[e]))
    fn.descriptor = {"kind": "triangle-linear"}
    return fn


# ---------------------------------------------------------------------------
# boundary-displacement families
# ---------------------------------------------------------------------------


def _locate_boundary_edge(dom: ConvexDomain, pt: np.ndarray) -> int:
    """Edge nearest to a boundary point: the first edge within 1e-15 of the
    least distance, so the first of the two edges at a vertex.  This is the
    record rule "a later edge wins only when closer by more than 1e-15"
    whenever at most two edges lie within about 2e-15 of the point."""
    A, B = dom.edges()
    ab = B - A
    lam = np.clip(dot2(pt - A, ab) / dot2(ab, ab), 0.0, 1.0)
    dist = np.hypot(*(A + lam[:, None] * ab - pt).T)
    edge = int(np.argmax(dist <= dist.min() + 1e-15))
    if not dist[edge] <= dom.margin:   # NaN too: a non-finite anchor
        raise ValueError("anchor must lie on the boundary")
    return edge


def family_u_omega(dom: ConvexDomain, anchor, omega: float) -> ConcaveFunction:
    """Envelope with unit height at the anchor displaced inward by omega.

    Anchors on the upper boundary chain displace straight down, anchors on
    the lower chain straight up, and anchors on a vertical edge displace
    horizontally inward; the gradient of the steep facet scales like
    1/omega, which drives the sup-norm ratio toward the boundary slope.
    """
    anchor = np.asarray(anchor, dtype=float)
    if omega <= 0:
        raise ValueError("omega must be positive")
    e = _locate_boundary_edge(dom, anchor)
    A, B = dom.edges()
    slope = _edge_slope(A[e], B[e], dom.tol)
    n_out = dom.edge_normals()[e]
    if math.isinf(slope):
        disp = np.array([-math.copysign(1.0, n_out[0]) * omega, 0.0])
    else:
        disp = np.array([0.0, -math.copysign(1.0, n_out[1]) * omega])
    apex = anchor + disp
    margin = dom.margin
    depth = dom.signed_boundary_distance(apex[None, :])[0]
    if depth < 0.0:
        raise ValueError("omega too large: displaced apex leaves the domain")
    if depth <= margin:
        # off an edge of slope s a displacement by omega along an axis puts
        # the apex about omega/|s| from the edge's own line
        own = float(dom.edge_offsets()[e] - dot2(apex, n_out))
        if own <= margin:
            raise ValueError(
                f"omega too small: displaced apex lies {own:.3g} from its "
                f"edge (slope {slope:.3g}), inside the interior margin "
                f"10*tol = {margin:.3g}")
        raise ValueError(
            f"omega too large: displaced apex lies {depth:.3g} from the "
            f"boundary, inside the interior margin 10*tol = {margin:.3g}")
    fn = concave_envelope(dom, [((apex[0], apex[1]), 1.0)])
    fn.descriptor = {"kind": "u-omega",
                     "anchor": [float(anchor[0]), float(anchor[1])],
                     "omega": float(omega)}
    return fn


def _support_arc_point(dom: ConvexDomain, phi: float):
    """Point of the right boundary cap whose support normals all have
    angle within (-phi, phi), or None if the cap is angular for phi."""
    normals = dom.edge_normals()
    alphas = np.arctan2(normals[:, 1], normals[:, 0])
    info = vertical_support_classification(dom)
    if info.right_angular:
        _, _, low_right, up_right = info.edges
        if abs(alphas[low_right]) < phi and abs(alphas[up_right]) < phi:
            return dom.vertices[info.extremes[1]].copy()
    qual = np.nonzero(np.abs(alphas) < phi)[0]
    if len(qual) == 0:
        return None
    k = int(qual[np.argmin(np.abs(alphas[qual]))])
    A, B = dom.edges()
    return 0.5 * (A[k] + B[k])


def family_u_phi_eps(dom: ConvexDomain, phi: float, eps: float):
    """Necessity family for a non-angular (smooth-capped) right support.

    Removes the support half-planes with normal angles within (-phi, phi),
    picks a cap point xi interior to the widened body, and returns the
    envelope pinned at height 1 on a hexagonal sample of
    D = {|x - xi| <= r/2} ∩ {dist(x, boundary) >= eps}; the realized
    sample is returned alongside the function.
    """
    if not (0.0 < phi < 0.5 * math.pi):
        raise ValueError("phi must lie in (0, pi/2)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    xi = _support_arc_point(dom, phi)
    if xi is None:
        raise ValueError(
            "right vertical support is angular at this phi: no qualifying arc")

    normals = dom.edge_normals()
    alphas = np.arctan2(normals[:, 1], normals[:, 0])
    offsets = dom.edge_offsets()
    lines = [(normals[k], offsets[k]) for k in np.nonzero(np.abs(alphas) >= phi)[0]]
    for ang in (phi, -phi):
        n = np.array([math.cos(ang), math.sin(ang)])
        lines.append((n, float(dot2(dom.vertices, n).max())))
    r = min(off - float(dot2(xi, n)) for n, off in lines)
    if r <= dom.margin:
        raise ValueError("cap point sits on the widened body's boundary")

    delta = eps / 4.0
    radius = r / 2.0
    K = int(math.ceil(radius / delta)) + 2
    i = np.arange(-K, K + 1)
    I, J = np.meshgrid(i, i, indexing="ij")
    gx = xi[0] + delta * (I + 0.5 * J)
    gy = xi[1] + delta * (0.5 * math.sqrt(3.0)) * J
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    keep = np.hypot(pts[:, 0] - xi[0], pts[:, 1] - xi[1]) <= radius
    pts = pts[keep]
    keep2 = dom.signed_boundary_distance(pts) >= eps
    pts = pts[keep2]
    if len(pts) == 0:
        raise ValueError("constraint region D is empty; decrease eps")
    fn = concave_envelope(dom, [((x, y), 1.0) for x, y in pts])
    fn.descriptor = {"kind": "u-phi-eps", "phi": float(phi), "eps": float(eps)}
    return fn, pts


# ---------------------------------------------------------------------------
# descriptors and affine pushforward
# ---------------------------------------------------------------------------


def build_function(dom: ConvexDomain, descriptor: dict) -> ConcaveFunction:
    """Rebuild a function from its JSON descriptor (witness replay)."""
    kind = descriptor.get("kind")
    if kind == "envelope":
        cons = [((x, y), h) for x, y, h in descriptor["constraints"]]
        return concave_envelope(dom, cons)
    if kind == "tent":
        return tent_function(dom, descriptor["segment"],
                             descriptor.get("height", 1.0))
    if kind == "triangle-linear":
        return linear_extremal_triangle(dom)
    if kind == "u-omega":
        return family_u_omega(dom, descriptor["anchor"], descriptor["omega"])
    if kind == "u-phi-eps":
        fn, _ = family_u_phi_eps(dom, descriptor["phi"], descriptor["eps"])
        return fn
    raise ValueError(f"unknown function descriptor kind: {kind!r}")


def transform_function(u: ConcaveFunction, lin: np.ndarray, shift: np.ndarray,
                       image: ConvexDomain) -> ConcaveFunction:
    """Pushforward of u under the affine map x -> lin x + shift.

    Values are preserved pointwise, so the plane g . x + z0 becomes
    g~ . y + z0 - g~ . shift with g~ = g lin^-1: gradients transform by the
    inverse transpose of the linear part.  image is the domain of u under
    the same map.
    """
    lin = np.asarray(lin, dtype=float)
    shift = np.asarray(shift, dtype=float)
    (a, b), (c, d) = lin.tolist()
    det = a * d - b * c
    if det == 0.0:
        raise ValueError("the linear part of the map is singular")
    verts_new = dot2(u.verts[:, None, :], lin) + shift
    # row j of the inverse transpose, (d, -c) / det and (-b, a) / det
    grads_new = dot2(u.planes[:, None, :2], np.array([[d, -c], [-b, a]]) / det)
    z0_new = u.planes[:, 2] - dot2(grads_new, shift)
    planes_new = np.column_stack([grads_new, z0_new])
    # an affine map keeps means along segments; a reflection reverses the
    # image's vertex order, so image edge j is source edge n - 2 - j
    trace_new = u.trace if det > 0 else np.roll(u.trace[::-1], -1)
    return ConcaveFunction(
        domain=image, verts=verts_new, vert_values=u.vert_values.copy(),
        tris=u.tris.copy(), planes=planes_new, trace=trace_new,
        descriptor={"kind": "affine-image", "base": u.descriptor},
    )


# ---------------------------------------------------------------------------
# structural checks (used by tests and the verification suites)
# ---------------------------------------------------------------------------


def check_partition(u: ConcaveFunction, tol: float = 1e-9) -> bool:
    """Facet areas must tile the domain."""
    return abs(u.facet_areas.sum() - u.domain.area) <= tol * u.domain.area


def check_concavity(u: ConcaveFunction, tol: float = 1e-8) -> bool:
    """Each facet plane must be the active (minimal) plane on its own facet."""
    tri_pts = u.verts[u.tris]
    cents = tri_pts.mean(axis=1)
    vals = plane_values(u, cents)
    own = dot2(cents, u.planes[:, :2]) + u.planes[:, 2]
    scale = 1.0 + np.abs(u.vert_values).max()
    return bool(np.all(vals.min(axis=1) >= own - tol * scale))


def check_vertex_consistency(u: ConcaveFunction, tol: float = 1e-8) -> bool:
    """Stored vertex values must match min-of-planes evaluation."""
    vals = plane_values(u, u.verts).min(axis=1)
    scale = 1.0 + np.abs(u.vert_values).max()
    return bool(np.abs(vals - u.vert_values).max() <= tol * scale)
