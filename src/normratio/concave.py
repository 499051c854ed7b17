"""Concave piecewise-linear functions on convex polygon domains.

A function is stored as a triangulated graph: facet triangles with plane
coefficients (gx, gy, z0).  Because the function is concave, its value
anywhere equals the minimum over all facet planes, which gives exact
evaluation without point location; the active plane identifies the
gradient.  Functions are immutable once built.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate

import numpy as np

from .geometry import (
    ConvexDomain,
    Direction,
    _edge_slope,
    cross2,
    dot2,
    vertical_support_classification,
)
from .hull import _chain, _fan, _interior_facets, _polygon_ccw

PROFILE_LINES = 33          # scan lines per max_profile


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


def gradients_at(u: ConcaveFunction, pts: np.ndarray):
    """Values and gradients at many points, with a mask of the regular ones.

    The planes within 1e-11 of the minimum at a point are its active
    planes; the point is regular when their gradients agree to 1e-9 and it
    lies inside the domain widened by its margin.  Returns (values,
    gradients of the first active plane, regular).
    """
    vals = plane_values(u, pts)
    vmin = vals.min(axis=1)
    tie = vals <= (vmin + 1e-11 * (1.0 + np.abs(vmin)))[:, None]
    grads = u.planes[:, :2]
    first = grads[tie.argmax(axis=1)]
    spread = np.where(tie[:, :, None], np.abs(grads - first[:, None, :]), 0.0)
    mag = np.where(tie[:, :, None], np.abs(grads), 0.0)
    regular = ((spread.max(axis=(1, 2)) <= 1e-9 * (1.0 + mag.max(axis=(1, 2))))
               & u.domain.contains(pts, u.domain.margin))
    return vmin, first, regular


def gradient_at(u: ConcaveFunction, pt) -> np.ndarray:
    """Gradient at a regular point (see :func:`gradients_at`); raises on
    facet edges and vertices and outside the domain."""
    _, grads, regular = gradients_at(u, np.asarray(pt, dtype=float)[None, :])
    if not regular[0]:
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


def chord_max_hull(u: ConcaveFunction, normal) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints (t, m) of the full-chord maximum profile,
    m(t) = max{u(x) : x . normal = t}.

    The hypograph of u is a convex polytope whose top vertices are the
    lifted mesh vertices, and those include every domain vertex.  Its
    projection onto (x . normal, z) is bounded above by the upper hull of
    the projected vertices (v . normal, u(v)), so m is that hull: a concave
    polyline over the whole projection range, found by one monotone chain
    (Andrew 1979), :func:`hull._chain`.  It reads vertex values only,
    never facet planes.

    The ends of a support edge can project a rounding apart, so
    projections within tol of the two support values are snapped onto
    them: the highest vertex on each support line then stays on the hull.
    """
    t = dot2(u.verts, np.asarray(normal, dtype=float))
    lo, hi = t.min(), t.max()
    t[t <= lo + u.domain.tol] = lo
    t[t >= hi - u.domain.tol] = hi
    order = np.lexsort((u.vert_values, t))
    t, z = t[order], u.vert_values[order]
    # at equal t only the highest point can lie on the hull
    top = np.append(t[1:] != t[:-1], True)
    t, z = t[top], z[top]
    # the upper hull of (t, z) is the lower chain of (t, -z); negating z is
    # exact, so every pop is the same comparison an upper chain would make
    keep = _chain(list(zip(t.tolist(), (-z).tolist())), range(len(t)), 0.0)
    return t[keep], z[keep]


def max_profile(u: ConcaveFunction,
                h: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Chord maxima m along PROFILE_LINES evenly spaced parallel lines in
    direction h, spanning the domain, at offsets t along h's normal:
    (t, m), as :func:`chord_max_hull` gives its breakpoints.

    The per-chord maximum is exact for the PL function; the profile is a
    concave function of the offset.  Along a chord u is piecewise linear
    with breakpoints where the chord crosses mesh edges, and its ends lie
    on boundary edges, which are mesh edges too; so the maximum on the
    line x . normal = t is the largest value interpolated along the mesh
    edges whose projections span t.  Every triangle side is read, so a
    shared edge is read twice, which leaves the maximum unchanged.  A side
    parallel to the lines is skipped: u is linear along it, and each of
    its ends is also an end of another side of the same facet, which is
    not parallel.  As in :func:`chord_max_hull`, projections within tol of
    the two support values are snapped onto them.
    """
    normal = h.perp().as_array()
    proj = dot2(u.domain.vertices, normal)
    c, d = float(proj.min()), float(proj.max())
    ts = np.linspace(c, d, PROFILE_LINES)
    t = dot2(u.verts, normal)
    t[t <= c + u.domain.tol] = c
    t[t >= d - u.domain.tol] = d
    a, b = u.tris.ravel(), u.tris[:, [1, 2, 0]].ravel()
    ta, za = t[a], u.vert_values[a]
    span = t[b] - ta
    # nan fails both range tests below, so parallel sides drop out
    lam = (ts[:, None] - ta) / np.where(span == 0.0, np.nan, span)  # (L, 3F)
    on = (lam >= 0.0) & (lam <= 1.0)
    ms = np.where(on, za + lam * (u.vert_values[b] - za), -np.inf).max(axis=1)
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
    one of :func:`concave_envelopes`, which says how it is built.
    """
    return concave_envelopes(dom, [constraints])[0]


def concave_envelopes(dom: ConvexDomain, constraint_sets) -> list:
    """The :func:`concave_envelope` of each constraint set over one domain,
    built in one batched pass: bit for bit the functions that building
    each set alone gives.

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

    The sets share every array pass.  The per-edge arrays have a column
    per edge of each set, column k nb + e for set k's edge e, and the slack
    table a row per constraint of the longest set: set k's constraints
    fill the top of its columns, and a shorter set's are padded after its
    real ones with zero heights at infinite slack, which never win a
    maximum nor tie.  One wrap (called as ``ConvexHull``) takes the
    frontiers of every set that has switch vertices.  Each facet goes to
    its set's own list as it is made, in that set's ids [ring, its
    constraints]: its single edge facets, then its tied edge facets, then
    its wrapped facets.  A batch of one keeps one set's array layout.  A
    set that fails makes the batch raise the ValueError that building it
    alone raises.
    """
    sets = [[(float(p[0]), float(p[1]), float(h)) for p, h in constraints]
            for constraints in constraint_sets]
    if not all(sets):
        raise ValueError("need at least one constraint")
    if not sets:
        return []
    con = np.array([c for cons in sets for c in cons])     # rows (x, y, height)
    if not np.isfinite(con).all():
        raise ValueError("constraint points and heights must be finite")
    pts, hts = con[:, :2], con[:, 2]
    if hts.min() <= 0.0:
        raise ValueError("constraint heights must be positive")

    v = dom.vertices
    nb = dom.n
    normals = dom.edge_normals()
    # slack[i, e] of constraint i at edge e, taken from the difference
    # rather than as the edge offset minus n_e . a, which cancels for points
    # near the boundary; its row minimum is the distance to the boundary
    slack = (normals[:, 0] * (v[:, 0] - pts[:, :1])
             + normals[:, 1] * (v[:, 1] - pts[:, 1:]))            # (m, E)
    if slack.min() <= dom.tol:
        raise ValueError("constraint points must lie strictly inside the domain")
    nsets = len(sets)
    counts = [len(cons) for cons in sets]
    first = list(accumulate(counts, initial=0))   # set k: rows first[k]:first[k + 1]
    nring = nsets * nb
    height = hts[:, None]
    if nsets > 1:
        # column k nb + e is set k's edge e; set k's constraints fill the
        # top rows of its columns
        rows = max(counts)
        real = np.arange(rows) < np.array(counts)[:, None]        # (S, rows)
        table = np.full((nsets, rows, nb), np.inf)
        table[real] = slack
        height = np.zeros((nsets, rows))
        height[real] = hts
        slack = table.transpose(1, 0, 2).reshape(rows, nring)
        height = np.repeat(height.T, nb, axis=1)
    ratio = height / slack                                     # (rows, S E)
    top = ratio.argmax(axis=0)
    col = np.arange(nring)
    s = ratio[top, col]
    tied = slack - height / s <= dom.tol
    single = tied.sum(axis=0) == 1
    # edge facet e of a set is [e, e + 1, apex] on the plane s_e (-n_e, c_e),
    # in the set's own ids [ring, its constraints]
    prev, nxt = col - 1, col + 1           # the columns of edges e - 1, e + 1
    nxt[-1] = 0
    ends, offsets = (col, nxt), dom.edge_offsets()
    if nsets > 1:                          # within each set
        prev[::nb] += nb
        nxt[nb - 1::nb] = col[::nb]
        ends = col % nb, nxt % nb
        normals = np.concatenate([normals] * nsets)
        offsets = np.concatenate([offsets] * nsets)
    edge_tris = np.empty((nring, 3), dtype=np.int64)
    edge_tris[:, 0], edge_tris[:, 1], edge_tris[:, 2] = *ends, nb + top
    edge_planes = np.empty((nring, 3))
    np.multiply(-s[:, None], normals, out=edge_planes[:, :2])
    np.multiply(s, offsets, out=edge_planes[:, 2])
    # the wrap's graph points are [ring, constraints of every set]: set k's
    # own id nb + i is nb + first[k] + i there
    points = np.concatenate((v, pts))
    z = np.concatenate((np.zeros(nb), hts))
    # each set's facets, in its own ids, from its single edge facets on:
    # those of set k follow its first k nb columns but their tied ones
    tied_cols = np.flatnonzero(~single).tolist()
    cut = [k * nb - bisect_left(tied_cols, k * nb) for k in range(nsets + 1)]
    kept_tris, kept_planes = edge_tris[single], edge_planes[single]
    tris = [[kept_tris[a:b]] for a, b in zip(cut, cut[1:])]
    planes = [[kept_planes[a:b]] for a, b in zip(cut, cut[1:])]
    polys = [[] for _ in sets]          # tied edge facets, in graph ids
    for i in tied_cols:
        k, j = divmod(i, nb)
        ids = np.concatenate(
            [[j, nxt[i] % nb], nb + first[k] + np.flatnonzero(tied[:, i])])
        poly = ids[_polygon_ccw(points[ids] - v[j], dom.tol)]
        # a tied constraint that is no vertex of the polygon must not make a
        # switch vertex: with it the reduced hull can come out flat
        tied[:, i] = False
        tied[poly[poly >= nb] - nb - first[k], i] = True
        poly, fan = _fan(poly.tolist())
        polys[k].append(poly)
        tris[k].append(np.array([a - first[k] if a >= nb else a for a in fan],
                                dtype=np.int64).reshape(-1, 3))
        planes[k].append(np.tile(edge_planes[i], (len(fan) // 3, 1)))
    change = (tied != tied[:, prev]).any(axis=0)
    switch = np.flatnonzero(change)
    if len(switch):
        cands = [[] for _ in sets]
        for i in switch.tolist():
            cands[i // nb].append(i % nb)
        # the edge facets at a switch vertex first, then the tied ones
        near = [[] for _ in sets]
        at = np.flatnonzero((change | change[nxt]) & single)
        for i, (a, b, c) in zip(at.tolist(), edge_tris[at].tolist()):
            near[i // nb].append([a, b, c + first[i // nb]])
        wrap = [k for k in range(nsets) if cands[k]]
        # called as ConvexHull: see the note at its definition
        inner = ConvexHull(
            points - v[0], z,
            [cands[k] + list(range(nb + first[k], nb + first[k + 1]))
             for k in wrap],
            [near[k] + polys[k] for k in wrap], nb, dom.tol)
        for k, (inner_tris, inner_planes) in zip(wrap, inner):
            inner_planes[:, 2] -= dot2(inner_planes[:, :2], v[0])
            if first[k]:
                inner_tris[inner_tris >= nb] -= first[k]
            tris[k].append(inner_tris)
            planes[k].append(inner_planes)
    out = []
    for k, cons in enumerate(sets):
        # set k's points are [ring, its constraints]; set 0's lead the graph
        lo, hi = nb + first[k], nb + first[k + 1]
        if k:
            own = np.concatenate((v, points[lo:hi]))
            own_z = np.concatenate((z[:nb], z[lo:hi]))
        else:
            own, own_z = points[:hi], z[:hi]
        set_tris = np.concatenate(tris[k])
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
            planes=np.concatenate(planes[k]),
            trace=np.zeros(nb),
            descriptor={"kind": "envelope",
                        "constraints": [list(c) for c in cons]},
        )
        if not check_partition(fn):
            raise ValueError("upper hull does not triangulate the domain")
        out.append(fn)
    return out


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
