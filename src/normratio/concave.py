"""Concave piecewise-linear functions on convex polygon domains.

A function is stored as a triangulated graph: facet triangles with plane
coefficients (gx, gy, z0).  Because the function is concave, its value
anywhere equals the minimum over all facet planes, which gives exact
evaluation without point location; the active plane identifies the
gradient.  Functions are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import ConvexDomain, Direction, cross2

CLASSICAL = "classical"
DISTRIBUTIONAL = "distributional"
PROFILE_LINES = 33          # scan lines per max_profile


@dataclass(frozen=True)
class MaxProfile:
    """Per-chord maxima of a function along parallel scan lines."""

    h: Direction
    offsets: np.ndarray      # positions along the scan normal
    values: np.ndarray       # chord maxima m_h(t)
    M: float                 # global maximum of the function
    z: np.ndarray            # a point where M is attained


class ConcaveFunction:
    """Concave PL function vanishing-or-jumping on the domain boundary.

    mode 'classical' means the boundary trace is identically zero; in
    'distributional' mode the trace is nonzero and first-order derivative
    norms acquire a singular (jump) part along the boundary.  trace[e] is
    the mean of the boundary trace along domain edge e.
    """

    def __init__(self, domain, verts, vert_values, tris, planes, mode,
                 trace, descriptor):
        self.domain = domain
        self.verts = np.asarray(verts, dtype=float)
        self.vert_values = np.asarray(vert_values, dtype=float)
        self.tris = np.asarray(tris, dtype=np.int64)
        self.planes = np.asarray(planes, dtype=float)
        self.mode = mode
        self.trace = np.asarray(trace, dtype=float)
        self.descriptor = dict(descriptor)
        tri_pts = self.verts[self.tris]                       # (F, 3, 2)
        self.facet_areas = 0.5 * np.abs(
            cross2(tri_pts[:, 1] - tri_pts[:, 0], tri_pts[:, 2] - tri_pts[:, 0])
        )

    @cached_property
    def facet_on_boundary(self) -> np.ndarray:
        """Facets with a vertex on the domain boundary."""
        dom = self.domain
        bd = np.abs(dom.signed_boundary_distance(self.verts)) <= 10 * dom.tol
        return bd[self.tris].any(axis=1)

    @property
    def n_facets(self) -> int:
        return len(self.tris)

    @property
    def max_value(self) -> float:
        return float(self.vert_values.max())

    def gradients(self) -> np.ndarray:
        return self.planes[:, :2]

    def __repr__(self):
        return (f"ConcaveFunction({self.descriptor.get('kind', '?')}, "
                f"{self.n_facets} facets, mode={self.mode})")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(u: ConcaveFunction, pts):
    """Exact values at points inside the domain (min over facet planes)."""
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = u.domain.contains(arr, 10 * u.domain.tol)
    if not np.all(inside):
        raise ValueError("evaluation point outside the domain")
    vals = plane_values(u, arr).min(axis=1)
    if np.ndim(pts) == 1:
        return float(vals[0])
    return vals


def plane_values(u: ConcaveFunction, arr: np.ndarray) -> np.ndarray:
    return arr @ u.planes[:, :2].T + u.planes[:, 2]


def gradients_at(u: ConcaveFunction, pts: np.ndarray):
    """Values and gradients at many points, with a mask of the regular ones.

    The planes within 1e-11 of the minimum at a point are its active
    planes; the point is regular when their gradients agree to 1e-9 and it
    lies within 10 tol of the domain.  Returns (values, gradients of the
    first active plane, regular).
    """
    vals = plane_values(u, pts)
    vmin = vals.min(axis=1)
    tie = vals <= (vmin + 1e-11 * (1.0 + np.abs(vmin)))[:, None]
    grads = u.planes[:, :2]
    first = grads[tie.argmax(axis=1)]
    spread = np.where(tie[:, :, None], np.abs(grads - first[:, None, :]), 0.0)
    mag = np.where(tie[:, :, None], np.abs(grads), 0.0)
    regular = ((spread.max(axis=(1, 2)) <= 1e-9 * (1.0 + mag.max(axis=(1, 2))))
               & u.domain.contains(pts, 10 * u.domain.tol))
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
    (Andrew 1979).  It reads vertex values only, never facet planes.

    The ends of a support edge can project a rounding apart, so
    projections within tol of the two support values are snapped onto
    them: the highest vertex on each support line then stays on the hull.
    """
    t = u.verts @ np.asarray(normal, dtype=float)
    lo, hi = t.min(), t.max()
    t[t <= lo + u.domain.tol] = lo
    t[t >= hi - u.domain.tol] = hi
    order = np.lexsort((u.vert_values, t))
    t, z = t[order], u.vert_values[order]
    # at equal t only the highest point can lie on the hull
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


def max_profile(u: ConcaveFunction, h: Direction) -> MaxProfile:
    """Chord maxima along PROFILE_LINES evenly spaced parallel lines in
    direction h, spanning the domain.

    The per-chord maximum is exact for the PL function; the profile is a
    concave function of the offset.
    """
    from .geometry import chords_batch

    normal = h.perp().as_array()
    proj = u.domain.vertices @ normal
    c, d = float(proj.min()), float(proj.max())
    ts = np.linspace(c, d, PROFILE_LINES)
    P0, P1, valid = chords_batch(u.domain, normal, ts)
    ms, _ = chord_maxima(u, P0, P1)
    ms = np.where(valid, ms, 0.0)
    k = int(np.argmax(u.vert_values))
    return MaxProfile(h=h, offsets=ts, values=ms, M=float(u.vert_values[k]),
                      z=u.verts[k].copy())


# ---------------------------------------------------------------------------
# upper convex hull envelope
# ---------------------------------------------------------------------------


def _polygon_ccw(xy: np.ndarray, tol: float) -> list:
    """Indices of the convex hull vertices of xy, counterclockwise (Andrew's
    monotone chain); a point within tol of a hull edge is not a vertex."""
    pts = xy.tolist()
    order = np.lexsort((xy[:, 1], xy[:, 0])).tolist()

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay), (bx, by) = pts[out[-2]], pts[out[-1]], pts[i]
                if ((ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                        > tol * math.hypot(bx - ox, by - oy)):
                    break
                out.pop()
            out.append(i)
        return out

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def _interior_facets(xy: np.ndarray, z: np.ndarray, cand: np.ndarray,
                     polys: list, nb: int, tol: float):
    """The upper-hull facets that are not over a domain edge, by gift
    wrapping (Chand & Kapur 1970) outward from the known facets.

    xy (a local frame) and z index the graph points as [ring vertices,
    constraints]; polys are the known facets, the edge facets, as
    counterclockwise id lists; only those at a switch vertex (a ring
    vertex in cand) or with two or more constraints are needed.  The
    frontier is every facet edge of exactly one known facet that has a
    constraint end and no other ring end than a switch vertex: an edge at
    any other ring vertex is shared by the two edge facets there, and an
    edge between ring vertices is a domain edge.  Each round takes the
    whole frontier in one array pass: the plane of the facet across a
    frontier edge contains the candidate in cand on the far side that
    maximizes r_k / d_k, with d_k its distance from the edge's line and
    r_k its height over the edge.  The candidates within tol of that plane
    (and not behind the edge) make one polygon (:func:`_polygon_ccw`),
    fanned from its lowest index; a facet reached from several frontier
    edges is kept once.  Every facet plane is >= 0 at every ring vertex,
    so the wrap reaches true facets only.  It raises ValueError when a
    frontier edge has no candidate beyond it, when a round finds no new
    facet, or when there are more facets than a triangulation of the
    points has.

    Returns triangles indexing xy and their planes, in the frame of xy.
    """
    switch = set(cand[cand < nb].tolist())
    known = set()
    frontier = {}                 # (lo, hi) -> (a, b), known facet on the left

    def add(poly):
        known.add(tuple(sorted(poly)))
        for a, b in zip(poly, poly[1:] + poly[:1]):
            key = (a, b) if a < b else (b, a)
            if key in frontier:
                del frontier[key]
            elif ((a >= nb or b >= nb) and (a >= nb or a in switch)
                  and (b >= nb or b in switch)):
                frontier[key] = (a, b)

    for poly in polys:
        add(poly)
    X, Y, Z = xy[:, 0].tolist(), xy[:, 1].tolist(), z.tolist()
    # candidate k as the column (x_k, y_k, 1, z_k)
    M = np.ones((4, len(cand)))
    M[:2] = xy[cand].T
    M[3] = z[cand]
    tris, planes = [], []
    while frontier:
        edges = list(frontier.values())
        # per edge a -> b, with U = p_b - p_a and q = (z_b - z_a) / |U|^2,
        # rows giving cr_k = (uy, -ux) . (p_k - p_a), |U| times k's distance
        # beyond the edge, and r_k = z_k - z_a - q U . (p_k - p_a), k's
        # height over the edge
        rows, lin, reach = [], [], []
        for a, b in edges:
            ax, ay, za = X[a], Y[a], Z[a]
            ux, uy = X[b] - ax, Y[b] - ay
            len2 = ux * ux + uy * uy
            q = (Z[b] - za) / len2
            rows.append([uy, -ux, ay * ux - ax * uy, 0.0])
            lin.append([-q * ux, -q * uy, q * (ax * ux + ay * uy) - za, 1.0])
            reach.append(tol * math.sqrt(len2))
        f = len(edges)
        cr, r = (np.array(rows + lin) @ M).reshape(2, f, -1)
        reach = np.array(reach)[:, None]
        beyond = cr > reach
        rho = np.divide(r, cr, out=np.full(r.shape, -np.inf), where=beyond)
        top = cand[rho.argmax(axis=1)].tolist()
        s = rho.max(axis=1)
        # the plane z_a + q U . (x - p_a) + s (uy, -ux) . (x - p_a), and a
        # tie within tol of it, measured normal to it
        plane, thr = [], []
        for (nx, ny, n0, _), (lx, ly, l0, _), si in zip(rows, lin, s.tolist()):
            if si == -math.inf:
                raise ValueError("degenerate envelope input: a facet edge "
                                 "has no point beyond it")
            gx, gy = si * nx - lx, si * ny - ly
            plane.append([gx, gy, si * n0 - l0])
            thr.append(tol * math.sqrt(1.0 + gx * gx + gy * gy))
        tie = s[:, None] * cr - r <= np.array(thr)[:, None]
        lone = ((tie & beyond).sum(axis=1) == 1).tolist()
        # a tied candidate on the edge's line is no vertex, but keeps the
        # tie sets of one facet's frontier edges the same
        tie &= cr > -reach
        seen = {}
        found = False
        for i, (a, b) in enumerate(edges):
            if lone[i]:
                poly = [b, a, top[i]]
            else:
                key = np.packbits(tie[i]).tobytes()
                if key not in seen:
                    sel = np.zeros(len(xy), dtype=bool)
                    sel[cand[tie[i]]] = True
                    sel[[a, b]] = True
                    ids = np.flatnonzero(sel)
                    seen[key] = ids[_polygon_ccw(xy[ids] - xy[a], tol)].tolist()
                poly = seen[key]
            lo = poly.index(min(poly))
            poly = poly[lo:] + poly[:lo]
            if tuple(sorted(poly)) not in known:
                add(poly)
                found = True
                tris += [[poly[0], poly[j], poly[j + 1]]
                         for j in range(1, len(poly) - 1)]
                planes += [plane[i]] * (len(poly) - 2)
        if not found:
            raise ValueError("degenerate envelope input: the wrap found no "
                             "new facet")
        if len(known) > 2 * len(xy):
            raise ValueError("degenerate envelope input: more facets than a "
                             "triangulation has")
    return (np.array(tris, dtype=np.int64).reshape(-1, 3),
            np.array(planes, dtype=float).reshape(-1, 3))


# bench/spans.py times the hull step through the name of the qhull call this
# routine replaced
ConvexHull = _interior_facets


def concave_envelope(dom: ConvexDomain, constraints) -> ConcaveFunction:
    """Least concave function that vanishes on the boundary and dominates
    the given interior heights; its graph is the 3D upper convex hull of
    the boundary ring at height zero plus the constraint points.

    constraints: iterable of ((x, y), height) with strictly interior points
    and positive heights.  Constraints that end up below the hull of the
    others are strictly exceeded rather than active.

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
    """
    cons = [((float(p[0]), float(p[1])), float(h)) for p, h in constraints]
    if not cons:
        raise ValueError("need at least one constraint")
    pts = np.array([p for p, _ in cons])
    hts = np.array([h for _, h in cons])
    if np.any(hts <= 0.0):
        raise ValueError("constraint heights must be positive")
    if np.any(dom.signed_boundary_distance(pts) <= dom.tol):
        raise ValueError("constraint points must lie strictly inside the domain")

    v = dom.vertices
    nb = dom.n
    normals = dom.edge_normals()
    # the slack is taken from the difference rather than as the edge offset
    # minus n_e . a, which cancels for points near the boundary
    slack = np.einsum("ej,eij->ei", normals, v[:, None, :] - pts)    # (E, m)
    ratio = hts / slack
    top = ratio.argmax(axis=1)
    s = ratio[np.arange(nb), top]
    edge_planes = np.column_stack([-s[:, None] * normals, s * dom.edge_offsets()])
    tied = slack - hts / s[:, None] <= dom.tol
    single = tied.sum(axis=1) == 1
    e = np.arange(nb)
    tris = [np.column_stack([e, (e + 1) % nb, nb + top])[single]]
    planes = [edge_planes[single]]
    polys = []
    points = np.vstack([v, pts])
    for k in np.nonzero(~single)[0]:
        ids = np.concatenate([[k, (k + 1) % nb], nb + np.nonzero(tied[k])[0]])
        poly = ids[_polygon_ccw(points[ids] - v[k], dom.tol)]
        # a tied constraint that is no vertex of the polygon must not make a
        # switch vertex: with it the reduced hull can come out flat
        tied[k] = False
        tied[k, poly[poly >= nb] - nb] = True
        poly = poly.tolist()
        lo = poly.index(min(poly))
        poly = poly[lo:] + poly[:lo]
        polys.append(poly)
        tris.append(np.array([[poly[0], poly[a], poly[a + 1]]
                              for a in range(1, len(poly) - 1)]))
        planes.append(np.tile(edge_planes[k], (len(poly) - 2, 1)))
    switch = np.nonzero((tied != tied[e - 1]).any(axis=1))[0]
    z = np.concatenate([np.zeros(nb), hts])
    if len(switch):
        at_switch = np.zeros(nb, dtype=bool)
        at_switch[switch] = True
        near = (at_switch | np.roll(at_switch, -1))[single]
        polys = tris[0][near].tolist() + polys
        # called as ConvexHull: see the note at its definition
        inner_tris, inner_planes = ConvexHull(
            points - v[0], z, np.concatenate([switch, nb + np.arange(len(pts))]),
            polys, nb, dom.tol)
        inner_planes[:, 2] -= inner_planes[:, :2] @ v[0]
        tris.append(inner_tris)
        planes.append(inner_planes)
    tris = np.concatenate(tris)
    used = np.zeros(len(points), dtype=bool)
    used[tris] = True
    remap = np.cumsum(used) - 1
    fn = ConcaveFunction(
        domain=dom,
        verts=points[used],
        vert_values=z[used],
        tris=remap[tris],
        planes=np.concatenate(planes),
        mode=CLASSICAL,
        trace=np.zeros(nb),
        descriptor={"kind": "envelope",
                    "constraints": [[p[0], p[1], h] for p, h in cons]},
    )
    cover = fn.facet_areas.sum()
    if abs(cover - dom.area) > 1e-9 * dom.area:
        raise ValueError("upper hull does not triangulate the domain")
    return fn


# ---------------------------------------------------------------------------
# tents and linear extremals (distributional mode)
# ---------------------------------------------------------------------------


def _clip_halfplane(poly: np.ndarray, n: np.ndarray, c: float, keep_positive: bool,
                    tol: float) -> np.ndarray:
    s = poly @ n - c
    if not keep_positive:
        s = -s
    s_next = np.roll(s, -1)
    cross = ((s > tol) & (s_next < -tol)) | ((s < -tol) & (s_next > tol))
    lam = s / np.where(cross, s - s_next, 1.0)
    # each vertex is followed by the crossing point on its outgoing edge
    cand = np.stack([poly, poly + lam[:, None] * (np.roll(poly, -1, axis=0) - poly)],
                    axis=1)
    out = cand[np.column_stack([s >= -tol, cross])]
    if len(out) < 3:
        return np.empty((0, 2))
    out = out[np.concatenate([[True], np.hypot(*np.diff(out, axis=0).T) > tol])]
    while len(out) > 1 and np.hypot(*(out[-1] - out[0])) <= tol:
        out = out[:-1]
    return out if len(out) >= 3 else np.empty((0, 2))


def _fan_triangulate(poly: np.ndarray, offset: int) -> np.ndarray:
    """Fan triangles from the lexicographically smallest vertex."""
    k = int(np.lexsort((poly[:, 1], poly[:, 0]))[0])
    order = np.roll(np.arange(len(poly)), -k) + offset
    return np.column_stack([np.full(len(poly) - 2, order[0]), order[1:-1], order[2:]])


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    rel = poly - poly[0]
    return 0.5 * float(cross2(rel, np.roll(rel, -1, axis=0)).sum())


def _boundary_trace(dom: ConvexDomain, planes: np.ndarray, split_line=None):
    """Mean of min-of-planes along each domain edge, shape (n_edges,).

    The trace is linear between the knots (edge ends, and the crossing with
    split_line), so each piece adds dt * (va + vb) / 2 in the edge parameter.
    Products are stacked one row per point, which rounds as a product on a
    single point does: each knot value is bit-identical to plane_values on
    that knot alone, where one batched product may round differently.
    """
    A, B = dom.edges()
    n = dom.n
    knots = np.zeros((n, 3))
    knots[:, 2] = 1.0
    used = np.zeros((n, 3), dtype=bool)
    used[:, [0, 2]] = True
    if split_line is not None:
        nrm, c = split_line
        sa = (A[:, None, :] @ nrm)[:, 0] - c
        sb = (B[:, None, :] @ nrm)[:, 0] - c
        cross = ((sa > 0) != (sb > 0)) & (np.abs(sa - sb) > 0)
        lam = sa[cross] / (sa[cross] - sb[cross])
        inner = (1e-12 < lam) & (lam < 1 - 1e-12)
        split = np.nonzero(cross)[0][inner]
        knots[split, 1] = lam[inner]
        used[split, 1] = True
    edge = np.broadcast_to(np.arange(n)[:, None], (n, 3))[used]
    t = knots[used]
    pts = A[edge] + t[:, None] * (B - A)[edge]
    vals = ((pts[:, None, :] @ planes[:, :2].T)[:, 0, :]
            + planes[:, 2]).min(axis=1)
    same = edge[:-1] == edge[1:]
    piece = np.diff(t) * 0.5 * (vals[:-1] + vals[1:])
    return np.bincount(edge[:-1][same], weights=piece[same], minlength=n)


def tent_function(dom: ConvexDomain, segment, height: float = 1.0) -> ConcaveFunction:
    """Tent of given height over a chord: equal to height on the segment,
    affine on each side, vanishing on the support lines parallel to it.

    Both endpoints must lie on the boundary.  A segment lying along a
    boundary edge is allowed as the degenerate one-sided case (then the
    function is a single affine piece, positive on that edge).
    """
    p = np.asarray(segment[0], dtype=float)
    q = np.asarray(segment[1], dtype=float)
    if height <= 0:
        raise ValueError("tent height must be positive")
    if np.hypot(*(q - p)) <= dom.tol:
        raise ValueError("tent segment endpoints must be distinct")
    bd = dom.signed_boundary_distance(np.array([p, q]))
    if np.abs(bd).max() > 10 * dom.tol:
        raise ValueError("tent segment endpoints must lie on the boundary")

    d = Direction.of(*(q - p))
    n = d.perp().as_array()
    s0 = float(p @ n)
    proj = dom.vertices @ n
    smin, smax = float(proj.min()), float(proj.max())
    tol = dom.tol

    verts_list = []
    fans = []
    sides = []
    for keep_positive, present in ((False, s0 - smin > 10 * tol),
                                   (True, smax - s0 > 10 * tol)):
        if not present:
            continue
        poly = _clip_halfplane(dom.vertices, n, s0, keep_positive, tol)
        if _polygon_area(poly) <= tol:
            continue
        if keep_positive:
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

    verts = np.vstack(verts_list)
    sides = np.array(sides)
    planes = np.repeat(sides, [len(f) for f in fans], axis=0)
    vert_values = (verts @ sides[:, :2].T + sides[:, 2]).min(axis=1)
    trace = _boundary_trace(dom, sides, split_line=(n, s0))
    return ConcaveFunction(
        domain=dom, verts=verts, vert_values=vert_values,
        tris=np.vstack(fans), planes=planes,
        mode=DISTRIBUTIONAL, trace=trace,
        descriptor={"kind": "tent",
                    "segment": [[float(p[0]), float(p[1])],
                                [float(q[0]), float(q[1])]],
                    "height": float(height)},
    )


def linear_extremal_triangle(dom: ConvexDomain) -> ConcaveFunction:
    """Affine function equal to 1 on the longest side of a triangle and 0
    at the opposite vertex (ties resolve to the lowest edge index)."""
    if dom.n != 3:
        raise ValueError("linear extremal requires a triangle domain")
    v = dom.vertices
    lengths = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
    e = int(np.argmax(lengths))
    opp = (e + 2) % 3
    n_out = dom.edge_normals()[e]
    offset = float(v[e] @ n_out)
    depth = offset - float(v[opp] @ n_out)      # distance to opposite vertex
    g = n_out / depth
    z0 = 1.0 - offset / depth
    planes = np.array([[g[0], g[1], z0]])
    vert_values = v @ g + z0
    trace = _boundary_trace(dom, planes)
    return ConcaveFunction(
        domain=dom, verts=v.copy(), vert_values=vert_values,
        tris=np.array([[0, 1, 2]]), planes=planes,
        mode=DISTRIBUTIONAL, trace=trace,
        descriptor={"kind": "triangle-linear"},
    )


# ---------------------------------------------------------------------------
# boundary-displacement families
# ---------------------------------------------------------------------------


def _locate_boundary_edge(dom: ConvexDomain, pt: np.ndarray) -> int:
    """Edge nearest to a boundary point; a later edge wins a tie only when
    it is closer by more than 1e-15, which picks the first of the two edges
    at a vertex.  The rule is sequential (argmin does not reproduce it), so
    it runs over the distances, which are computed in one array expression.
    """
    A, B = dom.edges()
    ab = B - A
    lam = np.clip(np.einsum("ij,ij->i", pt - A, ab)
                  / np.einsum("ij,ij->i", ab, ab), 0.0, 1.0)
    dist = np.hypot(*(A + lam[:, None] * ab - pt).T)
    best, edge = math.inf, -1
    for e, d in enumerate(dist.tolist()):
        if d < best - 1e-15:
            best, edge = d, e
    if best > 10 * dom.tol:
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
    from .geometry import _edge_slope

    slope = _edge_slope(A[e], B[e])
    n_out = dom.edge_normals()[e]
    if math.isinf(slope):
        disp = np.array([-math.copysign(1.0, n_out[0]) * omega, 0.0])
    else:
        disp = np.array([0.0, -math.copysign(1.0, n_out[1]) * omega])
    apex = anchor + disp
    if dom.signed_boundary_distance(apex[None, :])[0] <= 10 * dom.tol:
        raise ValueError("omega too large: displaced apex leaves the domain")
    fn = concave_envelope(dom, [((apex[0], apex[1]), 1.0)])
    fn.descriptor = {"kind": "u-omega",
                     "anchor": [float(anchor[0]), float(anchor[1])],
                     "omega": float(omega)}
    return fn


def _support_arc_point(dom: ConvexDomain, phi: float):
    """Point of the right boundary cap whose support normals all have
    angle within (-phi, phi), or None if the cap is angular for phi."""
    from .geometry import _extreme_x_indices

    normals = dom.edge_normals()
    alphas = np.arctan2(normals[:, 1], normals[:, 0])
    iA, iB, _, n_right = _extreme_x_indices(dom)
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
        lines.append((n, float((dom.vertices @ n).max())))
    r = min(off - float(xi @ n) for n, off in lines)
    if r <= 10 * dom.tol:
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
    """Pushforward of u under the affine map x -> lin @ x + shift.

    Values are preserved pointwise; gradients transform by the inverse
    transpose of the linear part.  image is
    ConvexDomain(u.domain.vertices @ lin.T + shift).
    """
    lin = np.asarray(lin, dtype=float)
    shift = np.asarray(shift, dtype=float)
    inv_t = np.linalg.inv(lin).T
    verts_new = u.verts @ lin.T + shift
    grads_new = u.planes[:, :2] @ inv_t.T
    v0 = verts_new[u.tris[:, 0]]
    vals0 = u.vert_values[u.tris[:, 0]]
    z0_new = vals0 - np.einsum("ij,ij->i", grads_new, v0)
    planes_new = np.column_stack([grads_new, z0_new])
    # an affine map keeps means along segments; a reflection reverses the
    # image's vertex order, so image edge j is source edge n - 2 - j
    trace_new = u.trace if np.linalg.det(lin) > 0 else np.roll(u.trace[::-1], -1)
    return ConcaveFunction(
        domain=image, verts=verts_new, vert_values=u.vert_values.copy(),
        tris=u.tris.copy(), planes=planes_new, mode=u.mode, trace=trace_new,
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
    # the own plane is read from the same product as the others, so that a
    # plane is never compared with a differently rounded copy of itself
    own = vals[np.arange(len(vals)), np.arange(len(vals))]
    scale = 1.0 + np.abs(u.vert_values).max()
    return bool(np.all(vals.min(axis=1) >= own - tol * scale))


def check_vertex_consistency(u: ConcaveFunction, tol: float = 1e-8) -> bool:
    """Stored vertex values must match min-of-planes evaluation."""
    vals = plane_values(u, u.verts).min(axis=1)
    scale = 1.0 + np.abs(u.vert_values).max()
    return bool(np.abs(vals - u.vert_values).max() <= tol * scale)
