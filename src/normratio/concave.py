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
from scipy.spatial import ConvexHull, QhullError

from .geometry import ConvexDomain, Direction, cross2

CLASSICAL = "classical"
DISTRIBUTIONAL = "distributional"


@dataclass(frozen=True)
class TraceSegment:
    """Linear piece of the boundary trace along one domain edge."""

    a: np.ndarray
    b: np.ndarray
    va: float
    vb: float
    edge_index: int

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.b - self.a)))


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
    norms acquire a singular (jump) part along the boundary.
    """

    def __init__(self, domain, verts, vert_values, tris, planes, mode,
                 trace, descriptor):
        self.domain = domain
        self.verts = np.asarray(verts, dtype=float)
        self.vert_values = np.asarray(vert_values, dtype=float)
        self.tris = np.asarray(tris, dtype=np.int64)
        self.planes = np.asarray(planes, dtype=float)
        self.mode = mode
        self.trace = tuple(trace)
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


def gradient_at(u: ConcaveFunction, pt) -> np.ndarray:
    """Gradient at a regular point; raises on facet edges and vertices."""
    pt = np.asarray(pt, dtype=float)
    vals = plane_values(u, pt[None, :])[0]
    vmin = vals.min()
    tie = vals <= vmin + 1e-11 * (1.0 + abs(vmin))
    grads = u.planes[tie, :2]
    if len(grads) > 1:
        spread = np.abs(grads - grads[0]).max()
        if spread > 1e-9 * (1.0 + np.abs(grads).max()):
            raise ValueError("gradient undefined at a non-regular point")
    if not u.domain.contains(pt[None, :], 10 * u.domain.tol)[0]:
        raise ValueError("evaluation point outside the domain")
    return grads[0].copy()


def chord_maxima(u: ConcaveFunction, P0: np.ndarray, P1: np.ndarray):
    """Exact maxima of u along many segments, via the concave structure.

    Along a segment, u(t) is the minimum of affine functions (one per facet
    plane), hence concave; the maximum is pinned by one ascending and one
    descending active line whose crossing we test and refine.  Returns
    (maxima, t_star) with t_star in [0, 1] along each segment.
    """
    G = u.planes
    C = P0 @ G[:, :2].T + G[:, 2]            # (L, F) values at t=0
    S = (P1 - P0) @ G[:, :2].T               # (L, F) slopes in t
    L = len(P0)
    rows = np.arange(L)
    s_eps = 1e-14 * (1.0 + np.abs(S).max(axis=1))

    m = np.empty(L)
    tstar = np.empty(L)
    done = np.zeros(L, dtype=bool)

    def tie_slopes(values, slopes):
        vmin = values.min(axis=1)
        tie = values <= (vmin + 1e-12 * (1.0 + np.abs(vmin)))[:, None]
        smin = np.where(tie, slopes, np.inf).min(axis=1)
        smax = np.where(tie, slopes, -np.inf).max(axis=1)
        amin = np.where(tie, slopes, np.inf).argmin(axis=1)
        amax = np.where(tie, slopes, -np.inf).argmax(axis=1)
        return vmin, smin, smax, amin, amax

    v_lo, dlo, _, a_lo, _ = tie_slopes(C, S)
    at_lo = dlo <= s_eps
    m[at_lo] = v_lo[at_lo]
    tstar[at_lo] = 0.0
    done |= at_lo

    Vhi = C + S
    v_hi, _, dhi, _, b_hi = tie_slopes(Vhi, S)
    at_hi = (~done) & (dhi >= -s_eps)
    m[at_hi] = v_hi[at_hi]
    tstar[at_hi] = 1.0
    done |= at_hi

    ia = a_lo.copy()
    ib = b_hi.copy()
    lo = np.zeros(L)
    hi = np.ones(L)

    for _ in range(300):
        act = np.nonzero(~done)[0]
        if len(act) == 0:
            break
        ca = C[act, ia[act]]
        sa = S[act, ia[act]]
        cb = C[act, ib[act]]
        sb = S[act, ib[act]]
        denom = sa - sb
        bad = denom <= 0.0
        tc = np.where(bad, 0.5 * (lo[act] + hi[act]), (cb - ca) / np.where(bad, 1.0, denom))
        tc = np.clip(tc, lo[act], hi[act])
        vc = ca + sa * tc
        vals = C[act] + S[act] * tc[:, None]
        gv, smin, smax, jmin, jmax = tie_slopes(vals, S[act])
        eps_here = s_eps[act]
        conv = gv >= vc - 1e-13 * (1.0 + np.abs(vc))
        flat = (smin <= eps_here) & (smax >= -eps_here)
        finish = conv | flat | bad
        idx_fin = act[finish]
        m[idx_fin] = gv[finish]
        tstar[idx_fin] = tc[finish]
        done[idx_fin] = True

        go_up = (~finish) & (smin > eps_here)
        idx_up = act[go_up]
        ia[idx_up] = jmin[go_up]
        lo[idx_up] = tc[go_up]

        go_dn = (~finish) & (~go_up)
        idx_dn = act[go_dn]
        ib[idx_dn] = jmax[go_dn]
        hi[idx_dn] = tc[go_dn]

    if not np.all(done):
        # pathological fp stragglers: dense sampling fallback
        act = np.nonzero(~done)[0]
        ts = np.linspace(0.0, 1.0, 2049)
        for i in act:
            vals = C[i][None, :] + np.outer(ts, S[i])
            g = vals.min(axis=1)
            k = int(np.argmax(g))
            m[i] = g[k]
            tstar[i] = ts[k]
    return m, tstar


def max_profile(u: ConcaveFunction, h: Direction, n_lines: int = 16) -> MaxProfile:
    """Chord maxima along n_lines parallel lines in direction h.

    The per-chord maximum is exact for the PL function; the profile is a
    concave function of the offset.
    """
    if n_lines < 2:
        raise ValueError("n_lines must be at least 2")
    from .geometry import chords_batch

    normal = h.perp().as_array()
    proj = u.domain.vertices @ normal
    c, d = float(proj.min()), float(proj.max())
    ts = np.linspace(c, d, n_lines)
    P0, P1, valid = chords_batch(u.domain, normal, ts)
    ms, _ = chord_maxima(u, P0, P1)
    ms = np.where(valid, ms, 0.0)
    k = int(np.argmax(u.vert_values))
    return MaxProfile(h=h, offsets=ts, values=ms, M=float(u.vert_values[k]),
                      z=u.verts[k].copy())


# ---------------------------------------------------------------------------
# upper convex hull envelope
# ---------------------------------------------------------------------------


def _merge_upper_facets(points3, hull):
    """Group coplanar upper-hull simplices and re-triangulate each group by
    a fan from its lowest-index vertex, so the facet set is reproducible.

    Groups come out in the order of their lowest member simplex.  A simplex
    with no coplanar neighbour is a group of its own and is emitted directly;
    only the others go through the flood fill.
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


def _cone(dom: ConvexDomain, apex: np.ndarray, height: float):
    """Single-apex envelope in closed form: facet e is the triangle over
    edge e with its top at the apex, on the plane vanishing along edge e.

    The slack n_e . (v_e - apex) is taken from the difference rather than
    as the edge offset minus n_e . apex, which cancels for apexes near the
    boundary.
    """
    v = dom.vertices
    normals = dom.edge_normals()
    n = len(v)
    scale = height / np.einsum("ij,ij->i", normals, v - apex)
    planes = np.column_stack([-scale[:, None] * normals,
                              scale * np.einsum("ij,ij->i", normals, v)])
    e = np.arange(n)
    tris = np.column_stack([e, (e + 1) % n, np.full(n, n)])
    vert_values = np.zeros(n + 1)
    vert_values[n] = height
    return np.vstack([v, apex]), vert_values, tris, planes


def concave_envelope(dom: ConvexDomain, constraints) -> ConcaveFunction:
    """Least concave function that vanishes on the boundary and dominates
    the given interior heights; its graph is the 3D upper convex hull of
    the boundary ring at height zero plus the constraint points.

    constraints: iterable of ((x, y), height) with strictly interior points
    and positive heights.  Constraints that end up below the hull of the
    others are strictly exceeded rather than active.  One constraint gives
    a cone, built in closed form; more go through qhull and a merge of
    coplanar facets.
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

    if len(cons) == 1:
        verts, vert_values, tris, planes = _cone(dom, pts[0], hts[0])
    else:
        nb = dom.n
        points3 = np.zeros((nb + len(cons), 3))
        points3[:nb, :2] = dom.vertices
        points3[nb:, :2] = pts
        points3[nb:, 2] = hts
        try:
            hull = ConvexHull(points3, qhull_options="Qt")
        except QhullError as exc:
            raise ValueError(f"degenerate envelope input: {exc}") from exc
        tris, planes = _merge_upper_facets(points3, hull)
        used = np.unique(tris.ravel())
        remap = -np.ones(len(points3), dtype=np.int64)
        remap[used] = np.arange(len(used))
        verts, vert_values, tris = points3[used, :2], points3[used, 2], remap[tris]
    fn = ConcaveFunction(
        domain=dom,
        verts=verts,
        vert_values=vert_values,
        tris=tris,
        planes=planes,
        mode=CLASSICAL,
        trace=(),
        descriptor={"kind": "envelope",
                    "constraints": [[p[0], p[1], h] for p, h in cons]},
    )
    cover = fn.facet_areas.sum()
    if abs(cover - dom.area) > 1e-9 * max(dom.area, 1.0):
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
    """Trace segments of min-of-planes restricted to each domain edge.

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
            + planes[:, 2]).min(axis=1).tolist()
    return [TraceSegment(a=pts[i], b=pts[i + 1], va=vals[i], vb=vals[i + 1],
                         edge_index=int(edge[i]))
            for i in np.nonzero(edge[:-1] == edge[1:])[0]]


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
    A, B = dom.edges()
    best = (math.inf, -1)
    for e in range(dom.n):
        ab = B[e] - A[e]
        L2 = float(ab @ ab)
        lam = float(np.clip((pt - A[e]) @ ab / L2, 0.0, 1.0))
        dist = float(np.hypot(*(A[e] + lam * ab - pt)))
        if dist < best[0] - 1e-15:
            best = (dist, e)
    if best[0] > 10 * dom.tol:
        raise ValueError("anchor must lie on the boundary")
    return best[1]


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
    offsets = np.einsum("ij,ij->i", dom.vertices, normals)
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
    transpose of the linear part.
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
    trace_new = tuple(
        TraceSegment(a=lin @ s.a + shift, b=lin @ s.b + shift,
                     va=s.va, vb=s.vb, edge_index=s.edge_index)
        for s in u.trace
    )
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
    return abs(u.facet_areas.sum() - u.domain.area) <= tol * max(u.domain.area, 1.0)


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
