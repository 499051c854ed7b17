"""Upper convex hulls for the envelope builder: one monotone chain (also
the chord-maximum profile's), the counterclockwise hull of a planar
point set, the fan of a facet polygon, and the gift wrap that finds the
facets of an envelope that lie over no domain edge.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import dot2

# frontier edges per array pass of a wrap round: a round over many sets
# takes its edges in slices, which bounds its arrays and per-edge lists
ROUND_EDGES = 64


def _chain(pts: list, seq, tol: float) -> list:
    """One monotone chain (Andrew 1979) through pts[i], i in seq: the last
    point kept is popped unless it lies more than tol right of the chord
    from the one before it to the next.  Over increasing x it is the lower
    hull."""
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


def _polygon_ccw(xy: np.ndarray, tol: float) -> list:
    """Indices of the convex hull vertices of xy, counterclockwise (two
    monotone chains); a point within tol of a hull edge is not a vertex."""
    pts = xy.tolist()
    order = np.lexsort((xy[:, 1], xy[:, 0])).tolist()
    return _chain(pts, order, tol)[:-1] + _chain(pts, order[::-1], tol)[:-1]


def _fan(poly: list):
    """A counterclockwise id list rotated to start at its lowest id, and
    the triangles fanned from that id, three ids each in one flat list (a
    triangle is its own fan)."""
    lo = poly.index(min(poly))
    poly = poly[lo:] + poly[:lo]
    if len(poly) == 3:
        return poly, poly
    return poly, [i for j in range(1, len(poly) - 1)
                  for i in (poly[0], poly[j], poly[j + 1])]


def _across(edges: list, xyz, pc, zc, tols: list):
    """One wrap round over the frontier edges (a, b, set) in one array
    pass: the plane of the facet across each edge.

    Per edge a -> b, with U = p_b - p_a and q = (z_b - z_a) / |U|^2, a row
    (g, c) of rows gives cr_k = g . p_k + c = (uy, -ux) . (p_k - p_a), |U|
    times candidate k's distance beyond the edge, and one of lin gives
    r_k = g . p_k + c + z_k = z_k - z_a - q U . (p_k - p_a), k's height
    over the edge.  The plane contains the candidate beyond the edge with
    the largest r_k / d_k.  xyz are the graph points (x, y, z), pc, zc
    each set's candidates, padded with nan, and tols each set's tol.
    Returns per edge the best candidate's position, whether it is the lone
    tie, the tie mask (within tol of the plane, measured normal to it, and
    not behind the edge) and the plane
    z_a + q U . (x - p_a) + s (uy, -ux) . (x - p_a).
    """
    ends = xyz.take([i for a, b, _ in edges for i in (a, b)], axis=0)
    rows, lin, reach = [], [], []
    for (ax, ay, za, bx, by, zb), (_, _, k) in zip(
            ends.reshape(-1, 6).tolist(), edges):
        ux, uy = bx - ax, by - ay
        len2 = ux * ux + uy * uy
        q = (zb - za) / len2
        rows.append([uy, -ux, ay * ux - ax * uy])
        lin.append([-q * ux, -q * uy, q * (ax * ux + ay * uy) - za])
        reach.append([tols[k] * math.sqrt(len2)])
    f = len(edges)
    g = np.array(rows + lin)
    if len(pc) > 1:         # each edge against its own set's candidates
        own = np.array([k for _, _, k in edges])
        pe, ze = pc[np.concatenate((own, own))], zc[own]
    else:                   # one set: its candidates broadcast over its edges
        pe, ze = pc[0], zc[0]
    cr, r = (dot2(g[:, None, :], pe) + g[:, 2:]).reshape(2, f, -1)
    r += ze
    reach = np.array(reach)
    beyond = cr > reach
    rho = np.divide(r, cr, out=np.full(r.shape, -np.inf), where=beyond)
    s = rho.max(axis=1)
    plane, thr = [], []
    for (nx, ny, n0), (lx, ly, l0), si, (_, _, k) in zip(rows, lin,
                                                         s.tolist(), edges):
        if si == -math.inf:
            raise ValueError("degenerate envelope input: a facet edge has no "
                             "point beyond it")
        gx, gy = si * nx - lx, si * ny - ly
        plane.append([gx, gy, si * n0 - l0])
        thr.append([tols[k] * math.sqrt(1.0 + gx * gx + gy * gy)])
    tie = s[:, None] * cr - r <= np.array(thr)
    lone = ((tie & beyond).sum(axis=1) == 1).tolist()
    # a tied candidate on the edge's line is no vertex, but keeps the tie
    # sets of one facet's frontier edges the same
    tie &= cr > -reach
    return rho.argmax(axis=1).tolist(), lone, tie, plane


def _interior_facets(xy: np.ndarray, z: np.ndarray, cands: list, polys: list,
                     rings: list, tols: list):
    """The upper-hull facets that are not over a domain edge, by gift
    wrapping (Chand & Kapur 1970) outward from the known facets, for one or
    more constraint sets, each over its own domain.

    xy and z index the graph points: each set's ring vertices and its
    constraints, each set's in the local frame of its own domain.  Set k's
    ring vertices are the ids in ``rings[k]`` (a range), and its
    constraints have larger ids, so a ring vertex is told from a
    constraint per set.  Set k is wrapped with its domain's ``tols[k]``,
    a float per set.  cands[k] holds set k's switch vertices
    (the ring vertices in it), then all its constraints, in increasing id
    order, so each tie set is taken in id order.  polys[k] are its known
    facets, the edge facets, as counterclockwise id lists; only those at a
    switch vertex or with two or more constraints are needed.  The
    frontier of a set is every facet edge of exactly one of its known
    facets that has a constraint end and no other ring end than one of its
    switch vertices: an edge at any other ring vertex is shared by the two
    edge facets there, and an edge between ring vertices is a domain edge.
    A facet or a frontier edge has a constraint, so it is of one set, and
    one frontier serves all sets.  Each round takes the frontier in array
    passes of at most :data:`ROUND_EDGES` edges (:func:`_across`), which
    bounds their arrays: the plane of the facet across a frontier edge
    contains the candidate of the edge's set on the far side that
    maximizes r_k / d_k, with d_k its distance from the edge's line and r_k
    its height over the edge.  The candidates within the set's tol of that
    plane (and not behind the edge) make one polygon
    (:func:`_polygon_ccw`), fanned from its lowest id; a facet reached from
    several frontier edges is kept once.  Every facet plane is >= 0 at
    every ring vertex, so the wrap reaches true facets only.  It raises
    ValueError when a frontier edge has no candidate beyond it, when a
    round finds no new facet, or when there are more facets than
    triangulations of the sets' points have.

    In the array pass the candidate lists are padded to one length with
    points at nan, which fail every comparison: a pad is never beyond an
    edge nor tied.

    Returns one pair per set, in the order of cands: its triangles,
    indexing xy, and their planes, in the frame of xy.
    """
    width = max(map(len, cands))
    cand = np.array([c + [-1] * (width - len(c)) for c in cands])   # (S, W)
    pc, zc = xy[cand], z[cand]
    if len(cands) * width > sum(map(len, cands)):
        pc[cand < 0], zc[cand < 0] = np.nan, np.nan
    switch = [{i for i in c if i in ring} for c, ring in zip(cands, rings)]
    known = set()
    frontier = {}        # (lo, hi) -> (a, b, set), known facet on the left

    def add(k, poly, facet):
        known.add(facet)
        sw, nb = switch[k], rings[k].stop     # set k's constraints are >= nb
        for a, b in zip(poly, poly[1:] + poly[:1]):
            edge = (a, b) if a < b else (b, a)
            if (frontier.pop(edge, None) is None
                    and (a >= nb or b >= nb) and (a >= nb or a in sw)
                    and (b >= nb or b in sw)):
                frontier[edge] = (a, b, k)

    for k, known_polys in enumerate(polys):
        for poly in known_polys:
            add(k, poly, tuple(sorted(poly)))
    # at most the facets of a triangulation of each set's points, its ring
    # and its constraints
    limit = 2 * (sum(map(len, rings)) + sum(map(len, cands))
                 - sum(map(len, switch)))
    xyz = np.concatenate((xy, z[:, None]), axis=1)
    tris = [[] for _ in cands]
    planes = [[] for _ in cands]
    while frontier:
        edges = list(frontier.values())
        seen = {}
        found = False
        for c in range(0, len(edges), ROUND_EDGES):
            chunk = edges[c:c + ROUND_EDGES]
            best, lone, tie, plane = _across(chunk, xyz, pc, zc, tols)
            for i, (a, b, k) in enumerate(chunk):
                if lone[i]:
                    poly = [b, a, cands[k][best[i]]]
                else:
                    tied = (k, tie[i].tobytes())
                    if tied not in seen:
                        # the tie set and the edge's ends, in increasing id
                        # order
                        row = cand[k]
                        sel = row[tie[i] | (row == a) | (row == b)]
                        seen[tied] = sel[_polygon_ccw(xy[sel] - xy[a],
                                                      tols[k])].tolist()
                    poly = seen[tied]
                facet = tuple(sorted(poly))
                if facet not in known:
                    poly, fan = _fan(poly)
                    add(k, poly, facet)
                    found = True
                    tris[k] += fan
                    planes[k] += plane[i] * (len(fan) // 3)
        if not found:
            raise ValueError("degenerate envelope input: the wrap found no "
                             "new facet")
        if len(known) > limit:
            raise ValueError("degenerate envelope input: more facets than a "
                             "triangulation has")
    return [(np.array(t, dtype=np.int64).reshape(-1, 3),
             np.array(p, dtype=float).reshape(-1, 3))
            for t, p in zip(tris, planes)]
