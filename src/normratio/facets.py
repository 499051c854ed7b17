"""Many concave piecewise-linear functions as one facet table.

The functions come in cases, each a run of functions on one domain.
Their facets and vertices are concatenated, each tagged with its
function and its case, so a value per function is one segment reduction
(``np.bincount``, ``np.maximum.reduceat``) over all of them rather than
one small array pass per function.  The elementwise work is that of the
per-function code in :mod:`norms` and :mod:`concave`: maxima and minima
come out bit for bit the same, and sums differ only in the order of
addition.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import E1, E2, dot2


def segments(counts) -> tuple:
    """(start of each segment, segment id of each element)."""
    return (np.cumsum([0, *counts[:-1]]),
            np.repeat(np.arange(len(counts), dtype=np.int32), counts))


def edge_table(doms) -> tuple:
    """(normals, offsets, margins) of the domains: domain c's edge normals
    and offsets fill the first rows of ``normals[c]`` and ``offsets[c]``,
    padded to the most edges of any of them with zero normals at +inf
    offsets, whose slack is +inf at every point."""
    normals = np.zeros((len(doms), max(d.n for d in doms), 2))
    offsets = np.full(normals.shape[:2], np.inf)
    for c, d in enumerate(doms):
        normals[c, :d.n] = d.edge_normals()
        offsets[c, :d.n] = d.edge_offsets()
    return normals, offsets, np.array([d.margin for d in doms])


def edge_slacks(normals, offsets, pts, dom):
    """Each point's slack to edge line j of its domain ``dom[i]`` in an
    :func:`edge_table`, one slot j = 0, 1, ... at a time:
    offset - (x n_x + y n_y), the floats that
    ``ConvexDomain.signed_boundary_distance`` takes the min of.  One slot
    at a time, in place, keeps memory linear in the points."""
    x, y = pts[:, 0], pts[:, 1]
    for j, (nx, ny) in enumerate(normals.transpose(1, 2, 0)):
        dot = nx[dom]
        dot *= x
        yy = ny[dom]
        yy *= y
        dot += yy
        del yy
        slack = offsets[dom, j]
        slack -= dot
        yield slack


class FacetTable:
    """The functions ``envelopes`` as one table, in cases: case c is the
    next ``per_case[c]`` functions, on the domain of the first of them.

    Function k owns the facets from ``fstart[k]`` and the vertices from
    ``vstart[k]``; ``tris`` index the concatenated vertices.  Each facet
    and vertex carries its function (``fenv``, ``venv``) and its case
    (``fcase``, ``vcase``); ``ecase`` is each function's case, and case c
    starts at function ``cstart[c]``.  The cases' domains form an
    :func:`edge_table` (``normals``, ``offsets``, ``margin``), built on
    first use.  The norms read facets only, so the functions must vanish
    on the boundary (no jump part), as envelopes do; one with a boundary
    trace raises ValueError.
    """

    def __init__(self, envelopes, per_case):
        self.envelopes = envs = list(envelopes)
        if any(u.trace.any() for u in envs):
            raise ValueError("a function with a boundary trace has a jump "
                             "part that the facet table does not hold")
        self.ncases = len(per_case)
        self.cstart, self.ecase = segments(per_case)
        self.fstart, self.fenv = segments([u.n_facets for u in envs])
        self.vstart, self.venv = segments([len(u.verts) for u in envs])
        self.fcase, self.vcase = self.ecase[self.fenv], self.ecase[self.venv]
        self.planes = np.concatenate([u.planes for u in envs])
        self.areas = np.concatenate([u.facet_areas for u in envs])
        self.verts = np.concatenate([u.verts for u in envs])
        self.vert_values = np.concatenate([u.vert_values for u in envs])
        self.max_values = np.maximum.reduceat(self.vert_values, self.vstart)
        self.tris = np.concatenate([u.tris + lo
                                    for u, lo in zip(envs, self.vstart)],
                                   dtype=np.int32, casting="same_kind")

    @cached_property
    def _edges(self) -> tuple:
        return edge_table([self.envelopes[k].domain for k in self.cstart])

    normals = property(lambda self: self._edges[0])
    offsets = property(lambda self: self._edges[1])
    margin = property(lambda self: self._edges[2])

    def slopes(self, h: np.ndarray) -> np.ndarray:
        """|d_h u| on each facet; h is one direction or one per facet."""
        return np.abs(dot2(self.planes[:, :2], h))

    @cached_property
    def axis_slopes(self) -> np.ndarray:
        """(facets, 2): |d_h u| along E1 and E2."""
        return np.stack([self.slopes(h.as_array()) for h in (E1, E2)], axis=1)

    def axis_norms(self, p: float) -> np.ndarray:
        """(functions, 2): ||d_h u||_p along E1 and E2, for finite p >= 1."""
        return np.stack([np.bincount(self.fenv, s ** p * self.areas,
                                     len(self.fstart))
                         for s in self.axis_slopes.T], axis=1) ** (1.0 / p)

    @cached_property
    def axis_sups(self) -> np.ndarray:
        """(functions, 2): ||d_h u||_inf along E1 and E2."""
        return np.maximum.reduceat(self.axis_slopes, self.fstart)

    def _slack(self) -> np.ndarray:
        """(vertices, most edges): each vertex's slack to its case's edge
        lines, as ``ConvexDomain.signed_boundary_distance`` takes it before
        its min; +inf at padded edges.  One pass per edge slot keeps
        memory linear in the vertices."""
        slack = np.empty((len(self.verts), self.offsets.shape[1]))
        for j, col in enumerate(edge_slacks(self.normals, self.offsets,
                                            self.verts, self.vcase)):
            slack[:, j] = col
        return slack

    @cached_property
    def near_edge(self) -> np.ndarray:
        """(vertices, most edges): vertices within margin of an edge line."""
        return np.abs(self._slack()) <= self.margin[self.vcase, None]

    @cached_property
    def facet_on_boundary(self) -> np.ndarray:
        """Facets with a vertex within margin of the boundary, as
        ``ConcaveFunction.facet_on_boundary`` marks them."""
        bd = np.abs(self._slack().min(axis=1)) <= self.margin[self.vcase]
        return bd[self.tris].any(axis=1)

    def min_planes(self, pts: np.ndarray, env: np.ndarray) -> np.ndarray:
        """At each point, the min over its function's planes: what
        ``concave.plane_values(u, pts).min(axis=1)`` gives, bit for bit,
        from one pass per plane slot (:func:`plane_slots`)."""
        out = np.full(len(pts), np.inf)
        for _, _, vals in plane_slots(self.planes, self.fstart, pts, env):
            np.minimum(out, vals, out=out)
        return out


def plane_slots(planes, fstart, pts, fn):
    """Plane j of function ``fn[i]`` at each point i, one slot j = 0, 1,
    ... at a time: the arrays (g_x, g_y, value), value the rounding of
    ``concave.plane_values``, (x g_x + y g_y) + z0.  Function k owns the
    ``planes`` from ``fstart[k]`` on.  The planes are padded to (most
    planes, 3, functions), and a function with fewer planes gets gradient
    0 at z0 = +inf in the slots it lacks, never the min and never within
    a finite distance of it.  One slot at a time keeps memory linear in
    the points.
    """
    nf = np.diff(np.append(fstart, len(planes)))
    pad = np.zeros((nf.max(), 3, len(nf)))
    pad[:, 2] = np.inf
    pad[np.arange(len(planes)) - np.repeat(fstart, nf), :,
        np.repeat(np.arange(len(nf)), nf)] = planes
    x, y = pts[:, 0], pts[:, 1]
    for gx, gy, z0 in pad:
        gx, gy = gx[fn], gy[fn]
        yield gx, gy, x * gx + y * gy + z0[fn]


# the planes within TIE (relative) of the min at a point are its active
# planes, and their gradients agree when within AGREE (relative)
TIE = 1e-11
AGREE = 1e-9


def active_gradients(planes, fstart, pts, fn) -> tuple:
    """Values and gradients at many points, each in its own function, and
    whether the active planes agree there.

    Point i is in function ``fn[i]``, which owns the ``planes`` from
    ``fstart[fn[i]]`` on.  Plane j is active at a point when its value is
    at most v + TIE (1 + |v|), v the min over the planes; the active
    gradients agree when none differs from the first active one by more
    than AGREE (1 + the largest active gradient component), component by
    component.  At a point with one active plane the difference is 0, so
    only points with two or more are compared.  Every step is a pass per
    plane slot (:func:`plane_slots`).  Returns (values, gradient of the
    first active plane, agree).
    """
    fn = np.asarray(fn)
    vmin = np.full(len(pts), np.inf)
    for _, _, vals in plane_slots(planes, fstart, pts, fn):
        np.minimum(vmin, vals, out=vmin)
    top = vmin + TIE * (1.0 + np.abs(vmin))
    ties = np.zeros(len(pts), dtype=int)
    first = np.zeros(len(pts), dtype=int)
    for j, (_, _, vals) in enumerate(plane_slots(planes, fstart, pts, fn)):
        tie = vals <= top
        first[tie & (ties == 0)] = j
        ties += tie
    grads = planes[np.asarray(fstart)[fn] + first, :2]
    agree = ties < 2
    (many,) = np.nonzero(~agree)
    if len(many):
        fx, fy = grads[many].T
        spread, mag = np.zeros((2, len(many)))
        for gx, gy, vals in plane_slots(planes, fstart, pts[many], fn[many]):
            tie = vals <= top[many]
            spread = np.maximum(spread, np.where(
                tie, np.maximum(np.abs(gx - fx), np.abs(gy - fy)), 0.0))
            mag = np.maximum(mag, np.where(
                tie, np.maximum(np.abs(gx), np.abs(gy)), 0.0))
        agree[many] = spread <= AGREE * (1.0 + mag)
    return vmin, grads, agree
