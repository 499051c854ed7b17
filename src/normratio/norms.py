"""Directional derivative norms of concave piecewise-linear functions.

For a PL function the directional derivative d_h u is constant on each
facet, so L^p norms reduce to exact finite sums over facets.  Functions
with a nonzero boundary trace (the distributional case) jump at the
boundary; their derivative acquires a singular sheet along the boundary
whose mass enters the L1 norm (weighted by |h . n_edge|) and makes every
p > 1 norm infinite unless the sheet is parallel to h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concave import ConcaveFunction, chord_max_hull
from .geometry import Direction, dot2


@dataclass(frozen=True)
class NormReport:
    """Value of ||d_h u||_p with its absolutely-continuous/jump split."""

    value: float
    p: float
    h: Direction
    ac_part: float
    jump_part: float
    method: str = "facet-sum"
    argmax_facet: int = -1          # sup norm only
    attained_on_boundary: bool = False


def _jump_mass(u: ConcaveFunction, h: Direction) -> float:
    """Total variation of the singular boundary sheet in direction h.

    Edge e carries the nonnegative trace with mean trace[e], so mass
    |e| * trace[e]; its contribution to d_h u is weighted by |h . n_e|.
    """
    if not u.trace.any():
        return 0.0
    dom = u.domain
    w = np.abs(dot2(dom.edge_normals(), h.as_array()))
    return float((w * dom.edge_lengths() * u.trace).sum())


def lp_directional_norm(u: ConcaveFunction, h: Direction, p) -> NormReport:
    """Exact ||d_h u||_p.  p >= 1 or math.inf.

    With a nonzero boundary trace only p = 1 is finite when the boundary
    sheet has a component along h; p > 1 then raises rather than returning infinity.
    """
    if p == math.inf:
        return sup_directional_norm(u, h)
    p = float(p)
    if not p >= 1.0:                    # NaN too
        raise ValueError("p must be at least 1")
    slopes = np.abs(dot2(u.planes[:, :2], h.as_array()))
    jump = _jump_mass(u, h)
    scale = 1e-12 * (1.0 + u.max_value)
    if p == 1.0:
        ac = float((slopes * u.facet_areas).sum())
        return NormReport(value=ac + jump, p=p, h=h, ac_part=ac, jump_part=jump)
    if jump > scale:
        raise ValueError(
            f"||d_h u||_{p} is infinite: distributional boundary sheet has a "
            "component along h")
    ac = float((slopes ** p * u.facet_areas).sum()) ** (1.0 / p)
    return NormReport(value=ac, p=p, h=h, ac_part=ac, jump_part=0.0)


def sup_directional_norm(u: ConcaveFunction, h: Direction) -> NormReport:
    """Essential sup of |d_h u|, with the attaining facet.

    The maximum slope of a concave function vanishing on the boundary is
    realized on a facet touching the boundary; the report records whether
    that held so verification suites can assert it.
    """
    jump = _jump_mass(u, h)
    scale = 1e-12 * (1.0 + u.max_value)
    if jump > scale:
        raise ValueError(
            "||d_h u||_inf is infinite: distributional boundary sheet has a "
            "component along h")
    slopes = np.abs(dot2(u.planes[:, :2], h.as_array()))
    k = int(np.argmax(slopes))
    best = float(slopes[k])
    near_bd = (slopes >= best * (1.0 - 1e-12)) & u.facet_on_boundary
    on_bd = bool(near_bd.any())
    if on_bd:
        k = int(np.argmax(np.where(near_bd, slopes, -np.inf)))
    return NormReport(value=best, p=math.inf, h=h, ac_part=best, jump_part=0.0,
                      method="facet-max", argmax_facet=k,
                      attained_on_boundary=on_bd)


def scanline_l1_norm(u: ConcaveFunction, h: Direction) -> NormReport:
    """||d_h u||_1 via per-line maxima: the derivative's total variation
    along a line parallel to h equals twice the chord maximum (boundary
    jumps included), so the norm is the integral of 2 m_h(t) over offsets.

    The chord-max profile m_h is the upper hull of the projected graph
    vertices (see :func:`chord_max_hull`), a polyline, so the trapezoid rule
    over its breakpoints is exact up to roundoff.  The reported value reads
    vertex values alone (independent of the facet sums); only the ac/jump
    split in the report reuses the boundary-sheet mass.
    """
    ts, ms = chord_max_hull(u, h.perp().as_array())
    value = float(np.trapezoid(2.0 * ms, ts))
    jump = _jump_mass(u, h)
    return NormReport(value=value, p=1.0, h=h, ac_part=value - jump,
                      jump_part=jump, method="scan-line")


def line_integral_abs_dh(u: ConcaveFunction, h: Direction,
                         t: float | np.ndarray) -> float | np.ndarray:
    """Exact integral of |d_h u| along the chord {x . perp(h) = t}, plus the
    boundary jumps at the chord's endpoints.

    Computed from the facet partition directly, independently of the
    chord-max identity it is used to cross-check.  The signed distances of
    a facet's vertices to the line give the facet's interval on it (its
    vertices on the line and its edge crossings), which contributes
    |g . h| times its length.  The extreme interval ends are the chord's
    ends, and u there is interpolated along the mesh edge they lie on.  A
    mesh edge on the line bounds two facets and counts once.  As in
    :func:`geometry.chord`, an offset within tol of a support value clamps
    to it, and a vertex within tol of the line lies on it; a line farther
    off the domain gives 0.

    t may be a 1-D array of offsets: all lines are then one array pass,
    and the result is an array.  A scalar t gives a float.
    """
    n, harr = h.perp().as_array(), h.as_array()
    dom = u.domain
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    proj = dot2(dom.vertices, n)
    lo, hi = float(proj.min()), float(proj.max())
    meets = (ts >= lo - dom.tol) & (ts <= hi + dom.tol)
    dist = dot2(u.verts, n) - np.clip(ts, lo, hi)[:, None]         # (L, V)
    dist[np.abs(dist) <= dom.tol] = 0.0
    s = dist[:, u.tris]                                           # (L, F, 3)
    nxt = [1, 2, 0]
    cross = s * s[..., nxt] < 0.0
    lam = s / np.where(cross, s - s[..., nxt], 1.0)
    # (position along h, value) at the vertices, then at the edge crossings
    qz = np.column_stack([dot2(u.verts, harr), u.vert_values])[u.tris]  # (F, 3, 2)
    qz = np.concatenate(
        [np.broadcast_to(qz, lam.shape + (2,)),
         qz + lam[..., None] * (qz[:, nxt] - qz)], axis=2)         # (L, F, 6, 2)
    on = s == 0.0
    hit = np.concatenate([on, cross], axis=2)                     # (L, F, 6)
    q_lo = np.where(hit, qz[..., 0], np.inf)
    q_hi = np.where(hit, qz[..., 0], -np.inf)
    length = np.maximum(q_hi.max(axis=2) - q_lo.min(axis=2), 0.0)  # (L, F)
    pair = on.sum(axis=2) == 2
    for i in np.flatnonzero(pair.any(axis=1)).tolist():
        edge_facets = np.flatnonzero(pair[i])
        ends = np.sort(np.where(on[i, edge_facets], u.tris[edge_facets], -1),
                       axis=1)[:, 1:]
        _, first = np.unique(ends[:, 0] * len(u.verts) + ends[:, 1],
                             return_index=True)
        length[i, np.delete(edge_facets, first)] = 0.0
    ac = (length * np.abs(dot2(u.planes[:, :2], harr))).sum(axis=1)
    z = qz[..., 1].reshape(len(ts), -1)
    rows = np.arange(len(ts))
    out = (ac + z[rows, q_lo.reshape(len(ts), -1).argmin(axis=1)]
           + z[rows, q_hi.reshape(len(ts), -1).argmax(axis=1)])
    out[~meets] = 0.0
    return float(out[0]) if np.ndim(t) == 0 else out


def norm_ratio(u: ConcaveFunction, h1: Direction, h2: Direction, p) -> float:
    """||d_h1 u||_p / ||d_h2 u||_p with extended-real semantics: a zero
    denominator gives inf when the numerator is positive.  Both norms
    vanishing means u is constant (hence zero, since it vanishes on the
    boundary) and the ratio is undefined -- that case raises."""
    num = lp_directional_norm(u, h1, p).value
    den = lp_directional_norm(u, h2, p).value
    if den == 0.0:
        if num == 0.0:
            raise ValueError("both directional norms vanish; ratio undefined")
        return math.inf
    return num / den
