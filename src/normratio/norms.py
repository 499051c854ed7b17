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

from .concave import ConcaveFunction, chord_max_hulls
from .facets import directional_norms, slopes
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


def _jump_mass(u: ConcaveFunction, h: Direction, p=1.0) -> float:
    """Total variation of the singular boundary sheet in direction h.

    Edge e carries the nonnegative trace with mean trace[e], so mass
    |e| * trace[e]; its contribution to d_h u is weighted by |h . n_e|.
    A mass above p = 1 makes ||d_h u||_p infinite, and raises ValueError.
    """
    if not np.count_nonzero(u.trace):
        return 0.0
    dom = u.domain
    w = np.abs(dot2(dom.edge_normals(), h.as_array()))
    mass = float((w * dom.edge_lengths() * u.trace).sum())
    if p > 1.0 and mass > 1e-12 * (1.0 + u.max_value):
        raise ValueError(
            f"||d_h u||_{float(p)} is infinite: distributional boundary "
            "sheet has a component along h")
    return mass


def lp_directional_norm(u: ConcaveFunction, h: Direction, p) -> NormReport:
    """Exact ||d_h u||_p.  p >= 1 or math.inf.

    The facet part is :func:`facets.directional_norms` of u alone, which
    raises for p < 1 and for a facet sum out of range.  With a nonzero
    boundary trace only p = 1 is finite when the boundary sheet has a
    component along h; p > 1 then raises rather than returning infinity.
    """
    if p == math.inf:
        return sup_directional_norm(u, h)
    jump = _jump_mass(u, h, p)
    (ac,) = directional_norms(u.planes, u.facet_areas, [0], h.as_array(), p)
    jump = jump if p == 1 else 0.0
    return NormReport(value=ac + jump, p=float(p), h=h, ac_part=ac,
                      jump_part=jump)


def sup_directional_norm(u: ConcaveFunction, h: Direction) -> NormReport:
    """Essential sup of |d_h u|, with the attaining facet.

    The maximum slope of a concave function vanishing on the boundary is
    realized on a facet touching the boundary; the report records whether
    that held so verification suites can assert it.
    """
    _jump_mass(u, h, math.inf)
    g = h.as_array()
    (best,) = directional_norms(u.planes, u.facet_areas, [0], g, math.inf)
    s = slopes(u.planes, g)
    near_bd = (s >= best * (1.0 - 1e-12)) & u.facet_on_boundary
    on_bd = bool(near_bd.any())
    k = int(np.argmax(np.where(near_bd, s, -np.inf) if on_bd else s))
    return NormReport(value=best, p=math.inf, h=h, ac_part=best, jump_part=0.0,
                      method="facet-max", argmax_facet=k,
                      attained_on_boundary=on_bd)


def scanline_l1_norm(u: ConcaveFunction, h: Direction) -> NormReport:
    """||d_h u||_1 via per-line maxima: :func:`scanline_l1_norms` over one
    function.  The reported value reads vertex values alone (independent
    of the facet sums); only the ac/jump split in the report reuses the
    boundary-sheet mass.
    """
    (value,) = scanline_l1_norms(u.verts, u.vert_values, [0], [0],
                                 h.as_array(), u.domain.tol).tolist()
    jump = _jump_mass(u, h)
    return NormReport(value=value, p=1.0, h=h, ac_part=value - jump,
                      jump_part=jump, method="scan-line")


def scanline_l1_norms(verts, values, vstart, fn, h, tol) -> np.ndarray:
    """||d_h u||_1 of many (function, direction) pairs via per-line
    maxima: the derivative's total variation along a line parallel to h
    equals twice the chord maximum (boundary jumps included), so the norm
    is the integral of 2 m_h(t) over offsets.

    The meshes, ``fn``, h and tol are as :func:`concave.chord_max_hulls`
    takes them, with the directions h in place of their normals.  The
    chord-max profile m_h is the upper hull of the projected graph
    vertices, a polyline, so the trapezoid rule over its breakpoints is
    exact up to roundoff.
    """
    h = np.broadcast_to(h, np.shape(fn) + (2,))
    normals = np.stack([-h[..., 1], h[..., 0]], axis=-1)        # perp(h)
    t, m, cut = chord_max_hulls(verts, values, vstart, fn, normals, tol)
    # np.trapezoid(2 m, t) per profile: its terms for every profile at
    # once, then each profile's own sum, which numpy adds pairwise from
    # that profile's terms alone, so a value is the bits a lone call gives
    y = 2.0 * m
    terms = np.diff(t) * (y[1:] + y[:-1]) / 2.0
    return np.array([terms[a:b - 1].sum() for a, b in zip(cut[:-1], cut[1:])])


def line_integral_abs_dh(u: ConcaveFunction, h: Direction,
                         t: float | np.ndarray) -> float | np.ndarray:
    """Exact integral of |d_h u| along the chord {x . perp(h) = t}, plus the
    boundary jumps at the chord's endpoints: :func:`line_masses` over the
    lines of one function.

    t may be a 1-D array of offsets: the result is then an array.  A scalar
    t gives a float.
    """
    dom = u.domain
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    proj = dot2(dom.vertices, h.perp().as_array())
    out = line_masses(u.verts, u.vert_values, u.tris, u.planes, [0],
                      np.zeros(len(ts), dtype=int), h.as_array(), ts,
                      proj.min(), proj.max(), dom.tol)
    return float(out[0]) if np.ndim(t) == 0 else out


def line_masses(verts, values, tris, planes, fstart, fn, h, t, lo, hi,
                tol) -> np.ndarray:
    """Exact integrals of |d_h u| along many lines, each through its own
    function, plus the boundary jumps at each chord's ends.

    The functions' meshes come concatenated: function k owns the facets
    (``tris``, ``planes``) from ``fstart[k]`` on, and ``tris`` index
    ``verts`` and their ``values``.  Line i is {x . perp(h[i]) = t[i]}
    through function ``fn[i]``, whose domain projects onto [lo[i], hi[i]]
    with tolerance tol[i]; h, lo, hi and tol may also be one for all lines.

    Computed from the facet partition directly, independently of the
    chord-max identity it is used to cross-check.  The signed distances of
    a facet's vertices to the line give the facet's interval on it (its
    vertices on the line and its edge crossings), which contributes
    |g . h| times its length.  The extreme interval ends are the chord's
    ends, and u there is interpolated along the mesh edge they lie on; of
    equal ends the first in facet order counts.  A mesh edge on the line
    bounds two facets and counts once, for the first of them.  As in
    :func:`geometry.chord`, an offset within tol of a support value clamps
    to it, and a vertex within tol of the line lies on it; a line farther
    off the domain gives 0.

    Pass j takes facet j of every line whose function has more than j
    facets, so the transients stay (lines, 6) whatever the facet counts,
    and each line adds its facets' terms in facet order: a line's value
    does not depend on the other lines of the batch.
    """
    fstart, fn, t = np.asarray(fstart), np.asarray(fn), np.asarray(t)
    h = np.broadcast_to(h, t.shape + (2,))
    tol = np.broadcast_to(tol, t.shape)
    meets = (t >= lo - tol) & (t <= hi + tol)
    at = np.clip(t, lo, hi)
    nf = np.diff(np.append(fstart, len(tris)))[fn]
    # lines by falling facet count, so pass j's lines are the first live[j]
    order = np.argsort(-nf)
    live = (len(t) - np.cumsum(np.bincount(nf))).tolist()
    first = fstart[fn][order]
    hx, hy = h[order, 0, None], h[order, 1, None]
    nx, ny = -hy, hx                                        # perp(h)
    at, tol = at[order, None], tol[order, None]
    x, y, gx, gy = verts[:, 0], verts[:, 1], planes[:, 0], planes[:, 1]
    nxt, rows = [1, 2, 0], np.arange(len(t))
    ac = np.zeros(len(t))
    edge = np.full((len(t), len(live) - 1), -1)     # mesh edges on the line
    end_lo, end_hi = np.full(len(t), np.inf), np.full(len(t), -np.inf)
    z_lo, z_hi = np.zeros(len(t)), np.zeros(len(t))
    for j, m in enumerate(live[:-1]):
        f = first[:m] + j
        tri = tris[f]                                          # (m, 3)
        px, py = x[tri], y[tri]
        s = px * nx[:m] + py * ny[:m] - at[:m]
        s[np.abs(s) <= tol[:m]] = 0.0
        sn = s[:, nxt]
        on = s == 0.0
        cross = s * sn < 0.0
        lam = s / np.where(cross, s - sn, 1.0)
        # (position along h, value) at the vertices, then at the crossings
        qz = np.stack([px * hx[:m] + py * hy[:m], values[tri]], axis=2)
        qz = np.concatenate([qz, qz + lam[..., None] * (qz[:, nxt] - qz)],
                            axis=1)                               # (m, 6, 2)
        hit = np.concatenate([on, cross], axis=1)
        q_lo = np.where(hit, qz[..., 0], np.inf)
        q_hi = np.where(hit, qz[..., 0], -np.inf)
        i_lo, i_hi = q_lo.argmin(axis=1), q_hi.argmax(axis=1)
        r = rows[:m]
        q_lo, q_hi = q_lo[r, i_lo], q_hi[r, i_hi]
        length = np.maximum(q_hi - q_lo, 0.0)
        if on.any():
            pair = on.sum(axis=1) == 2
            if pair.any():
                # an edge on the line counts for the first facet that has it
                k = np.flatnonzero(pair)
                ends = np.sort(np.where(on[k], tri[k], -1), axis=1)
                edge[k, j] = ends[:, 1] * len(verts) + ends[:, 2]
                length[k[(edge[k, :j] == edge[k, j, None]).any(axis=1)]] = 0.0
        ac[:m] += length * np.abs(gx[f] * hx[:m, 0] + gy[f] * hy[:m, 0])
        # the chord's ends, the first extremes in facet order
        np.copyto(z_lo[:m], qz[r, i_lo, 1], where=q_lo < end_lo[:m])
        np.copyto(z_hi[:m], qz[r, i_hi, 1], where=q_hi > end_hi[:m])
        np.minimum(end_lo[:m], q_lo, out=end_lo[:m])
        np.maximum(end_hi[:m], q_hi, out=end_hi[:m])
    out = np.empty(len(t))
    out[order] = ac + z_lo + z_hi
    out[~meets] = 0.0
    return out


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
