"""Directional derivative norms of concave piecewise-linear functions.

For a PL function the directional derivative d_h u is constant on each
facet, so L^p norms reduce to exact finite sums over facets.  Functions in
distributional mode carry a nonzero boundary trace; their derivative
acquires a singular sheet along the boundary whose mass enters the L1 norm
(weighted by |h . n_edge|) and makes every p > 1 norm infinite unless the
sheet is parallel to h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concave import ConcaveFunction, chord_maxima, plane_values
from .geometry import Direction, chord, chords_batch


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

    def to_dict(self) -> dict:
        out = {"p": self.p, "h": [self.h.dx, self.h.dy], "value": self.value,
               "method": self.method, "ac_part": self.ac_part,
               "jump_part": self.jump_part}
        if self.p == math.inf:
            out["argmax_facet"] = self.argmax_facet
            out["attained_on_boundary"] = self.attained_on_boundary
        return out


def _jump_mass(u: ConcaveFunction, h: Direction) -> float:
    """Total variation of the singular boundary sheet in direction h.

    Each trace segment carries density |trace| ds on an edge with outward
    normal n; its contribution to d_h u is weighted by |h . n|.
    """
    if not u.trace:
        return 0.0
    edge = np.array([seg.edge_index for seg in u.trace])
    ends = np.array([(seg.a, seg.b) for seg in u.trace])      # (S, 2, 2)
    mean = 0.5 * np.array([seg.va + seg.vb for seg in u.trace])
    w = np.abs(u.domain.edge_normals()[edge] @ h.as_array())
    length = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    # trace is linear and nonnegative on each segment
    return float(w * length @ mean)


def lp_directional_norm(u: ConcaveFunction, h: Direction, p) -> NormReport:
    """Exact ||d_h u||_p.  p >= 1 or math.inf.

    In distributional mode only p = 1 is finite when the boundary sheet has
    a component along h; p > 1 then raises rather than returning infinity.
    """
    if p == math.inf:
        return sup_directional_norm(u, h)
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be at least 1")
    slopes = np.abs(u.gradients() @ h.as_array())
    jump = _jump_mass(u, h)
    scale = 1e-12 * (1.0 + u.max_value)
    if p == 1.0:
        ac = float(slopes @ u.facet_areas)
        return NormReport(value=ac + jump, p=p, h=h, ac_part=ac, jump_part=jump)
    if jump > scale:
        raise ValueError(
            f"||d_h u||_{p} is infinite: distributional boundary sheet has a "
            "component along h")
    ac = float((slopes ** p) @ u.facet_areas) ** (1.0 / p)
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
    slopes = np.abs(u.gradients() @ h.as_array())
    best = float(slopes.max())
    near = slopes >= best * (1.0 - 1e-12)
    on_bd = bool(np.any(near & u.facet_on_boundary))
    k = int(np.argmax(np.where(near & u.facet_on_boundary, slopes, -np.inf))) \
        if on_bd else int(np.argmax(slopes))
    return NormReport(value=best, p=math.inf, h=h, ac_part=best, jump_part=0.0,
                      method="facet-max", argmax_facet=k,
                      attained_on_boundary=on_bd)


def scanline_l1_norm(u: ConcaveFunction, h: Direction,
                     n_lines: int = 129) -> NormReport:
    """||d_h u||_1 via per-line maxima: the derivative's total variation
    along a line parallel to h equals twice the chord maximum (boundary
    jumps included), so the norm is the integral of 2 m_h(t) over offsets.

    The chord-max profile is piecewise linear with breakpoints at vertex
    projections; those are merged into the offset grid, which makes the
    trapezoid rule exact up to roundoff.  The reported value is computed
    from chord maxima alone (independent of the facet sums); only the
    ac/jump split in the report reuses the boundary-sheet mass.
    """
    if n_lines < 16:
        raise ValueError("n_lines must be at least 16")
    normal = h.perp().as_array()
    proj = u.domain.vertices @ normal
    c, d = float(proj.min()), float(proj.max())
    knots = np.concatenate([np.linspace(c, d, max(int(n_lines), 2)),
                            u.verts @ normal])
    knots = np.unique(np.clip(knots, c, d))
    keep = np.concatenate([[True], np.diff(knots) > 1e-13 * (1.0 + abs(d - c))])
    ts = knots[keep]
    P0, P1, valid = chords_batch(u.domain, normal, ts)
    ms, _ = chord_maxima(u, P0, P1)
    ms = np.where(valid, ms, 0.0)
    value = float(np.trapezoid(2.0 * ms, ts))
    jump = _jump_mass(u, h)
    return NormReport(value=value, p=1.0, h=h, ac_part=value - jump,
                      jump_part=jump, method="scan-line")


def line_integral_abs_dh(u: ConcaveFunction, h: Direction, t: float) -> float:
    """Exact integral of |d_h u| along the chord {x . perp(h) = t}, plus the
    boundary jumps at the chord's endpoints.

    Computed from the facet partition directly (each facet clipped against
    the line contributes |g . h| times the overlap length), independently of
    the chord-max identity it is used to cross-check.
    """
    normal = h.perp().as_array()
    ch = chord(u.domain, normal, t)
    if ch is None:
        return 0.0
    a, b = ch.a, ch.b
    d = b - a
    L = float(np.hypot(*d))
    if L <= u.domain.tol:
        return 0.0
    harr = h.as_array()
    total = 0.0
    for f in range(u.n_facets):
        tri = u.verts[u.tris[f]]
        lo, hi = _triangle_line_overlap(tri, a, d)
        if hi > lo:
            total += abs(float(u.planes[f, :2] @ harr)) * (hi - lo) * L
    va = float(plane_values(u, a[None, :]).min())
    vb = float(plane_values(u, b[None, :]).min())
    return total + va + vb


def _triangle_line_overlap(tri: np.ndarray, a: np.ndarray, d: np.ndarray):
    """Parameter interval of {a + s d, s in [0, 1]} inside a triangle."""
    lo, hi = 0.0, 1.0
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        e = q - p
        # inside is to the left of each CCW edge: cross(e, x - p) >= 0
        denom = e[0] * d[1] - e[1] * d[0]
        num = e[0] * (a[1] - p[1]) - e[1] * (a[0] - p[0])
        if abs(denom) < 1e-15 * (1.0 + abs(num)):
            if num < 0:
                return 0.0, 0.0
            continue
        s = -num / denom
        if denom < 0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        if lo >= hi:
            return 0.0, 0.0
    return lo, hi


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
