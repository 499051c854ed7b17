"""Upper bounds for directional derivative norm ratios over concave
functions, with attainment certificates where the theory provides them.

Conventions: width(dom, h) is the distance between the two support lines
parallel to h.  The L1 ratio sup ||d_h1 u||_1 / ||d_h2 u||_1 is bounded by
2 width(h1) / width(h2); equality needs a chord parallel to h2 joining the
two h1-parallel support sets.  For p > 1 and orthogonal direction pairs the
bound comes from a sheared normalization, a one-dimensional Poincare
inequality and the maximal boundary slope; for p = inf the maximal slope
itself is the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    E1,
    E2,
    Chord,
    ConvexDomain,
    Direction,
    chord,
    dot2,
    extreme_x_points,
    max_boundary_slope,
    vertical_support_classification,
    width,
    width_extremes,
)


@dataclass(frozen=True)
class BoundReport:
    """One bound application: value, inputs, and certificate data."""

    kind: str
    p: float
    value: float
    h1: Direction | None = None
    h2: Direction | None = None
    attained: bool | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "p": self.p, "value": self.value}
        if self.h1 is not None:
            out["h1"] = [self.h1.dx, self.h1.dy]
        if self.h2 is not None:
            out["h2"] = [self.h2.dx, self.h2.dy]
        if self.attained is not None:
            out["attained"] = self.attained
        out.update(self.details)
        return out


# ---------------------------------------------------------------------------
# p = 1: width-quotient bounds and chord certificates
# ---------------------------------------------------------------------------


def directional_k1_upper(dom: ConvexDomain, h1: Direction, h2: Direction) -> BoundReport:
    """sup ||d_h1 u||_1 / ||d_h2 u||_1 <= 2 width(h1) / width(h2)."""
    w1 = width(dom, h1)
    w2 = width(dom, h2)
    cert = k1_certificate(dom, h1, h2)
    return BoundReport(
        kind="directional-l1", p=1.0, value=2.0 * w1 / w2, h1=h1, h2=h2,
        attained=cert is not None,
        details={"w1": w1, "w2": w2,
                 "certificate_chord": None if cert is None else
                 [list(map(float, cert.a)), list(map(float, cert.b))]},
    )


def k1_certificate(dom: ConvexDomain, h1: Direction, h2: Direction) -> Chord | None:
    """Chord parallel to h2 joining both h1-parallel support sets, if any.

    The tent over such a chord realizes the 2 w1 / w2 bound: its crest
    projects onto the whole h1-width, so every scan line parallel to h1
    sees the full maximum.
    """
    n1 = h1.perp().as_array()
    n2 = h2.perp().as_array()
    verts = dom.vertices
    proj1 = dot2(verts, n1)
    tol = dom.tol
    lo_set = verts[proj1 <= proj1.min() + tol]
    hi_set = verts[proj1 >= proj1.max() - tol]
    s_lo = dot2(lo_set, n2)
    s_hi = dot2(hi_set, n2)
    a = max(s_lo.min(), s_hi.min())
    b = min(s_lo.max(), s_hi.max())
    if b < a - tol:
        return None
    s_star = 0.5 * (a + b)
    return chord(dom, n2, s_star)


def uniform_k1_upper(dom: ConvexDomain) -> BoundReport:
    """Direction-free bound 2 w_max / w_min, with the orthogonality test.

    The bound holds for every direction pair.  When a minimal-width
    direction is orthogonal to a maximal-width one the pair realizing the
    quotient exists and the bound is reported as attainable.
    """
    we = width_extremes(dom)
    value = 2.0 * we.w_max / we.w_min
    # minimal width is achieved along h_min; check the width a quarter turn
    # away against w_max
    theta = we.h_min.angle()
    w_perp = width(dom, Direction.from_angle(theta + 0.5 * math.pi))
    orthogonal = abs(w_perp - we.w_max) <= 1e-4 * max(we.w_max, 1.0)
    cert = None
    if orthogonal:
        cert = k1_certificate(dom, Direction.from_angle(theta + 0.5 * math.pi),
                              we.h_min)
    return BoundReport(
        kind="uniform-l1", p=1.0, value=value,
        h1=Direction.from_angle(theta + 0.5 * math.pi), h2=we.h_min,
        attained=orthogonal and cert is not None,
        details={"w_max": we.w_max, "w_min": we.w_min,
                 "orthogonal_extremes": orthogonal},
    )


def minimax_bounds(dom: ConvexDomain, p) -> BoundReport:
    """Two-sided products over a direction pair and its swap.

    p = 1: the two width-quotient bounds multiply to exactly 4 for any
    pair, so the smaller of the two never exceeds 2.
    p = inf: the product of the maximal slopes of the domain and of its
    axis-swapped copy; it is at least 1, with equality for parallelograms.
    """
    if p == 1:
        b12 = directional_k1_upper(dom, E1, E2)
        b21 = directional_k1_upper(dom, E2, E1)
        return BoundReport(
            kind="minimax-l1", p=1.0, value=4.0,
            details={"bound_xy": b12.value, "bound_yx": b21.value,
                     "fp_product": b12.value * b21.value},
        )
    if p == math.inf:
        m_x = max_boundary_slope(dom)
        swapped = ConvexDomain(dom.vertices[:, ::-1])
        m_y = max_boundary_slope(swapped)
        prod = m_x * m_y if math.isfinite(m_x) and math.isfinite(m_y) else math.inf
        return BoundReport(
            kind="minimax-sup", p=math.inf, value=prod,
            details={"slope_xy": m_x, "slope_yx": m_y},
        )
    raise ValueError("minimax bounds are available for p = 1 and p = inf")


# ---------------------------------------------------------------------------
# one-dimensional Poincare constant
# ---------------------------------------------------------------------------

POINCARE_GRID = 2000   # cells of the grid every bound and `poincare` use


def _p_rayleigh_quotient(v: np.ndarray, h: float, p: float) -> float:
    vp = np.concatenate([[0.0], v, [0.0]])
    q = np.abs(np.diff(vp)) / h
    return float((np.abs(v) ** p).sum() * h) / float((q ** p).sum() * h)


def poincare_constant(p: float, n: int = POINCARE_GRID) -> float:
    """Best constant C_p with int |v|^p <= C_p int |v'|^p on (0,1), v(0)=v(1)=0.

    Maximizes the discrete p-Rayleigh quotient on a uniform grid of n cells
    by inverse iteration (Biezuner, Ercole & Martins, J. Funct. Anal. 2009).
    With phi(s) = |s|^(p-2) s, each step solves
    phi(q_{i-1}) - phi(q_i) = h phi(v_i) for the cell slopes q of the next
    iterate.  The fluxes phi(q) are an offset minus a cumulative sum, and
    for a symmetric iterate the zero-mean condition on q fixes the offset
    at half the total, so every step is exact: no linear solve and no
    root-find.  Iterates are symmetrized about the midpoint (the maximizer
    is even) and scaled to maximum 1.  Stops when the quotient changes by
    less than 1e-15 relative; raises RuntimeError if that does not happen
    within the iteration cap, and ValueError if the converged quotient
    underflows (p beyond about 1000).  C_2 = 1/pi^2.
    """
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError("poincare_constant requires 1 < p < inf")
    n = int(n)
    if n < 16:
        raise ValueError("grid too coarse")
    h = 1.0 / n
    v = np.sin(math.pi * np.arange(1, n) / n)
    r_prev = math.nan
    for _ in range(100):                # 1-9 steps for p in [1.0001, 200]
        # exact symmetry makes the fluxes below exactly antisymmetric, so a
        # flux that should vanish is 0 and not a rounding residue that
        # |a|^(1/(p-1)) would blow up for large p
        v = 0.5 * (v + v[::-1])
        v = v / v.max()
        r = _p_rayleigh_quotient(v, h, p)
        if abs(r - r_prev) <= 1e-15 * r:
            if r < np.finfo(float).tiny:
                raise ValueError(f"C_p underflows at p={p}")
            return r
        r_prev = r
        s = np.concatenate([[0.0], np.cumsum(v ** (p - 1.0))])
        a = (s[::-1] - s) / s[-1]          # fluxes phi(q), scaled to [-1, 1]
        q = np.sign(a) * np.abs(a) ** (1.0 / (p - 1.0))
        v = np.cumsum(q)[:-1]
    raise RuntimeError(f"poincare_constant did not converge for p={p}, n={n}")


# ---------------------------------------------------------------------------
# normalization and the p > 1 bounds
# ---------------------------------------------------------------------------


def affine_normalize(dom: ConvexDomain):
    """Shear-and-scale taking the horizontal extremes to (0,0) and (2,0).

    Returns (image, lin, shift) with image = lin x + shift applied to the
    domain; lin = [[2/w_x, 0], [-c/w_x, 1]] where w_x is the horizontal
    extent and c the rise between the extreme points.  The map preserves
    vertical lines, so vertical derivative norms transform by the area
    factor only, which cancels in ratios.
    """
    A, B, c = extreme_x_points(dom)
    w_x = float(B[0] - A[0])
    if w_x <= dom.tol:
        raise ValueError("degenerate horizontal extent")
    lin = np.array([[2.0 / w_x, 0.0], [-c / w_x, 1.0]])
    shift = -dot2(lin, A)
    image = ConvexDomain(dot2(dom.vertices[:, None, :], lin) + shift)
    return image, lin, shift


def kp_upper_bound(dom: ConvexDomain, p: float) -> BoundReport:
    """Upper bound for sup ||u_x||_p / ||u_y||_p over concave functions,
    1 < p < inf.

    After normalization the tangent-plane estimate bounds |u_x| by the
    boundary slope times (2 C_p^{1/p} + 1) copies of |u_y| plus the shear
    correction; infinite when the extreme-x boundary has a vertical edge.
    """
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError("kp_upper_bound requires 1 < p < inf")
    A, B, c = extreme_x_points(dom)
    w_x = float(B[0] - A[0])
    image, lin, shift = affine_normalize(dom)
    m_img = max_boundary_slope(image)
    cp = poincare_constant(p)
    if math.isinf(m_img):
        value = math.inf
    else:
        value = (2.0 / w_x) * m_img * (2.0 * cp ** (1.0 / p) + 1.0) + abs(c) / w_x
    return BoundReport(
        kind="lp-upper", p=p, value=value, h1=E1, h2=E2,
        details={"w_x": w_x, "shear_rise": float(c),
                 "normalized_max_slope": m_img, "poincare_c": cp},
    )


def k_infinity(dom: ConvexDomain) -> BoundReport:
    """sup ||u_x||_inf / ||u_y||_inf = maximal boundary slope.

    Finite exactly when both vertical support sets are corners with
    non-vertical incident edges; a vertical edge drives the ratio to
    infinity along the inward-displacement family.
    """
    info = vertical_support_classification(dom)
    return BoundReport(
        kind="sup-ratio", p=math.inf, value=info.max_slope, h1=E1, h2=E2,
        attained=bool(info.left_angular and info.right_angular),
        details={"left_angular": info.left_angular,
                 "right_angular": info.right_angular,
                 "slopes": [float(s) for s in info.slopes]},
    )


def _rotation_to_axes(h1: Direction, h2: Direction) -> np.ndarray:
    return np.array([[h1.dx, h1.dy], [h2.dx, h2.dy]])


def directional_upper_bound(dom: ConvexDomain, h1: Direction, h2: Direction,
                            p) -> BoundReport:
    """Dispatch: the best available bound for the pair (h1, h2) at p.

    p = 1 works for any pair.  For p > 1 the theory covers orthogonal
    pairs (rotate them onto the axes); other pairs report infinity.
    """
    if p == 1:
        return directional_k1_upper(dom, h1, h2)
    if abs(h1.dot(h2)) > 1e-9:
        return BoundReport(
            kind="unsupported-pair", p=float(p), value=math.inf, h1=h1, h2=h2,
            details={"reason": "no finite bound for non-orthogonal pairs "
                               "when p > 1"},
        )
    R = _rotation_to_axes(h1, h2)
    rotated = ConvexDomain(dot2(dom.vertices[:, None, :], R))
    if p == math.inf:
        rep = k_infinity(rotated)
    else:
        rep = kp_upper_bound(rotated, float(p))
    return BoundReport(kind=rep.kind, p=rep.p, value=rep.value, h1=h1, h2=h2,
                       attained=rep.attained, details=rep.details)
