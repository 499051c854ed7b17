"""Convex polygon domains and their support-line geometry.

Vertices are stored counterclockwise and the domain object is immutable
after construction, so every operation here is a pure function of its
arguments and safe to call from parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Coincidence / collinearity tolerance.  Inputs are not rescaled: a domain
# uses tol = EPS_GEOM * max(diam, 1), which is relative to the diameter only
# for domains at least 1 across and absolute below that.
EPS_GEOM = 1e-9

# Largest accepted vertex coordinate magnitude: a product of two coordinates
# (an area, a cross or dot product) then stays below 1e300, with room for
# sums over many terms before the float overflow near 1.8e308.
MAX_COORD = 1e150


class DomainError(ValueError):
    """Invalid polygon input (too few vertices, non-convex, degenerate)."""


def cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def dot2(a, b):
    """a_x b_x + a_y b_y of stacked 2D vectors; broadcasts.  Every product
    of 2-vectors in the package goes through here: elementwise, it rounds
    the same on every machine, where a BLAS product (``@``, ``einsum``)
    rounds as the kernel that numpy loads decides."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


@dataclass(frozen=True)
class Direction:
    """Unit vector used for directional derivatives, widths, and scanlines."""

    dx: float
    dy: float

    def __post_init__(self):
        norm = math.hypot(self.dx, self.dy)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"direction must be a unit vector, got norm {norm!r}")

    @classmethod
    def of(cls, dx: float, dy: float) -> "Direction":
        """Construct from any nonzero vector, normalizing it."""
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(dx / norm, dy / norm)

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        if not math.isfinite(theta):
            raise ValueError("direction angle must be finite")
        return cls(math.cos(theta), math.sin(theta))

    def perp(self) -> "Direction":
        """Counterclockwise normal of this direction."""
        return Direction(-self.dy, self.dx)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy])

    def angle(self) -> float:
        return math.atan2(self.dy, self.dx)

    def dot(self, other: "Direction") -> float:
        return self.dx * other.dx + self.dy * other.dy


E1 = Direction(1.0, 0.0)
E2 = Direction(0.0, 1.0)


def _collapse(pts: np.ndarray, tol: float) -> np.ndarray:
    """Drop coincident neighbours and vertices within tol of the chord
    spanned by their neighbours (cyclically, until stable)."""
    pts = pts.copy()
    for _ in range(len(pts) + 2):
        n = len(pts)
        if n < 3:
            return pts
        # coincident neighbours: gap i runs from vertex i to vertex i + 1,
        # and only the gaps within tol mark anything
        gap = np.concatenate((pts[1:], pts[:1])) - pts
        close = np.hypot(gap[:, 0], gap[:, 1]) <= tol
        pts2 = pts
        if close.any():
            keep = np.ones(n, dtype=bool)
            for i in np.flatnonzero(close).tolist():
                j = (i + 1) % n
                if keep[i]:
                    keep[j if j != 0 else i] = False
            pts2 = pts[keep]
        n = len(pts2)
        if n < 3:
            return pts2
        # collinear middles: distance from vertex to neighbour chord
        prv = np.concatenate((pts2[-1:], pts2[:-1]))
        nxt = np.concatenate((pts2[1:], pts2[:1]))
        chord = nxt - prv
        clen = np.hypot(chord[:, 0], chord[:, 1])
        clen[clen == 0] = 1.0
        dist = np.abs(cross2(chord, pts2 - prv)) / clen
        keep2 = dist > tol
        pts3 = pts2[keep2]
        if len(pts3) == len(pts) and np.array_equal(pts3, pts):
            return pts3
        pts = pts3
    return pts


class ConvexDomain:
    """Compact convex polygon, strictly convex after degeneracy collapse.

    The constructor accepts either orientation and canonicalizes to
    counterclockwise; it raises :class:`DomainError` if the input is not
    convex beyond what coincident/collinear collapse can repair.
    """

    __slots__ = ("_verts", "_tol", "_ends", "_area", "_lengths", "_normals",
                 "_offsets")

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise DomainError("need at least 3 two-dimensional vertices")
        if not np.all(np.isfinite(pts)):
            raise DomainError("vertices must be finite")
        if np.abs(pts).max() > MAX_COORD:
            raise DomainError(f"|coordinates| must be <= {MAX_COORD:g}")
        diam = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
        if diam <= 0.0:
            raise DomainError("degenerate vertex set (zero diameter)")
        tol = EPS_GEOM * max(diam, 1.0)
        pts = _collapse(pts, tol)
        if len(pts) < 3:
            raise DomainError("fewer than 3 vertices after degeneracy collapse")
        # twice the signed area, relative to the first vertex: raw
        # coordinates cancel off the origin, and the sign is the orientation
        nxt = np.concatenate((pts[1:], pts[:1]))
        area2 = float(cross2(pts - pts[0], nxt - pts[0]).sum())
        if area2 < 0.0:
            pts = pts[::-1].copy()
            nxt = np.concatenate((pts[1:], pts[:1]))
            area2 = float(cross2(pts - pts[0], nxt - pts[0]).sum())
        prv = np.concatenate((pts[-1:], pts[:-1]))
        turns = cross2(pts - prv, nxt - pts)
        if np.any(turns <= 0.0):
            raise DomainError("polygon is not convex")
        self._verts = pts
        self._tol = tol
        self._ends = nxt
        self._area = 0.5 * area2
        e = nxt - pts
        lengths = np.hypot(e[:, 0], e[:, 1])
        normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / lengths[:, None]
        offsets = dot2(pts, normals)
        for arr in (pts, nxt, lengths, normals, offsets):
            arr.setflags(write=False)
        self._lengths = lengths
        self._normals = normals
        self._offsets = offsets

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        return self._verts

    @property
    def n(self) -> int:
        return len(self._verts)

    @property
    def tol(self) -> float:
        return self._tol

    @property
    def margin(self) -> float:
        """Interior margin, ten times tol: a point this close to the
        boundary counts as on it, and sampled or displaced interior points
        keep farther away."""
        return 10 * self._tol

    @property
    def area(self) -> float:
        return self._area

    def edges(self):
        """Pairs (start, end) of consecutive vertices as two (n,2) arrays
        (read-only)."""
        return self._verts, self._ends

    def edge_lengths(self) -> np.ndarray:
        """Length of each edge (read-only)."""
        return self._lengths

    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one per edge (read-only)."""
        return self._normals

    def edge_offsets(self) -> np.ndarray:
        """Support values v_e . n_e of the edge lines (read-only)."""
        return self._offsets

    def __eq__(self, other):
        return isinstance(other, ConvexDomain) and np.array_equal(
            self._verts, other._verts
        )

    def __hash__(self):
        return hash(self._verts.tobytes())

    def __repr__(self):
        return f"ConvexDomain({self.n} vertices, area={self.area:.6g})"

    # -- membership ------------------------------------------------------

    def signed_boundary_distance(self, pts) -> np.ndarray:
        """Distance to the boundary, positive inside and negative outside.

        For a convex polygon this is the minimum inward slack over the
        edge half-planes, which is exact for interior points.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        slack = self._offsets - dot2(pts[:, None, :], self._normals)
        return slack.min(axis=1)

    def contains(self, pts, tol: float | None = None) -> np.ndarray:
        tol = self._tol if tol is None else tol
        return self.signed_boundary_distance(pts) >= -tol


# ---------------------------------------------------------------------------
# support lines, widths, chords
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chord:
    """Intersection of the domain with a line, possibly a single point."""

    t: float
    a: np.ndarray
    b: np.ndarray

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.b - self.a)))


@dataclass(frozen=True)
class WidthExtremes:
    w_max: float
    w_min: float
    h_max: Direction  # direction of the support-line pair realizing w_max
    h_min: Direction


def width(dom: ConvexDomain, h: Direction) -> float:
    """Distance between the two support lines parallel to h."""
    proj = dot2(dom.vertices, h.perp().as_array())
    return float(proj.max() - proj.min())


WIDTH_BLOCK = 64   # most edge normals per block of the projection table


def _edge_widths(dom: ConvexDomain) -> np.ndarray:
    """Width of the domain along each edge, from column blocks of the
    vertex-by-normal projection table (memory linear in the vertex count).
    """
    verts = dom.vertices[:, None, :]
    normals = dom.edge_normals()
    widths = np.empty(len(normals))
    for lo in range(0, len(normals), WIDTH_BLOCK):
        projs = dot2(verts, normals[lo:lo + WIDTH_BLOCK])   # (n, block)
        widths[lo:lo + WIDTH_BLOCK] = projs.max(axis=0) - projs.min(axis=0)
    return widths


def width_extremes(dom: ConvexDomain) -> WidthExtremes:
    """Largest and smallest widths with their directions.

    Exact for polygons: the minimum width is attained with a support line
    flush to an edge, so every edge is tried; the maximum is the diameter,
    the longest vertex pair (i, i + d), scanned one offset d at a time.
    Ties go to the first edge and to the least (i, j).
    """
    verts = dom.vertices
    widths_by_edge = _edge_widths(dom)
    imin = int(np.argmin(widths_by_edge))
    w_min = float(widths_by_edge[imin])
    A, B = dom.edges()
    h_min = Direction.of(*(B[imin] - A[imin]))

    w_max, i, j = -1.0, 0, 0
    for d in range(1, len(verts)):
        seg = verts[d:] - verts[:-d]
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        k = int(np.argmax(lengths))
        # a later offset pairs each i with a larger j, so at equal length
        # only a smaller i wins
        if lengths[k] > w_max or (lengths[k] == w_max and k < i):
            w_max, i, j = float(lengths[k]), k, k + d
    sep = verts[j] - verts[i]
    h_max = Direction.of(-sep[1], sep[0])
    return WidthExtremes(w_max=w_max, w_min=w_min, h_max=h_max, h_min=h_min)


def chord(dom: ConvexDomain, normal: np.ndarray, t: float) -> Chord | None:
    """Intersection of dom with the line {x . normal = t}.

    Endpoints are ordered by increasing projection onto the direction
    obtained by rotating the normal clockwise (for normal (0,1) this means
    a.x <= b.x).  Returns None when the line misses the domain; offsets
    within tol of the support values clamp to a degenerate chord.
    """
    P0, P1, valid = chords_batch(dom, normal, [t])
    if not valid[0]:
        return None
    return Chord(t=float(t), a=P0[0], b=P1[0])


def chords_batch(dom: ConvexDomain, normal: np.ndarray, ts: np.ndarray):
    """Vectorized chords for many offsets of parallel lines.

    Returns (P0, P1, valid): endpoint arrays of shape (len(ts), 2) ordered
    by projection onto the clockwise-rotated normal, and a mask of offsets
    that meet the domain.  Offsets within tol outside the support values
    clamp to them.
    """
    verts, ends = dom.edges()
    n = np.asarray(normal, dtype=float)
    proj = dot2(verts, n)
    lo, hi = float(proj.min()), float(proj.max())
    tol = dom.tol
    ts = np.asarray(ts, dtype=float)
    valid = (ts >= lo - tol) & (ts <= hi + tol)
    t_eff = np.clip(ts, lo, hi)

    s = proj[:, None] - t_eff[None, :]                    # (nv, L)
    s_next = np.concatenate((s[1:], s[:1]))
    on_vert = np.abs(s) <= tol
    crossing = (~on_vert) & (s * s_next < 0.0)

    denom = s - s_next
    lam = s / np.where(denom == 0.0, 1.0, denom)
    # the crossing on each edge, or the vertex itself    (nv, L, 2)
    v, e = verts[:, None, :], (ends - verts)[:, None, :]
    pts = np.where(crossing[..., None], v + lam[..., None] * e, v)
    use = crossing | on_vert

    along = dot2(pts, np.array([n[1], -n[0]]))
    i_min = np.argmin(np.where(use, along, np.inf), axis=0)
    i_max = np.argmax(np.where(use, along, -np.inf), axis=0)
    cols = np.arange(len(ts))
    valid = valid & use.any(axis=0)
    P0 = np.where(valid[:, None], pts[i_min, cols], 0.0)
    P1 = np.where(valid[:, None], pts[i_max, cols], 0.0)
    return P0, P1, valid


# ---------------------------------------------------------------------------
# extreme points and the angular classification of vertical support lines
# ---------------------------------------------------------------------------


def extreme_x_points(dom: ConvexDomain):
    """Leftmost and rightmost boundary points A, B and the rise c = B_y - A_y.

    When a vertical edge realizes the extreme, the lower endpoint is chosen.
    """
    iA, iB = vertical_support_classification(dom).extremes
    A, B = dom.vertices[iA], dom.vertices[iB]
    return A, B, float(B[1] - A[1])


def _edge_slope(p: np.ndarray, q: np.ndarray, tol: float) -> float:
    """Slope dy/dx of segment p->q; +/-inf (the sign of dy) when its ends
    are within tol in x, which at an extreme vertex means both ends lie in
    one extreme set of :func:`vertical_support_classification`."""
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if abs(dx) <= tol:
        return math.copysign(math.inf, dy)
    return dy / dx


@dataclass(frozen=True)
class VerticalSupportInfo:
    """Angular flags of the two vertical support lines, the vertex indices
    (iA, iB) of the points A, B of :func:`extreme_x_points`, and the four
    boundary edges that meet them.

    edges = (lower-left, upper-left, lower-right, upper-right) indexes
    ``dom.edges()``, and slopes holds their slopes in that order, each from
    the edge's start to its end except upper-left, from A to the edge's
    start; vertical edges report as signed infinity.
    """

    left_angular: bool
    right_angular: bool
    slopes: tuple
    extremes: tuple
    edges: tuple

    @property
    def max_slope(self) -> float:
        """Largest |slope| of the boundary graphs; +inf with any vertical
        edge.

        By convexity the slopes of the upper and lower boundary chains are
        monotone in x, so their moduli peak at the extreme points and the
        four incident-edge slopes suffice.
        """
        return float(max(abs(s) for s in self.slopes))


def vertical_support_classification(dom: ConvexDomain) -> VerticalSupportInfo:
    """The one place that decides the extreme sets, the vertices within tol
    of the least / greatest x: one vertex is a corner, two a vertical wall.
    """
    v = dom.vertices
    tol = dom.tol
    xmin, xmax = v[:, 0].min(), v[:, 0].max()
    left = np.nonzero(v[:, 0] <= xmin + tol)[0]
    right = np.nonzero(v[:, 0] >= xmax - tol)[0]
    iA = int(left[np.argmin(v[left, 1])])
    iB = int(right[np.argmin(v[right, 1])])
    # CCW order runs A -> lower chain -> B -> upper chain -> A: edge iA
    # leaves A and iA - 1 reaches it, edge iB - 1 reaches B and iB leaves it
    up_left, low_right = (iA - 1) % dom.n, (iB - 1) % dom.n
    A, B = dom.edges()
    ends = ((A[iA], B[iA]), (B[up_left], A[up_left]),
            (A[low_right], B[low_right]), (A[iB], B[iB]))
    return VerticalSupportInfo(
        left_angular=len(left) == 1,
        right_angular=len(right) == 1,
        slopes=tuple(_edge_slope(p, q, tol) for p, q in ends),
        extremes=(iA, iB),
        edges=(iA, up_left, low_right, iB),
    )


def max_boundary_slope(dom: ConvexDomain) -> float:
    """Largest |slope| of the boundary graphs; +inf with any vertical edge
    (see :attr:`VerticalSupportInfo.max_slope`)."""
    return vertical_support_classification(dom).max_slope


# ---------------------------------------------------------------------------
# presets and JSON round-trip
# ---------------------------------------------------------------------------


def disc(n: int = 512) -> ConvexDomain:
    """Regular n-gon inscribed in the unit circle, first vertex at (1, 0)."""
    if n < 3:
        raise DomainError("disc preset needs n >= 3")
    ang = 2.0 * np.pi * np.arange(n) / n
    return ConvexDomain(np.stack([np.cos(ang), np.sin(ang)], axis=1))


def square() -> ConvexDomain:
    return ConvexDomain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def diamond() -> ConvexDomain:
    return ConvexDomain([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])


def triangle(ax, ay, bx, by, cx, cy) -> ConvexDomain:
    return ConvexDomain([(ax, ay), (bx, by), (cx, cy)])


def parallelogram(base: float, slope: float) -> ConvexDomain:
    """Parallelogram whose four sides all have slope +/-slope.

    Extreme points sit at (0,0) and (base,0); per the equal-slope
    construction this family is minimax-optimal for the sup-norm ratio.
    """
    if base <= 0:
        raise DomainError("parallelogram base must be positive")
    if slope <= 0:
        raise DomainError("parallelogram slope must be positive")
    h = 0.5 * base * slope
    return ConvexDomain(
        [(0.0, 0.0), (0.5 * base, -h), (base, 0.0), (0.5 * base, h)]
    )


def domain_to_json(dom: ConvexDomain) -> dict:
    return {"vertices": [[float(x), float(y)] for x, y in dom.vertices]}


def domain_from_json(obj) -> ConvexDomain:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise DomainError('domain JSON must be an object with a "vertices" key')
    return ConvexDomain(obj["vertices"])
