"""Convex polygon domains and their support-line geometry.

Vertices are stored counterclockwise and the domain object is immutable
after construction, so every operation here is a pure function of its
arguments and safe to call from parallel workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Coincidence / collinearity tolerance.  Inputs are rescaled to an O(1)
# bounding box before the tolerance is applied, so it acts relatively.
EPS_GEOM = 1e-9

# Edges steeper than this count as vertical for the angular classification.
SLOPE_CAP = 1e12


class DomainError(ValueError):
    """Invalid polygon input (too few vertices, non-convex, degenerate)."""


def cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class Direction:
    """Unit vector used for directional derivatives, widths, and scanlines."""

    dx: float
    dy: float

    def __post_init__(self):
        norm = math.hypot(self.dx, self.dy)
        if abs(norm - 1.0) > 1e-12:
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
        # coincident neighbours
        keep = np.ones(n, dtype=bool)
        for i in range(n):
            j = (i + 1) % n
            if keep[i] and np.hypot(*(pts[j] - pts[i])) <= tol:
                keep[j if j != 0 else i] = False
        pts2 = pts[keep]
        n = len(pts2)
        if n < 3:
            return pts2
        # collinear middles: distance from vertex to neighbour chord
        prv = np.roll(pts2, 1, axis=0)
        nxt = np.roll(pts2, -1, axis=0)
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

    __slots__ = ("_verts", "_tol")

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise DomainError("need at least 3 two-dimensional vertices")
        if not np.all(np.isfinite(pts)):
            raise DomainError("vertices must be finite")
        diam = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
        if diam <= 0.0:
            raise DomainError("degenerate vertex set (zero diameter)")
        tol = EPS_GEOM * max(diam, 1.0)
        pts = _collapse(pts, tol)
        if len(pts) < 3:
            raise DomainError("fewer than 3 vertices after degeneracy collapse")
        area2 = float(cross2(pts, np.roll(pts, -1, axis=0)).sum())
        if area2 < 0.0:
            pts = pts[::-1].copy()
        prv = np.roll(pts, 1, axis=0)
        nxt = np.roll(pts, -1, axis=0)
        turns = cross2(pts - prv, nxt - pts)
        if np.any(turns <= 0.0):
            raise DomainError("polygon is not convex")
        pts.setflags(write=False)
        self._verts = pts
        self._tol = tol

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
    def area(self) -> float:
        # relative to the first vertex: raw coordinates cancel off the origin
        v = self._verts - self._verts[0]
        return 0.5 * float(cross2(v, np.roll(v, -1, axis=0)).sum())

    def edges(self):
        """Pairs (start, end) of consecutive vertices as two (n,2) arrays."""
        return self._verts, np.roll(self._verts, -1, axis=0)

    def edge_vectors(self) -> np.ndarray:
        a, b = self.edges()
        return b - a

    def edge_normals(self) -> np.ndarray:
        """Outward unit normals, one per edge."""
        e = self.edge_vectors()
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        return n / np.hypot(n[:, 0], n[:, 1])[:, None]

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
        normals = self.edge_normals()
        offsets = np.einsum("ij,ij->i", self._verts, normals)
        slack = offsets[None, :] - pts @ normals.T
        return slack.min(axis=1)

    def contains(self, pts, tol: float | None = None) -> np.ndarray:
        tol = self._tol if tol is None else tol
        return self.signed_boundary_distance(pts) >= -tol


# ---------------------------------------------------------------------------
# support lines, widths, chords
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportLine:
    """Line touching the domain with a given outward normal."""

    point: np.ndarray      # a touching vertex
    direction: np.ndarray  # unit vector along the line
    normal: np.ndarray     # outward unit normal
    offset: float          # support value max_v <v, normal>


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


def support_line(dom: ConvexDomain, alpha: float) -> SupportLine:
    """Support line with outward normal at angle alpha.

    Ties between touching vertices resolve to the lowest index.
    """
    n = np.array([math.cos(alpha), math.sin(alpha)])
    proj = dom.vertices @ n
    k = int(np.argmax(proj))
    d = np.array([-n[1], n[0]])
    return SupportLine(point=dom.vertices[k], direction=d, normal=n,
                       offset=float(proj[k]))


def width(dom: ConvexDomain, h: Direction) -> float:
    """Distance between the two support lines parallel to h."""
    n = h.perp().as_array()
    proj = dom.vertices @ n
    return float(proj.max() - proj.min())


def _antipodal_pairs(verts: np.ndarray):
    """Rotating-calipers antipodal vertex pairs of a CCW convex polygon."""
    n = len(verts)
    if n == 3:
        return [(0, 1), (1, 2), (0, 2)]

    def area2(i, j, k):
        return float(cross2(verts[j] - verts[i], verts[k] - verts[i]))

    pairs = []
    k = 1
    while area2(n - 1, 0, (k + 1) % n) > area2(n - 1, 0, k):
        k += 1
    i, j = 0, k
    while i <= k and j < n:
        pairs.append((i, j))
        while j < n - 1 and area2(i, (i + 1) % n, j + 1) > area2(i, (i + 1) % n, j):
            j += 1
            pairs.append((i, j))
        i += 1
    return pairs


def width_extremes(dom: ConvexDomain) -> WidthExtremes:
    """Largest and smallest widths with their directions.

    Exact for polygons: the minimum width is attained with a support line
    flush to an edge, the maximum width equals the diameter (realized by an
    antipodal vertex pair), both enumerated by rotating calipers rather
    than angle sampling.  Ties resolve to the lowest index encountered.
    """
    verts = dom.vertices
    normals = dom.edge_normals()
    projs = verts @ normals.T                      # (n, n_edges)
    widths_by_edge = projs.max(axis=0) - projs.min(axis=0)
    imin = int(np.argmin(widths_by_edge))
    w_min = float(widths_by_edge[imin])
    e = dom.edge_vectors()[imin]
    h_min = Direction.of(e[0], e[1])

    best = (-1.0, None)
    for i, j in _antipodal_pairs(verts):
        d = float(np.hypot(*(verts[j] - verts[i])))
        if d > best[0]:
            best = (d, (i, j))
    w_max = best[0]
    i, j = best[1]
    sep = verts[j] - verts[i]
    h_max = Direction.of(-sep[1], sep[0])
    return WidthExtremes(w_max=w_max, w_min=w_min, h_max=h_max, h_min=h_min)


def circumscribed_rectangle(dom: ConvexDomain):
    """Axis-aligned extents (extent_x, extent_y) of the domain."""
    v = dom.vertices
    return (float(v[:, 0].max() - v[:, 0].min()),
            float(v[:, 1].max() - v[:, 1].min()))


def chord(dom: ConvexDomain, normal: np.ndarray, t: float) -> Chord | None:
    """Intersection of dom with the line {x . normal = t}.

    Endpoints are ordered by increasing projection onto the direction
    obtained by rotating the normal clockwise (for normal (0,1) this means
    a.x <= b.x).  Returns None when the line misses the domain; offsets
    within tol of the support values clamp to a degenerate chord.
    """
    verts = dom.vertices
    n = np.asarray(normal, dtype=float)
    proj = verts @ n
    lo, hi = float(proj.min()), float(proj.max())
    tol = dom.tol
    if t < lo - tol or t > hi + tol:
        return None
    t_eff = min(max(t, lo), hi)
    s = proj - t_eff
    s_next = np.roll(s, -1)
    pts = []
    nv = len(verts)
    for i in range(nv):
        si, sj = s[i], s_next[i]
        if abs(si) <= tol:
            pts.append(verts[i])
            continue
        if si * sj < 0.0:
            lam = si / (si - sj)
            pts.append(verts[i] + lam * (verts[(i + 1) % nv] - verts[i]))
    if not pts:
        return None
    pts = np.array(pts)
    d = np.array([n[1], -n[0]])
    along = pts @ d
    a = pts[int(np.argmin(along))]
    b = pts[int(np.argmax(along))]
    return Chord(t=float(t), a=a, b=b)


def horizontal_chord(dom: ConvexDomain, y: float) -> Chord | None:
    """Chord of the horizontal line at height y, with a.x <= b.x."""
    return chord(dom, np.array([0.0, 1.0]), y)


def chords_batch(dom: ConvexDomain, normal: np.ndarray, ts: np.ndarray):
    """Vectorized chords for many offsets of parallel lines.

    Returns (P0, P1, valid): endpoint arrays of shape (len(ts), 2) ordered
    by projection onto the clockwise-rotated normal, and a mask of offsets
    that meet the domain.  Offsets slightly outside clamp like chord().
    """
    verts = dom.vertices
    n = np.asarray(normal, dtype=float)
    proj = verts @ n
    lo, hi = float(proj.min()), float(proj.max())
    tol = dom.tol
    ts = np.asarray(ts, dtype=float)
    valid = (ts >= lo - tol) & (ts <= hi + tol)
    t_eff = np.clip(ts, lo, hi)

    s = proj[:, None] - t_eff[None, :]                    # (nv, L)
    s_next = np.roll(s, -1, axis=0)
    on_vert = np.abs(s) <= tol
    crossing = (~on_vert) & (s * s_next < 0.0)

    nv = len(verts)
    vx, vy = verts[:, 0][:, None], verts[:, 1][:, None]
    ex = (np.roll(verts[:, 0], -1) - verts[:, 0])[:, None]
    ey = (np.roll(verts[:, 1], -1) - verts[:, 1])[:, None]
    denom = s - s_next
    denom = np.where(denom == 0.0, 1.0, denom)
    lam = s / denom
    px = np.where(crossing, vx + lam * ex, np.where(on_vert, vx, np.nan))
    py = np.where(crossing, vy + lam * ey, np.where(on_vert, vy, np.nan))
    use = crossing | on_vert

    d = np.array([n[1], -n[0]])
    along = px * d[0] + py * d[1]
    along_min = np.where(use, along, np.inf)
    along_max = np.where(use, along, -np.inf)
    i_min = np.argmin(along_min, axis=0)
    i_max = np.argmax(along_max, axis=0)
    cols = np.arange(len(ts))
    P0 = np.stack([px[i_min, cols], py[i_min, cols]], axis=1)
    P1 = np.stack([px[i_max, cols], py[i_max, cols]], axis=1)
    empty = ~np.any(use, axis=0)
    valid = valid & ~empty
    P0 = np.where(valid[:, None], P0, 0.0)
    P1 = np.where(valid[:, None], P1, 0.0)
    return P0, P1, valid


# ---------------------------------------------------------------------------
# extreme points and the angular classification of vertical support lines
# ---------------------------------------------------------------------------


def _extreme_x_indices(dom: ConvexDomain):
    """Indices of the extreme-x vertices; ties resolve to the lower vertex."""
    v = dom.vertices
    tol = dom.tol
    xmin, xmax = v[:, 0].min(), v[:, 0].max()
    left = np.nonzero(v[:, 0] <= xmin + tol)[0]
    right = np.nonzero(v[:, 0] >= xmax - tol)[0]
    iA = int(left[np.argmin(v[left, 1])])
    iB = int(right[np.argmin(v[right, 1])])
    return iA, iB, len(left), len(right)


def extreme_x_points(dom: ConvexDomain):
    """Leftmost and rightmost boundary points A, B and the rise c = B_y - A_y.

    When a vertical edge realizes the extreme, the lower endpoint is chosen.
    """
    iA, iB, _, _ = _extreme_x_indices(dom)
    A = dom.vertices[iA]
    B = dom.vertices[iB]
    return A, B, float(B[1] - A[1])


def _edge_slope(p: np.ndarray, q: np.ndarray) -> float:
    """Slope dy/dx of segment p->q; +/-inf when steeper than SLOPE_CAP."""
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if abs(dy) >= abs(dx) * SLOPE_CAP:
        if dy == 0.0:
            return 0.0
        sign = 1.0 if (dy > 0) == (dx >= 0) else -1.0
        return sign * math.inf
    return dy / dx


@dataclass(frozen=True)
class VerticalSupportInfo:
    """Angular flags of the two vertical support lines plus the four
    one-sided boundary slopes at the extreme points.

    slopes = (lower-left, upper-left, lower-right, upper-right), i.e. the
    slopes of the lower/upper boundary chains where they meet the extreme
    points; vertical edges report as signed infinity.
    """

    left_angular: bool
    right_angular: bool
    slopes: tuple


def vertical_support_classification(dom: ConvexDomain) -> VerticalSupportInfo:
    v = dom.vertices
    nv = dom.n
    iA, iB, n_left, n_right = _extreme_x_indices(dom)
    # CCW order runs A -> lower chain -> B -> upper chain -> A.
    s1_left = _edge_slope(v[iA], v[(iA + 1) % nv])
    s2_left = _edge_slope(v[iA], v[(iA - 1) % nv])
    s1_right = _edge_slope(v[(iB - 1) % nv], v[iB])
    s2_right = _edge_slope(v[iB], v[(iB + 1) % nv])
    left_angular = n_left == 1 and math.isfinite(s1_left) and math.isfinite(s2_left)
    right_angular = n_right == 1 and math.isfinite(s1_right) and math.isfinite(s2_right)
    return VerticalSupportInfo(
        left_angular=left_angular,
        right_angular=right_angular,
        slopes=(s1_left, s2_left, s1_right, s2_right),
    )


def max_boundary_slope(dom: ConvexDomain) -> float:
    """Largest |slope| of the boundary graphs; +inf with any vertical edge.

    By convexity the slopes of the upper and lower boundary chains are
    monotone in x, so their moduli peak at the extreme points and the four
    incident-edge slopes suffice.
    """
    info = vertical_support_classification(dom)
    return float(max(abs(s) for s in info.slopes))


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
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise DomainError('domain JSON must be an object with a "vertices" key')
    return ConvexDomain(obj["vertices"])


def load_domain(path: str) -> ConvexDomain:
    with open(path) as f:
        return domain_from_json(json.load(f))


def save_domain(dom: ConvexDomain, path: str) -> None:
    with open(path, "w") as f:
        json.dump(domain_to_json(dom), f, indent=2)
        f.write("\n")
