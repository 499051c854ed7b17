"""Lower-bound search for derivative-norm ratios over structured families.

The search is an enumeration, not an optimizer: the equality analysis of
the L1 bounds pins the extremal shapes (tents over chords, boundary-edge
ridges) and the divergence mechanisms pin the boundary-anchored envelope
families, so those are generated deterministically and random envelopes
only serve as a safety net.  Every estimate carries a witness descriptor
that rebuilds and re-evaluates to the reported ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms
from .bounds import directional_upper_bound, k1_certificate
from .concave import build_function, family_u_omega, family_u_phi_eps
from .geometry import (
    E1,
    E2,
    ConvexDomain,
    Direction,
    cross2,
    vertical_support_classification,
    width_extremes,
)
from .sampling import keyed_rng, random_envelope_descriptor, random_interior_points

OMEGA_SCHEDULE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
EPS_SCHEDULE = (0.05, 0.02, 0.01, 0.005)
PHI = math.pi / 6       # cap half-angle of the u-phi-eps schedule
SWEEP_ANGLES = 8        # grid angles of directional_sweep in [0, pi)


@dataclass(frozen=True)
class RatioEstimate:
    """Best ratio found, its witness, and the matching theoretical cap."""

    p: float
    h1: Direction
    h2: Direction
    best_ratio: float
    witness: dict | None
    upper_bound: float
    gap: float
    evaluations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "h1": [self.h1.dx, self.h1.dy],
            "h2": [self.h2.dx, self.h2.dy],
            "best_ratio": self.best_ratio,
            "witness": self.witness,
            "upper_bound": self.upper_bound,
            "gap": self.gap,
            "evaluations": self.evaluations,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PairEstimate:
    """sup-ratio and inf-ratio estimates for the axis pair, and their
    quotient, a lower bound for the true K_p/k_p."""

    K_est: RatioEstimate
    k_est: float
    product: float
    swapped: RatioEstimate


def default_omega_anchor(dom: ConvexDomain) -> np.ndarray:
    """Midpoint of the steepest boundary edge at the horizontal extremes.

    The vertex (left or right extreme) with the larger incident |slope|
    wins, ties to the lower vertex index; among its two incident edges the
    steeper one wins, ties to the lower edge index.
    """
    info = vertical_support_classification(dom)
    iA, iB = info.extremes
    entries = zip((iA, iA, iB, iB), info.edges, np.abs(info.slopes))
    _, edge, _ = max(entries, key=lambda t: (t[2], -t[0], -t[1]))
    A, B = dom.edges()
    return 0.5 * (A[edge] + B[edge])


def vertical_omega_anchor(dom: ConvexDomain) -> np.ndarray:
    """Midpoint of a vertical support edge; left extreme preferred.

    Raises ValueError when the domain is angular (no vertical edge at
    either horizontal extreme), since the divergent vertical-wall family
    needs a wall to lean on.
    """
    info = vertical_support_classification(dom)
    # a wall is the upper-left or upper-right edge: it joins the lower
    # extreme vertex to the upper one
    if not info.left_angular:
        edge = info.edges[1]
    elif not info.right_angular:
        edge = info.edges[3]
    else:
        raise ValueError("domain has no vertical support edge")
    A, B = dom.edges()
    return 0.5 * (A[edge] + B[edge])


def _aligned_vertex_pairs(dom: ConvexDomain, h2: Direction, limit: int):
    """Vertex pairs (i, j), i < j, whose segment is within sin = 0.2 of
    parallel to h2, best first: by sin, then i, then j.

    The pairs are walked one index offset d = j - i at a time, and only
    the best found so far (at most 2·limit between offsets) are kept, so
    memory is linear in n + limit.  A pair whose sin exceeds the
    `limit`-th value at the last trim cannot enter; one that ties it can,
    so the result is exact.
    """
    if limit <= 0:
        return []
    v = dom.vertices
    n = dom.n
    h = h2.as_array()
    sin_b = np.empty(0)
    ii_b = jj_b = np.empty(0, dtype=np.intp)
    cut = 0.2
    # a segment no longer than tol has no direction; its 0/0 is never kept
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(1, n):
            seg = v[d:] - v[:n - d]
            lengths = np.hypot(seg[:, 0], seg[:, 1])
            sin = np.abs(cross2(seg, h)) / lengths
            ii = np.flatnonzero((sin <= cut) & (lengths > dom.tol))
            if not len(ii):
                continue
            sin_b = np.concatenate([sin_b, sin[ii]])
            ii_b = np.concatenate([ii_b, ii])
            jj_b = np.concatenate([jj_b, ii + d])
            # trimming only once the kept set doubles bounds the sorting
            # by a constant factor of one sort of everything kept
            if len(sin_b) > 2 * limit:
                order = np.lexsort((jj_b, ii_b, sin_b))[:limit]
                sin_b, ii_b, jj_b = sin_b[order], ii_b[order], jj_b[order]
                cut = sin_b[-1]
    order = np.lexsort((jj_b, ii_b, sin_b))[:limit]
    return list(zip(ii_b[order].tolist(), jj_b[order].tolist()))


def _grid_apexes(dom: ConvexDomain, g: int) -> np.ndarray:
    v = dom.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    span = hi - lo
    xs = lo[0] + span[0] * (np.arange(1, g + 1)) / (g + 1)
    ys = lo[1] + span[1] * (np.arange(1, g + 1)) / (g + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    return pts[dom.signed_boundary_distance(pts) > dom.margin]


def _candidates(dom: ConvexDomain, p: float, h1: Direction, h2: Direction,
                budget: int, seed: int):
    """Deterministic list of candidate descriptors, at most budget long;
    the caller builds each function from its descriptor."""
    out = []

    def emit_tent(a, b):
        out.append({"kind": "tent",
                    "segment": [[float(a[0]), float(a[1])],
                                [float(b[0]), float(b[1])]],
                    "height": 1.0})

    if p == 1:
        cert = k1_certificate(dom, h1, h2)
        if cert is not None and np.hypot(*(cert.b - cert.a)) > dom.tol:
            emit_tent(cert.a, cert.b)
        n_tents = max((budget - len(out)) // 2, 0)
        verts = dom.vertices
        for i, j in _aligned_vertex_pairs(dom, h2, n_tents):
            emit_tent(verts[i], verts[j])
    else:
        anchor = default_omega_anchor(dom)
        for w in OMEGA_SCHEDULE:
            if len(out) >= budget:
                break
            out.append({"kind": "u-omega",
                        "anchor": [float(anchor[0]), float(anchor[1])],
                        "omega": float(w)})

    remaining = budget - len(out)
    if remaining > 0:
        g = min(5, max(1, math.isqrt(max(remaining // 3, 1))))
        for pt in _grid_apexes(dom, g)[:remaining // 3 + 1]:
            out.append({"kind": "envelope",
                        "constraints": [[float(pt[0]), float(pt[1]), 1.0]]})

    remaining = budget - len(out)
    if remaining > 0:
        n_rand = remaining // 2
        if n_rand > 0:
            rng = keyed_rng(seed, 1)
            for pt in random_interior_points(rng, dom, n_rand):
                out.append({"kind": "envelope",
                            "constraints": [[float(pt[0]), float(pt[1]), 1.0]]})

    rng = keyed_rng(seed, 2)
    while len(out) < budget:
        out.append(random_envelope_descriptor(rng, dom))
    return out[:budget]


def estimate_kp_lower(dom: ConvexDomain, p, h1: Direction = E1,
                      h2: Direction = E2, budget: int = 200,
                      seed: int = 42) -> RatioEstimate:
    """Maximum ratio ||d_h1 u||_p / ||d_h2 u||_p over the candidate schedule.

    Ties resolve by the lexicographic (ratio, candidate index) maximum, so
    the result does not depend on evaluation order.  The witness descriptor
    is re-built and re-evaluated before returning; a mismatch beyond 1e-9
    is an internal error.  A candidate whose build or norms raise
    ValueError is skipped; when none is left, ValueError is raised.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    p = float(p) if p != math.inf else math.inf
    if not p >= 1.0:                    # NaN too
        raise ValueError("p must be at least 1")
    descriptors = _candidates(dom, p, h1, h2, budget, seed)
    best: tuple[float, int] | None = None
    witness = None
    evaluated = 0
    for idx, desc in enumerate(descriptors):
        try:
            fn = build_function(dom, desc)
            r = norms.norm_ratio(fn, h1, h2, p)
        except ValueError:
            continue
        evaluated += 1
        if best is None or (r, idx) > best:
            best = (r, idx)
            witness = desc
    if best is None:
        raise ValueError("no candidate evaluated successfully")

    check = norms.norm_ratio(build_function(dom, witness), h1, h2, p)
    if not (abs(check - best[0]) <= 1e-9 * (1.0 + abs(best[0]))
            or (math.isinf(check) and math.isinf(best[0]))):
        raise RuntimeError("witness failed to re-evaluate to the reported ratio")

    ub = directional_upper_bound(dom, h1, h2, p).value
    gap = math.inf if math.isinf(ub) else ub - best[0]
    return RatioEstimate(p=p, h1=h1, h2=h2, best_ratio=best[0],
                         witness=witness, upper_bound=ub, gap=gap,
                         evaluations=evaluated, seed=seed)


def estimate_kp_pair(dom: ConvexDomain, p, budget: int = 200,
                     seed: int = 42) -> PairEstimate:
    """Estimates of sup and inf of the axis ratio; their quotient bounds
    the true sup/inf spread from below."""
    if budget < 2:
        raise ValueError("budget must be at least 2")
    K_est = estimate_kp_lower(dom, p, E1, E2, budget, seed)
    swapped = estimate_kp_lower(dom, p, E2, E1, budget, seed)
    k_est = 1.0 / swapped.best_ratio if swapped.best_ratio > 0 else math.inf
    product = K_est.best_ratio * swapped.best_ratio
    return PairEstimate(K_est=K_est, k_est=k_est, product=product,
                        swapped=swapped)


def directional_sweep(dom: ConvexDomain, p, budget: int = 60,
                      seed: int = 42) -> list[RatioEstimate]:
    """Estimates over orthogonal direction pairs on a grid of SWEEP_ANGLES
    angles, plus the width-extreme pairs."""
    pairs = []
    for theta in np.linspace(0.0, math.pi, SWEEP_ANGLES, endpoint=False):
        pairs.append((Direction.from_angle(theta),
                      Direction.from_angle(theta + 0.5 * math.pi)))
    we = width_extremes(dom)
    for h in (we.h_min, we.h_max):
        hp = Direction.from_angle(h.angle() + 0.5 * math.pi)
        pairs.append((h, hp))
        pairs.append((hp, h))
    return [estimate_kp_lower(dom, p, h1, h2, budget, seed)
            for h1, h2 in pairs]


def _schedule_ratios(key: str, values, build, p, h1: Direction,
                     h2: Direction) -> list[dict]:
    """One row per schedule value x: the ratio of the function build(x)
    returns, with build's extra fields, or the error that stopped it.
    Raises ValueError when no value gives a function."""
    rows = []
    for x in values:
        try:
            fn, extra = build(float(x))
            n1 = norms.lp_directional_norm(fn, h1, p).value
            n2 = norms.lp_directional_norm(fn, h2, p).value
        except ValueError as exc:
            rows.append({key: float(x), "ratio": None, "error": str(exc)})
            continue
        r = math.nan if (n1 == 0.0 and n2 == 0.0) else (
            math.inf if n2 == 0.0 else n1 / n2)
        rows.append({key: float(x), "norm_h1": n1, "norm_h2": n2,
                     "ratio": r, **extra, "witness": fn.descriptor})
    if not any(row.get("ratio") is not None for row in rows):
        raise ValueError(f"no {key} in the schedule produced a valid function")
    return rows


def omega_schedule_ratios(dom: ConvexDomain, p, h1: Direction = E1,
                          h2: Direction = E2, anchor=None) -> list[dict]:
    """Ratio along the inward-displacement family for each omega in
    OMEGA_SCHEDULE.

    On domains with a vertical support edge the ratios increase without
    bound as omega shrinks; on angular domains they approach the maximal
    boundary slope.
    """
    if anchor is None:
        anchor = default_omega_anchor(dom)
    return _schedule_ratios(
        "omega", OMEGA_SCHEDULE,
        lambda w: (family_u_omega(dom, anchor, w), {}), p, h1, h2)


def phi_eps_schedule_ratios(dom: ConvexDomain, p, h1: Direction = E1,
                            h2: Direction = E2) -> list[dict]:
    """Ratio along the cap-sampling family at cap half-angle PHI for each
    eps in EPS_SCHEDULE."""
    def build(eps):
        fn, sample = family_u_phi_eps(dom, PHI, eps)
        return fn, {"n_sample": len(sample)}

    return _schedule_ratios("eps", EPS_SCHEDULE, build, p, h1, h2)
