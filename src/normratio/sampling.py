"""Deterministic random generation for searches, verification corpora
and tests.

Everything is keyed: a seed plus a tuple of integer subkeys maps to an
independent Philox stream, so corpus item k is reproducible in isolation
without generating items 0..k-1 first.
"""

from __future__ import annotations

import numpy as np

from .geometry import ConvexDomain, Direction, dot2
from .hull import _polygon_ccw


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for (seed, key...); streams are independent."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def random_direction(rng: np.random.Generator) -> Direction:
    return Direction.from_angle(rng.uniform(0.0, 2.0 * np.pi))


def random_convex_polygon(rng: np.random.Generator) -> ConvexDomain:
    """Convex hull of a random cloud, anisotropically stretched and rotated.

    Vertex count is at most 12; thin or tiny hulls are rejected and
    resampled so downstream tolerance assumptions hold.
    """
    max_vertices = 12
    for _ in range(100):
        m = int(rng.integers(4, max_vertices + 4))
        pts = rng.standard_normal((m, 2))
        stretch = np.array([rng.uniform(0.5, 1.8), rng.uniform(0.5, 1.8)])
        ang = rng.uniform(0.0, np.pi)
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        pts = dot2((pts * stretch)[:, None, :], R)
        verts = pts[_polygon_ccw(pts, 0.0)]
        if len(verts) > max_vertices:
            keep = np.sort(rng.choice(len(verts), size=max_vertices,
                                      replace=False))
            verts = verts[keep]
        try:
            dom = ConvexDomain(verts)
        except ValueError:
            continue
        if dom.area < 0.05:
            continue
        return dom
    raise RuntimeError("failed to sample a usable convex polygon")


def random_interior_points(rng: np.random.Generator, dom: ConvexDomain,
                           k: int) -> np.ndarray:
    """k points uniform over the domain shrunk by its margin from the
    boundary, by rejection from the bounding box."""
    v = dom.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    out = np.empty((k, 2))
    have = 0
    for _ in range(10000):
        if have >= k:
            break
        cand = rng.uniform(lo, hi, size=(max(4 * (k - have), 16), 2))
        good = cand[dom.signed_boundary_distance(cand) > dom.margin]
        take = min(len(good), k - have)
        out[have:have + take] = good[:take]
        have += take
    if have < k:
        raise RuntimeError("interior rejection sampling failed")
    return out


def random_envelope_descriptor(rng: np.random.Generator,
                               dom: ConvexDomain) -> dict:
    """Descriptor of an envelope over 1..5 random interior heights in
    [0.2, 1]; build it with concave.build_function."""
    k = int(rng.integers(1, 6))
    pts = random_interior_points(rng, dom, k)
    hts = rng.uniform(0.2, 1.0, size=k)
    return {"kind": "envelope",
            "constraints": [[float(p[0]), float(p[1]), float(h)]
                            for p, h in zip(pts, hts)]}
