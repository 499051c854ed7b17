import numpy as np
import pytest

from normratio.concave import chord_max_hulls, plane_values
from normratio.geometry import (
    ConvexDomain,
    diamond,
    disc,
    parallelogram,
    square,
    triangle,
)
from normratio.sampling import keyed_rng, random_convex_polygon


@pytest.fixture
def rng():
    return keyed_rng(20240817)


def reference_interior_points(rng, dom, k):
    """k points uniform over the domain shrunk by its margin, one request
    at a time by rejection from the bounding box through ``rng.uniform``:
    the rule of ``sampling.random_interior_point_sets`` as it was written
    before the sampler served many requests at once."""
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


def reference_envelope_descriptor(rng, dom):
    """``sampling.random_envelope_descriptor`` over the reference points."""
    k = int(rng.integers(1, 6))
    pts = reference_interior_points(rng, dom, k)
    hts = rng.uniform(0.2, 1.0, size=k)
    return {"kind": "envelope",
            "constraints": [[float(p[0]), float(p[1]), float(h)]
                            for p, h in zip(pts, hts)]}


def corpus_domains(seed, count):
    """Deterministic list of random convex polygons for property loops."""
    return [random_convex_polygon(keyed_rng(seed, k)) for k in range(count)]


# The unit square with one or both walls tilted by 5e-10 in x, inside the
# domain's own tolerance (about 1.4e-9): each must answer as the square does.
NEAR_VERTICAL_SQUARES = (
    [(0.0, 0.0), (1.0, 0.0), (1.0 + 5e-10, 1.0), (5e-10, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (5e-10, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (1.0 - 5e-10, 1.0), (-5e-10, 1.0)],
)


def frame_domains():
    """The seed-42 verify corpus, the five presets and the near-vertical
    squares: corners, walls and walls within tol of vertical."""
    return ([random_convex_polygon(keyed_rng(42, k, 0)) for k in range(200)]
            + [disc(512), square(), diamond(), triangle(0, 0, 2, 0, 1, 1),
               parallelogram(2.0, 1.0)]
            + [ConvexDomain(v) for v in NEAR_VERTICAL_SQUARES])


def chord_max_hull(u, normal):
    """Breakpoints (t, m) of u's full-chord maximum profile across normal:
    one profile of :func:`concave.chord_max_hulls`."""
    t, m, _ = chord_max_hulls(u.verts, u.vert_values, [0], [0],
                              np.asarray(normal, dtype=float), u.domain.tol)
    return t, m


def stacked_gradients_at(u, pts):
    """(values, gradient of the first active plane, regular) at many
    points from the full (points, planes) table: the rule of
    ``concave.gradients_at`` as it was written before the slot passes of
    ``facets.active_gradients``."""
    vals = plane_values(u, pts)
    vmin = vals.min(axis=1)
    tie = vals <= (vmin + 1e-11 * (1.0 + np.abs(vmin)))[:, None]
    grads = u.planes[:, :2]
    first = grads[tie.argmax(axis=1)]
    spread = np.where(tie[:, :, None], np.abs(grads - first[:, None, :]), 0.0)
    mag = np.where(tie[:, :, None], np.abs(grads), 0.0)
    regular = ((spread.max(axis=(1, 2)) <= 1e-9 * (1.0 + mag.max(axis=(1, 2))))
               & u.domain.contains(pts, u.domain.margin))
    return vmin, first, regular
