"""Deterministic random generation for searches, verification corpora
and tests.

Everything is keyed: a seed plus a tuple of integer subkeys maps to an
independent Philox stream, so corpus item k is reproducible in isolation
without generating items 0..k-1 first.

Interior points come from one rejection sampler that serves many
requests at once, each ``(stream, domain, count)``:
:func:`random_interior_point_sets` tests the candidates of all of them in
one pass per round, and :func:`random_interior_points` is its batch of
one.  Each stream draws exactly what it draws alone, in the same order,
so a batch gives every request the points, and leaves every stream at the
state, of drawing it alone.  :func:`random_envelope_descriptors` draws
many envelope descriptors this way, one stream each.
"""

from __future__ import annotations

import numpy as np

from .facets import edge_slacks, edge_table
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


# rejection rounds before a request that is still short is given up
ROUNDS = 10000


def _check_room(dom: ConvexDomain) -> None:
    """Raise ValueError when no point of ``dom`` is farther than its margin
    from the boundary: 2 area / perimeter bounds the inradius of a convex
    polygon."""
    cap = 2.0 * dom.area / dom.edge_lengths().sum()
    if not cap > dom.margin:
        raise ValueError(f"domain too thin to sample: its inradius is at most "
                         f"2 area / perimeter = {cap:.3g}, not above its "
                         f"interior margin {dom.margin:.3g}")


def random_interior_point_sets(requests) -> list:
    """For each request ``(rng, dom, k)``, k points uniform over ``dom``
    shrunk by its margin from the boundary, drawn from ``rng``; the
    generators must be distinct.

    Rejection from each domain's bounding box [lo, hi]: each round, every
    request still short of k draws m = max(4 (k - have), 16) candidates
    lo + (hi - lo) * rng.random((m, 2)), the floats of
    ``rng.uniform(lo, hi, (m, 2))``, and keeps, in order, those farther
    than the margin from the boundary until it has k.  All the round's
    candidates are tested in one pass: through
    ``ConvexDomain.signed_boundary_distance`` when the requests share one
    domain, else one pass per edge slot of the domains'
    :func:`facets.edge_table`, the same floats.  So each request's points,
    and its stream's next draw, are those of the request alone.

    A request still short after the first round has its domain checked
    (:func:`_check_room`), so a domain too thin to hold such a point raises
    ValueError at once; a request still short after :data:`ROUNDS` rounds
    raises ValueError too.
    """
    requests = list(requests)
    if not requests:
        return []
    rngs = [rng for rng, _, _ in requests]
    if len({id(rng) for rng in rngs}) < len(rngs):
        raise ValueError("each request needs its own generator")
    ids = {}
    which = [ids.setdefault(id(dom), len(ids)) for _, dom, _ in requests]
    doms = list({id(dom): dom for _, dom, _ in requests}.values())
    # bounding boxes, from (2, n) copies: a min along axis 0 of the
    # (n, 2) vertices is slow for large n
    xy = [dom.vertices.T.copy() for dom in doms]
    lo = [c.min(axis=1) for c in xy]
    span = [c.max(axis=1) - a for c, a in zip(xy, lo)]
    if len(doms) == 1:
        (lo,), (span,) = lo, span
    else:
        lo, span = np.array(lo), np.array(span)
        which = np.array(which, dtype=np.int32)
        normals, offsets, margins = edge_table(doms)
    out = [np.empty((k, 2)) for _, _, k in requests]
    have = [0] * len(requests)
    todo = [i for i, (_, _, k) in enumerate(requests) if k > 0]
    for r in range(ROUNDS):
        if not todo:
            break
        m = [max(4 * (len(out[i]) - have[i]), 16) for i in todo]
        cand = np.empty((sum(m), 2))
        a = 0
        for i, n in zip(todo, m):
            rngs[i].random(out=cand[a:a + n])
            a += n
        # lo + span * rand, in place: the products and sums commute
        if len(doms) == 1:      # all the edges in one broadcast pass
            cand *= span
            cand += lo
            good = doms[0].signed_boundary_distance(cand) > doms[0].margin
        else:                   # one pass per edge slot
            of = np.repeat(which[todo], m)
            cand *= span[of]
            cand += lo[of]
            dist = np.full(len(cand), np.inf)
            for slack in edge_slacks(normals, offsets, cand, of):
                np.minimum(dist, slack, out=dist)
                del slack       # before the next slot's is made
            good = dist > margins[of]
        a = 0
        for i, n in zip(todo, m):
            b = a + n
            got = cand[a:b][good[a:b]][:len(out[i]) - have[i]]
            out[i][have[i]:have[i] + len(got)] = got
            have[i] += len(got)
            a = b
        todo = [i for i in todo if have[i] < len(out[i])]
        if r == 0:
            for i in todo:
                _check_room(requests[i][1])
    if todo:
        raise ValueError(f"interior rejection sampling of {len(out[todo[0]])} "
                         f"points over {requests[todo[0]][1]!r} failed after "
                         f"{ROUNDS} rounds")
    return out


def random_interior_points(rng: np.random.Generator, dom: ConvexDomain,
                           k: int) -> np.ndarray:
    """k points uniform over the domain shrunk by its margin from the
    boundary: the batch of one of :func:`random_interior_point_sets`."""
    (pts,) = random_interior_point_sets([(rng, dom, k)])
    return pts


def random_envelope_descriptors(requests) -> list:
    """For each request ``(rng, dom)``, the descriptor of an envelope over
    1..5 random interior heights in [0.2, 1]; build it with
    concave.build_function.  Each stream draws its count, its points and
    its heights, in that order, as alone; the points of all the requests
    come from one :func:`random_interior_point_sets` call."""
    requests = list(requests)
    ks = [int(rng.integers(1, 6)) for rng, _ in requests]
    pts = random_interior_point_sets(
        [(rng, dom, k) for (rng, dom), k in zip(requests, ks)])
    return [{"kind": "envelope",
             "constraints": [[x, y, h] for (x, y), h
                             in zip(p.tolist(),
                                    rng.uniform(0.2, 1.0, size=k).tolist())]}
            for (rng, _), k, p in zip(requests, ks, pts)]


def random_envelope_descriptor(rng: np.random.Generator,
                               dom: ConvexDomain) -> dict:
    """The batch of one of :func:`random_envelope_descriptors`."""
    (desc,) = random_envelope_descriptors([(rng, dom)])
    return desc
