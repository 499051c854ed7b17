"""Randomized property verification over seeded domain/envelope corpora.

Every suite re-checks one structural fact through two independent code
paths (or against an exact closed form) on a reproducible corpus keyed by
``(seed, case index)``: 200 random convex polygons with 5 random
envelopes each by default.  A violation serializes the domain, the
function descriptor, and the offending numbers, which is enough to
regenerate and re-check the exact case in isolation -- that is what
:func:`replay` does.

Suites are registered in :data:`SUITES`; ``run_suite`` executes one by
name over a given list of cases, and ``run_all`` is the one path that
walks the corpus.  It goes block by block: it builds a :class:`Block` of
:data:`CASE_BLOCK` consecutive corpus cases, runs every requested suite
over it, one suite after another, and drops it before it builds the next
block.  A block draws each case's domain from its own keyed stream, then
all its cases' descriptors, one keyed stream each, from one
:func:`sampling.random_envelope_descriptors` call, and then builds all
their envelopes in one :func:`concave.concave_envelope_groups` call,
over the block's domains; :func:`_case`, which :func:`replay` uses, is
the block of one, with the same bits.  Wherever a suite draws interior
points, it draws those of the whole block in one
:func:`sampling.random_interior_point_sets` call, and each stream draws
what it draws alone, in the same order.  At most ``CASE_BLOCK`` cases
are in memory at a time, so peak memory does not grow with the number of
cases, and each suite still runs over several cases in a row.  Nothing
is cached between blocks or between runs.  A block's envelopes form one
:class:`facets.FacetTable`, built on first use and dropped with the
block: theorem1, edge-slope, sup-boundary, envelope-structure, slope-cap,
line-mass and oracle-l1 are array programs over it.  line-mass takes each
case's projection range once per direction, its chord-max hulls from one
:func:`concave.chord_max_hulls` pass and its line masses from one
:func:`norms.line_masses` pass over all the block's lines; oracle-l1
takes its scan-line norms from one :func:`norms.scanline_l1_norms`
pass.  cone-mass builds the cones of all the block's cases in one
:func:`concave.concave_envelope_groups` call of its own, which a run
without cone-mass does not make.  A second table, :attr:`Block.images`,
holds the images of each case's first two envelopes under its
normalizing map (:attr:`Case.normalized`): shear-transport reads every
norm from the two tables, and lemma-tan takes its values and gradients
at all the block's points from one :func:`facets.active_gradients` pass
over the image table.  product-four takes the widths of all the block's
direction pairs from one projection of the block's domain vertices.
Only profile-concavity still runs case by case (:func:`_each`).  Per
suite, the block results are merged in block order, so the results, and
the first failure, are those of running each suite over the whole corpus
in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import norms
from .bounds import affine_normalize
from .concave import (
    chord_max_hulls,
    concave_envelope_groups,
    max_profile,
    transform_function,
)
from .facets import FacetTable, active_gradients, segments
from .geometry import (
    E1,
    E2,
    ConvexDomain,
    cross2,
    domain_from_json,
    domain_to_json,
    dot2,
    max_boundary_slope,
    width,
)
from .sampling import (
    keyed_rng,
    random_convex_polygon,
    random_direction,
    random_envelope_descriptors,
    random_interior_point_sets,
)

DEFAULT_CASES = 200
ENVELOPES_PER_CASE = 5
# cases per run_all block
CASE_BLOCK = 16


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One corpus entry: a random polygon and its random envelopes, built
    with the other cases of its :class:`Block`, bit for bit as alone.

    The normalizing map and the images of the first two envelopes are
    computed on first use and dropped with the case.  Values read per
    envelope (axis norms and sups, the facets on the boundary, line
    masses) come from the facet table of the case's :class:`Block`, and
    the images' norms, values and gradients from its image table.
    """

    index: int
    seed: int
    domain: ConvexDomain
    envelopes: tuple

    def rng(self, *key: int) -> np.random.Generator:
        """Extra deterministic draws, disjoint from the corpus streams."""
        return keyed_rng(self.seed, self.index, 100, *key)

    @cached_property
    def normalized(self) -> tuple:
        """``(img, lin, images)``: the normalized domain, the linear part of
        the normalizing map and the pushforwards of the first two
        envelopes."""
        img, lin, shift = affine_normalize(self.domain)
        images = tuple(transform_function(u, lin, shift, img)
                       for _, u in self.envelopes[:2])
        return img, lin, images


def _case(seed: int, index: int) -> Case:
    """Corpus case ``index``: the block of one of :meth:`Block.build`."""
    return Block.build(seed, [index])[0]


class Block(tuple):
    """Consecutive cases and, built on first use, a
    :class:`facets.FacetTable` of all their envelopes and one of the
    images in :attr:`Case.normalized`.  :meth:`build` makes the corpus
    block of given indices; ``run_suite`` wraps any other sequence of
    cases in one."""

    @classmethod
    def build(cls, seed: int, indices) -> "Block":
        """The corpus cases at ``indices``: each case's domain is drawn
        from its own keyed stream, then the five envelope descriptors of
        every case from one :func:`sampling.random_envelope_descriptors`
        call over their 5 streams per case, and then all the cases'
        envelopes are built in one :func:`concave.concave_envelope_groups`
        call, bit for bit what building each case alone gives."""
        indices = list(indices)
        doms = [random_convex_polygon(keyed_rng(seed, index, 0))
                for index in indices]
        sets = iter([[((x, y), h) for x, y, h in d["constraints"]]
                     for d in random_envelope_descriptors(
                         (keyed_rng(seed, index, 1 + j), dom)
                         for index, dom in zip(indices, doms)
                         for j in range(ENVELOPES_PER_CASE))])
        built = concave_envelope_groups(
            [(dom, list(islice(sets, ENVELOPES_PER_CASE))) for dom in doms])
        return cls(Case(index=index, seed=seed, domain=dom,
                        envelopes=tuple((u.descriptor, u) for u in envs))
                   for index, dom, envs in zip(indices, doms, built))

    @cached_property
    def table(self) -> FacetTable:
        return FacetTable([u for case in self for _, u in case.envelopes],
                          [len(case.envelopes) for case in self])

    @cached_property
    def images(self) -> FacetTable:
        """The images of each case's first two envelopes under its
        normalizing map, from :attr:`Case.normalized`, which lemma-tan
        and shear-transport read."""
        images = [case.normalized[2] for case in self]
        return FacetTable([tu for im in images for tu in im],
                          [len(im) for im in images])


def jsonify(obj):
    """Recursively convert numpy scalars/arrays for json.dumps.

    Non-finite floats become the strings "inf"/"-inf"/"nan" so the output
    round-trips through strict JSON parsers.
    """
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    cases: int
    checks: int
    failures: tuple
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "checks": self.checks,
            "violations": len(self.failures),
            "passed": self.passed,
            "seed": self.seed,
            "tol": self.tol,
        }


def _violation(detail: dict, descriptor=None) -> dict:
    out = {"detail": jsonify(detail)}
    if descriptor is not None:
        out["function"] = jsonify(descriptor)
    return out


# ---------------------------------------------------------------------------
# suite bodies.  A suite takes a Block and returns its checks per case and
# its violations as (case position, violation) pairs, in order.  A body
# over one case returns (checks, violations); _each runs it over a block,
# and serves only profile-concavity.
# ---------------------------------------------------------------------------

AXES = (E1, E2)


def _each(body):
    """The suite that runs ``body`` case by case."""
    def suite(block: Block, tol: float):
        checks, found = [], []
        for pos, case in enumerate(block):
            n, bad = body(case, tol)
            checks.append(n)
            found += [(pos, v) for v in bad]
        return checks, found
    return suite


def _per_case(t: FacetTable, per_envelope) -> np.ndarray:
    """Check counts per case from counts per envelope."""
    per_envelope = np.broadcast_to(per_envelope, t.ecase.shape)
    return np.bincount(t.ecase, per_envelope, t.ncases).astype(int)


def _leading(t: FacetTable, m: int) -> np.ndarray:
    """Mask of each case's first ``m`` envelopes."""
    return np.arange(len(t.ecase)) - t.cstart[t.ecase] < m


def _found(t: FacetTable, envs, parts, detail) -> list:
    """(case position, violation) for each pair of envelope k in ``envs``
    and part j in ``parts``, with the detail ``detail(k, j)``."""
    return [(t.ecase[k], _violation(detail(k, j), t.envelopes[k].descriptor))
            for k, j in zip(np.asarray(envs, dtype=int).tolist(),
                            np.asarray(parts, dtype=int).tolist())]


def _suite_sandwich(block: Block, tol: float):
    """w*M <= ||d_h u||_1 <= 2*w*M for every envelope, both axes."""
    t = block.table
    w = np.array([[width(case.domain, h) for h in AXES] for case in block])
    lo = w[t.ecase] * t.max_values[:, None]                   # (envelopes, 2)
    val, scale = t.axis_norms(1.0), np.maximum(1.0, lo)
    fail = ~((lo - tol * scale <= val) & (val <= 2.0 * lo + tol * scale))
    k, a = np.nonzero(fail)
    order = np.lexsort((k, a, t.ecase[k]))        # case by case, axis-major
    return _per_case(t, 2), _found(t, k[order], a[order], lambda k, a: {
        "h": [AXES[a].dx, AXES[a].dy], "norm": val[k, a], "wM": lo[k, a],
        "2wM": 2 * lo[k, a]})


def _cones(block: Block) -> list:
    """cone-mass's groups: each case's domain and two one-point constraint
    sets, drawn from the case's own stream, the points of all the block's
    cases in one :func:`sampling.random_interior_point_sets` call and then
    each case's two heights."""
    rngs = [case.rng(1) for case in block]
    pts = random_interior_point_sets([(rng, case.domain, 2)
                                      for rng, case in zip(rngs, block)])
    return [(case.domain, [[(pt, float(rng.uniform(0.2, 1.0)))] for pt in p])
            for case, rng, p in zip(block, rngs, pts)]


def _suite_cone_mass(block: Block, tol: float):
    """Single-peak envelopes hit the lower wall exactly: ||d_h u||_1 = w*M.

    The cones of the whole block are built in one
    :func:`concave.concave_envelope_groups` call."""
    checks, found = [], []
    groups = concave_envelope_groups(_cones(block))
    for pos, cones in enumerate(groups):
        widths = [(h, width(block[pos].domain, h)) for h in AXES]
        checks.append(len(cones) * len(widths))
        for u in cones:
            for h, w in widths:
                val = norms.lp_directional_norm(u, h, 1).value
                target = w * u.max_value
                if abs(val - target) > tol * max(1.0, target):
                    found.append((pos, _violation(
                        {"h": [h.dx, h.dy], "norm": val, "wM": target,
                         "error": val - target}, u.descriptor)))
    return checks, found


def _suite_line_mass(block: Block, tol: float):
    """Per line: the one-dimensional |d_h u| mass equals twice the chord max.

    The left side is one :func:`norms.line_masses` pass over the lines of
    the whole block: it sums |g . h| times each facet's interval on the
    line and adds the values at the chord's ends (the boundary jumps).
    The right side reads the chord maximum off the upper hull of the
    projected graph vertices, one :func:`concave.chord_max_hulls` pass
    over every envelope and direction of the block.  Entirely independent
    code paths.
    """
    t = block.table
    rows, rngs = [], []         # per envelope and direction
    for pos, case in enumerate(block):
        rng = case.rng(2)
        spans = []              # per direction: h, its normal, the range
        for h in (E1, random_direction(rng)):
            n = h.perp().as_array()
            proj = dot2(case.domain.vertices, n)
            spans.append((h.as_array(), n, float(proj.min()),
                          float(proj.max()), case.domain.tol))
        for k, _ in enumerate(case.envelopes[:2], t.cstart[pos]):
            rows += [(k, *span) for span in spans]
            rngs += [rng] * len(spans)
    env, h, n, lo, hi, dtol = (np.array(x) for x in zip(*rows))
    hull_t, hull_m, cut = chord_max_hulls(t.verts, t.vert_values, t.vstart,
                                          env, n, dtol)
    ts, ms = [], []             # per line
    for i, rng in enumerate(rngs):
        # No line here meets a degenerate chord: the chord length is
        # concave in the offset, so at 5-95% of the projection range it
        # is at least a twentieth of the longest chord, itself at least
        # area / range, and corpus areas are >= 0.05.
        off = lo[i] + (hi[i] - lo[i]) * rng.uniform(0.05, 0.95, size=3)
        a, b = cut[i], cut[i + 1]
        ts.append(off)
        ms.append(np.interp(off, hull_t[a:b], hull_m[a:b]))
    env, h, lo, hi, dtol = (np.repeat(x, 3, axis=0)
                            for x in (env, h, lo, hi, dtol))
    ts, ms = np.concatenate(ts), np.concatenate(ms)
    li = norms.line_masses(t.verts, t.vert_values, t.tris, t.planes,
                           t.fstart, env, h, ts, lo, hi, dtol)
    (i,) = np.nonzero(np.abs(li - 2.0 * ms) > tol * (1.0 + 2.0 * np.abs(ms)))
    return np.bincount(t.ecase[env], minlength=t.ncases), _found(
        t, env[i], i, lambda k, i: {"h": h[i], "t": ts[i],
                                    "line_mass": li[i], "chord_max": ms[i]})


def _tangent_points(block: Block, n: int) -> tuple:
    """lemma-tan's points, ``n`` per image in :attr:`Block.images` order,
    drawn from each case's own stream over its normalized domain: image 0
    of every case in one :func:`sampling.random_interior_point_sets` call,
    then image 1 in another; and the mask of those within the margin."""
    rngs = [case.rng(3) for case in block]
    doms = [case.normalized[0] for case in block]
    pts = [[] for _ in block]
    for j in range(max(len(case.normalized[2]) for case in block)):
        live = [c for c, case in enumerate(block)
                if j < len(case.normalized[2])]
        drawn = random_interior_point_sets([(rngs[c], doms[c], n)
                                            for c in live])
        for c, p in zip(live, drawn):
            pts[c].append(p)
    pts = [np.concatenate(p) for p in pts]
    inside = [dom.contains(p, dom.margin) for dom, p in zip(doms, pts)]
    return np.concatenate(pts), np.concatenate(inside)


def _suite_tangent(block: Block, tol: float):
    """Tangent-plane bounds through the normalized extreme points.

    After the shear-and-scale the extremes sit at (0,0) and (2,0) where u
    vanishes, so at every differentiable point the supporting plane gives
    x*u_x <= u - y*u_y and (x-2)*u_x <= u - y*u_y, hence
    |u_x| <= (u - y*u_y)/min(x, 2-x).  Values and gradients come from one
    :func:`facets.active_gradients` pass over the image table,
    :attr:`Block.images`, at 25 points per image, drawn from each case's
    own stream (:func:`_tangent_points`).
    """
    img, n = block.images, 25
    pts, inside = _tangent_points(block, n)
    env = np.repeat(np.arange(len(img.fstart)), n)
    vals, grads, regular = active_gradients(img.planes, img.fstart, pts, env)
    regular &= inside
    (x, y), (gx, gy) = pts.T, grads.T
    rhs = vals - y * gy
    cap = rhs + tol * (1.0 + img.max_values[env])
    (i,) = np.nonzero(regular & ((x * gx > cap) | ((x - 2.0) * gx > cap)))
    src = np.flatnonzero(_leading(block.table, 2))  # image k is of src[k]
    return np.bincount(img.ecase[env[regular]], minlength=img.ncases), _found(
        block.table, src[env[i]], i, lambda k, i: {
            "point": pts[i], "u": vals[i], "grad": grads[i], "rhs": rhs[i]})


def _suite_edge_slope(block: Block, tol: float):
    """Facet gradients are tangential-derivative-free on boundary edges.

    A facet whose closure contains a segment of a boundary edge has a
    plane vanishing on that edge line, so its gradient is orthogonal to
    the edge direction; equivalently -g_x/g_y equals the edge slope.
    """
    t = block.table
    # vertex-to-edge-line incidence, each vertex against its own case's
    # edges; interior points of the domain can only touch an edge line
    # inside the actual edge segment
    on_edge = t.near_edge
    x, y = t.verts[:, 0], t.verts[:, 1]
    inc, length = [], []
    for a, b in ((0, 1), (1, 2), (0, 2)):        # each facet's vertex pairs
        va, vb = t.tris[:, a], t.tris[:, b]
        inc.append(on_edge[va] & on_edge[vb])
        length.append(np.hypot(x[va] - x[vb], y[va] - y[vb]))
    inc = np.stack(inc, axis=1)                                 # (F, 3, E)
    hit = inc.any(axis=2) & (np.stack(length, axis=1)
                             > t.margin[t.fcase, None])
    facet, pair = np.nonzero(hit)
    edge = inc[facet, pair].argmax(axis=1)
    # unit tangents, the normals turned a quarter counterclockwise
    normal = t.normals[t.fcase[facet], edge]
    edge_dir = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
    g = t.planes[facet, :2]
    tangential = dot2(g, edge_dir)
    worse = np.abs(tangential) > tol * (1.0 + np.hypot(g[:, 0], g[:, 1]))
    env = t.fenv[facet]
    hits = np.bincount(env, minlength=len(t.fstart))
    # per envelope: its worse facet edges, then a missing boundary facet
    found = sorted([(k, 0, i) for k, i in zip(env[worse].tolist(),
                                              np.flatnonzero(worse).tolist())]
                   + [(k, 1, -1) for k in np.flatnonzero(hits == 0).tolist()])

    def detail(k, i):
        if i < 0:
            return {"reason": "no facet with a boundary edge segment"}
        return {"facet": facet[i] - t.fstart[k], "edge": edge[i],
                "grad": g[i], "edge_dir": edge_dir[i],
                "tangential": tangential[i]}
    return _per_case(t, hits + 1), _found(
        t, [k for k, _, _ in found], [i for _, _, i in found], detail)


def _suite_sup_boundary(block: Block, tol: float):
    """The sup of |d_h u| is attained on a facet touching the boundary,
    and for any unit h it is at most sqrt(2) times the larger axis sup."""
    t = block.table
    dirs = [(*AXES, random_direction(case.rng(4))) for case in block]
    rand = np.array([h.as_array() for _, _, h in dirs])
    slopes = [*t.axis_slopes.T, t.slopes(rand[t.fcase])]
    sups = np.stack([np.maximum.reduceat(s, t.fstart) for s in slopes], axis=1)
    # one direction at a time, which keeps memory low
    attained = np.stack([np.logical_or.reduceat(
        (s >= top[t.fenv] * (1.0 - 1e-12)) & t.facet_on_boundary, t.fstart)
        for s, top in zip(slopes, sups.T)], axis=1)
    cap = math.sqrt(2.0) * sups[:, :2].max(axis=1)
    fail = np.stack([~attained, sups > cap[:, None] + tol], axis=2)
    k, d, part = np.nonzero(fail)

    def detail(k, j):
        d, part = divmod(j, 2)
        h = dirs[t.ecase[k]][d]
        if part:
            return {"h": [h.dx, h.dy], "sup": sups[k, d], "axis_cap": cap[k]}
        argmax = np.argmax(np.where(t.fenv == k, slopes[d], -np.inf))
        return {"h": [h.dx, h.dy], "sup": sups[k, d],
                "argmax_facet": int(argmax - t.fstart[k])}
    return _per_case(t, 6), _found(t, k, 2 * d + part, detail)


def _suite_oracle_l1(block: Block, tol: float):
    """Facet-sum L1 norms against the scan-line oracle (upper hull of the
    projected vertices, integrated exactly), for each case's first three
    envelopes: one :func:`norms.scanline_l1_norms` pass over the block."""
    t = block.table
    first = _leading(t, 3)
    env = np.repeat(np.flatnonzero(first), 2)
    axes = np.tile([h.as_array() for h in AXES], (len(env) // 2, 1))
    dtol = np.array([case.domain.tol for case in block])[t.ecase[env]]
    exact, scan = t.axis_norms(1.0), np.zeros((len(first), 2))
    scan[first] = norms.scanline_l1_norms(t.verts, t.vert_values, t.vstart,
                                          env, axes, dtol).reshape(-1, 2)
    denom = np.maximum(np.maximum(exact, scan), 1e-300)
    err = np.abs(exact - scan)
    k, a = np.nonzero(first[:, None] & (err > tol * denom))
    return _per_case(t, 2 * first), _found(t, k, a, lambda k, a: {
        "h": [AXES[a].dx, AXES[a].dy], "facet_sum": exact[k, a],
        "scanline": scan[k, a], "rel_err": err[k, a] / denom[k, a]})


def _suite_shear_transport(block: Block, tol: float):
    """Affine pushforward: gradient transport and norm change of variables.

    Checks, with T the normalizing shear (image = lin x + shift), on each
    case's first two envelopes:
      (a) facet gradients satisfy g = lin^T g-tilde;
      (b) vertical p-norms scale by |det lin|^(1/p), p in {1, 2};
      (c) the composed horizontal norm bound from the triangle inequality.
    Every norm comes from the block's two tables, of the envelopes and of
    their images.
    """
    t, img = block.table, block.images
    src = np.flatnonzero(_leading(t, 2))      # image k is of envelope src[k]
    lin = np.array([case.normalized[1] for case in block])[img.ecase]
    det = np.abs(cross2(lin[:, 0], lin[:, 1]))
    # (a) facet by facet, an image facet is its source facet moved
    g = t.planes[t.fstart[src][img.fenv] + np.arange(len(img.planes))
                 - img.fstart[img.fenv], :2]
    back = dot2(img.planes[:, None, :2], lin.transpose(0, 2, 1)[img.fenv])
    err = np.maximum.reduceat(np.abs(back - g).max(axis=1), img.fstart)
    gscale = 1.0 + np.maximum.reduceat(np.abs(g).max(axis=1), img.fstart)
    # (b) and (c)
    image = {p: img.axis_norms(p) for p in (1.0, 2.0)}
    source = {p: t.axis_norms(p)[src] for p in (1.0, 2.0)}
    a = {p: image[p][:, 1] ** p for p in image}
    b = {p: det * source[p][:, 1] ** p for p in source}
    nx, (n1, n2) = source[2.0][:, 0], image[2.0].T
    cap = ((np.abs(lin[:, 0, 0]) * n1 + np.abs(lin[:, 1, 0]) * n2)
           / np.sqrt(det))
    fail = np.stack([err > tol * gscale]
                    + [np.abs(a[p] - b[p])
                       > tol * np.maximum(np.maximum(1.0, a[p]), b[p])
                       for p in (1.0, 2.0)]
                    + [nx > cap + tol * np.maximum(1.0, cap)], axis=1)
    i, part = np.nonzero(fail)

    def detail(k, j):
        i, part = divmod(j, 4)
        if part == 0:
            return {"part": "gradient-transport", "max_err": err[i]}
        if part == 3:
            return {"part": "composition", "norm": nx[i], "cap": cap[i]}
        p = float(part)
        return {"part": "vertical-norm-scaling", "p": p, "image": a[p][i],
                "scaled_source": b[p][i]}
    return _per_case(img, 4), _found(t, src[i], 4 * i + part, detail)


def _suite_product_four(block: Block, tol: float):
    """Opposite-order width bounds multiply to exactly 4 for every pair.

    Per case, three direction pairs (h1, h2 = h1 turned a quarter): E1 and
    two drawn from the case's stream.  The bound 2 w(h1) / w(h2) is
    :func:`bounds.directional_k1_upper`'s value, with w the width of
    :func:`geometry.width`, the range of the vertices' projections onto
    the normal; all the block's widths come from one projection.
    """
    angles, normals = [], []
    for case in block:
        angles.append([0.0, *case.rng(5).uniform(0.0, math.pi, size=2)])
        for ang in angles[-1]:
            c, s = math.cos(ang), math.sin(ang)
            normals += [(-s, c), (-c, -s)]      # h1.perp(), h2.perp()
    vstart, vcase = segments([case.domain.n for case in block])
    verts = np.concatenate([case.domain.vertices for case in block])
    normals = np.reshape(normals, (len(block), 6, 2))
    proj = dot2(verts[:, None, :], normals[vcase])
    w = np.maximum.reduceat(proj, vstart) - np.minimum.reduceat(proj, vstart)
    w1, w2 = w[:, 0::2], w[:, 1::2]
    forward, reverse = 2.0 * w1 / w2, 2.0 * w2 / w1
    product = forward * reverse
    fail = np.abs(product - 4.0) > 4.0 * tol
    return np.full(len(block), 3), [
        (c, _violation({"angle": angles[c][j], "forward": forward[c, j],
                        "reverse": reverse[c, j], "product": product[c, j]}))
        for c, j in zip(*np.nonzero(fail))]


PARTS = ("partition", "concavity", "vertex-values", "domination", "peak",
         "boundary-trace")


def _suite_envelope_structure(block: Block, tol: float):
    """Envelopes tile the domain, stay concave, and dominate their pins.

    Each check reads the min over the envelope's planes, as
    ``concave.evaluate`` and ``concave.check_*`` do, at the facet
    centroids, the vertices, the pins and the domain's vertices.
    """
    t = block.table
    scale = 1.0 + t.max_values
    geo = max(tol, 1e-9) * (1.0 + np.maximum.reduceat(np.abs(t.vert_values),
                                                      t.vstart))
    doms = [block[c].domain for c in t.ecase]
    area = np.array([d.area for d in doms])
    tiled = (np.abs(np.bincount(t.fenv, t.areas, len(area)) - area)
             <= tol * area)
    cents = t.verts[t.tris].mean(axis=1)
    own = dot2(cents, t.planes[:, :2]) + t.planes[:, 2]
    concave = np.logical_and.reduceat(
        t.min_planes(cents, t.fenv) >= own - geo[t.fenv], t.fstart)
    drift = np.abs(t.min_planes(t.verts, t.venv) - t.vert_values)
    consistent = np.maximum.reduceat(drift, t.vstart) <= geo
    pins = [np.asarray(u.descriptor["constraints"], dtype=float)
            for u in t.envelopes]
    cstart, cenv = segments([len(c) for c in pins])
    pins = np.concatenate(pins)
    vals = t.min_planes(pins[:, :2], cenv)
    under = np.logical_or.reduceat(vals < pins[:, 2] - tol * scale[cenv],
                                   cstart)
    worst = np.minimum.reduceat(vals - pins[:, 2], cstart)
    top = np.maximum.reduceat(pins[:, 2], cstart)
    rstart, renv = segments([d.n for d in doms])
    rim = t.min_planes(np.concatenate([d.vertices for d in doms]), renv)
    rim = np.maximum.reduceat(np.abs(rim), rstart)
    fail = np.stack([~tiled, ~concave, ~consistent, under,
                     np.abs(t.max_values - top) > tol * scale,
                     rim > tol * scale], axis=1)

    def detail(k, j):
        extra = ({}, {}, {}, {"worst": worst[k]},
                 {"max_value": t.max_values[k], "top_constraint": top[k]},
                 {"max_abs": rim[k]})[j]
        return {"part": PARTS[j], **extra}
    return _per_case(t, 6), _found(t, *np.nonzero(fail), detail)


def _suite_profile_concavity(case: Case, tol: float):
    """Chord-max profiles are concave with peak equal to the global max."""
    checks, bad = 0, []
    for desc, u in case.envelopes[:3]:
        _, v = max_profile(u, E1)
        scale = 1.0 + u.max_value
        checks += 2
        if float(v.max()) > u.max_value + tol * scale:
            bad.append(_violation(
                {"part": "peak-cap", "profile_max": float(v.max()),
                 "max_value": u.max_value}, desc))
        second = v[2:] + v[:-2] - 2.0 * v[1:-1]
        if second.size and float(second.max()) > tol * scale:
            bad.append(_violation(
                {"part": "concavity", "max_second_diff": float(second.max())},
                desc))
    return checks, bad


def _suite_slope_cap(block: Block, tol: float):
    """No classical function beats the boundary-slope sup-norm cap."""
    t = block.table
    m = np.array([max_boundary_slope(case.domain) for case in block])[t.ecase]
    live = ~np.isinf(m)
    m = np.where(live, m, 0.0)
    s1, s2 = t.axis_sups.T
    (k,) = np.nonzero(live & (s1 > (m + tol * (1.0 + m)) * s2))
    return _per_case(t, live), _found(t, k, k, lambda k, _: {
        "sup_x": s1[k], "sup_y": s2[k], "slope_cap": m[k],
        "ratio": s1[k] / s2[k] if s2[k] else math.inf})


# ---------------------------------------------------------------------------
# registry and runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSpec:
    fn: object
    tol: float
    description: str


SUITES = {
    "theorem1": SuiteSpec(
        _suite_sandwich, 1e-9,
        "wM <= ||d_h u||_1 <= 2wM for every envelope and both axes"),
    "cone-mass": SuiteSpec(
        _suite_cone_mass, 1e-11,
        "single-peak envelopes attain ||d_h u||_1 = wM exactly"),
    "line-mass": SuiteSpec(
        _suite_line_mass, 1e-9,
        "per-line derivative mass equals twice the chord maximum"),
    "lemma-tan": SuiteSpec(
        _suite_tangent, 1e-9,
        "tangent-plane bound |u_x| <= (u - y u_y)/min(x, 2-x) after "
        "normalization"),
    "edge-slope": SuiteSpec(
        _suite_edge_slope, 1e-9,
        "boundary-edge facets have gradients orthogonal to the edge"),
    "sup-boundary": SuiteSpec(
        _suite_sup_boundary, 1e-9,
        "sup |d_h u| is attained on a boundary-touching facet and is at "
        "most sqrt(2) times the larger axis sup"),
    "oracle-l1": SuiteSpec(
        _suite_oracle_l1, 1e-11,
        "facet-sum L1 norm matches the scan-line integral of chord maxima"),
    "shear-transport": SuiteSpec(
        _suite_shear_transport, 1e-9,
        "affine pushforward: gradient transport and norm scaling"),
    "product-four": SuiteSpec(
        _suite_product_four, 1e-12,
        "opposite-order width bounds multiply to 4"),
    "envelope-structure": SuiteSpec(
        _suite_envelope_structure, 1e-8,
        "hull envelopes tile, stay concave, and dominate their pins"),
    "profile-concavity": SuiteSpec(
        _each(_suite_profile_concavity), 1e-9,
        "chord-max profiles are concave with the right peak"),
    "slope-cap": SuiteSpec(
        _suite_slope_cap, 1e-9,
        "sup-norm ratios never exceed the max boundary slope"),
}


def _suite_tol(name: str, tol: float | None) -> float:
    return SUITES[name].tol if tol is None else float(tol)


def _check_run(cases: int, tol: float | None) -> None:
    """Reject an empty corpus and a tolerance no check can fail (inf) or
    that fails checks at random (nan).  A negative tol stays allowed: it
    forces violations."""
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    if tol is not None and not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")


def run_suite(name: str, corpus, tol: float | None = None) -> SuiteResult:
    """One suite over the given cases, in order; a sequence that is not a
    :class:`Block` is wrapped in one."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    _check_run(len(corpus), tol)
    spec = SUITES[name]
    use_tol = _suite_tol(name, tol)
    block = corpus if isinstance(corpus, Block) else Block(corpus)
    checks, found = spec.fn(block, use_tol)
    failures = []
    for pos, v in found:
        case = block[pos]
        v.update({"suite": name, "case": case.index, "seed": case.seed,
                  "tol": use_tol, "domain": domain_to_json(case.domain)})
        failures.append(v)
    return SuiteResult(suite=name, cases=len(block), checks=int(sum(checks)),
                       failures=tuple(failures), seed=block[0].seed,
                       tol=use_tol)


def run_all(cases: int = DEFAULT_CASES, seed: int = 42,
            tol: float | None = None, suites=tuple(SUITES)) -> list:
    """The given suites, in order, over corpus cases ``0 .. cases - 1``.

    The cases are built in blocks of :data:`CASE_BLOCK` consecutive
    indices (the last block may be shorter), each a local :class:`Block`
    that is dropped, with its facet table, before the next one is built;
    there is no cache.  Each
    (block, suite) step is a :func:`run_suite` call on that block, and the
    steps of a suite are merged in block order, so the results equal
    ``[run_suite(name, corpus, tol) for name in suites]`` over the whole
    corpus, with at most ``CASE_BLOCK`` cases in memory whatever ``cases``
    is.
    """
    _check_run(cases, tol)
    totals = {name: [0, []] for name in suites}    # checks, failures
    for start in range(0, cases, CASE_BLOCK):
        block = Block.build(seed, range(start, min(start + CASE_BLOCK, cases)))
        for name, acc in totals.items():
            res = run_suite(name, block, tol)
            acc[0] += res.checks
            acc[1] += res.failures
        del block       # else two blocks are alive while the next is built
    return [SuiteResult(suite=name, cases=cases, checks=checks,
                        failures=tuple(failures), seed=seed,
                        tol=_suite_tol(name, tol))
            for name, (checks, failures) in totals.items()]


def first_failure(results) -> dict | None:
    for res in results:
        if res.failures:
            return dict(res.failures[0])
    return None


def replay(counterexample: dict) -> SuiteResult:
    """Re-run the single corpus case a serialized violation came from.

    The corpus is regenerated from (seed, case), so the repeated run sees
    bit-identical inputs; the stored domain must equal the regenerated one
    exactly (the JSON round trip of a float is exact), which catches stale
    files.  A record of the wrong shape raises ValueError naming the field:
    ``seed`` and ``case`` must be non-negative integers and ``tol`` a
    number or null, and a JSON ``true`` is neither, although Python's bool
    is an int.
    """
    if not isinstance(counterexample, dict):
        raise ValueError("record must be a JSON object")
    name, tol = counterexample["suite"], counterexample.get("tol")
    if not isinstance(name, str):
        raise ValueError(f"suite must be a string, got {name!r}")
    if isinstance(tol, bool) or not isinstance(tol, (int, float, type(None))):
        raise ValueError(f"tol must be a number, got {tol!r}")
    seed, index = counterexample["seed"], counterexample["case"]
    for field, value in (("seed", seed), ("case", index)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{field} must be non-negative, got {value!r}")
    case = _case(seed, index)
    stored = counterexample.get("domain")
    if stored is not None:
        ref = domain_from_json(stored)
        if not np.array_equal(case.domain.vertices, ref.vertices):
            raise ValueError(
                "serialized domain does not match the regenerated corpus "
                "case; was the file produced with a different version?")
    return run_suite(name, [case], tol)
