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
walks the corpus.  It goes block by block: it builds a block of
:data:`CASE_BLOCK` consecutive corpus cases as a local list, runs every
requested suite over it, one suite after another, and drops the list
before it builds the next block.  At most ``CASE_BLOCK`` cases are in
memory at a time, so peak memory does not grow with the number of cases,
and each suite still runs over several cases in a row, which is as fast
as running it over the whole corpus.  Nothing is cached between blocks
or between runs.  Values that several suites need (axis widths, axis L1
norms, axis sup reports, the normalizing affine map and the images of
the first two envelopes) are computed once per case on :class:`Case`
and dropped with it.  Per suite, the block results are merged in block
order, so the results, and the first failure, are those of running each
suite over the whole corpus in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import norms
from .bounds import affine_normalize, directional_k1_upper
from .concave import (
    chord_max_hull,
    check_concavity,
    check_partition,
    check_vertex_consistency,
    concave_envelopes,
    evaluate,
    gradients_at,
    max_profile,
    transform_function,
)
from .geometry import (
    E1,
    E2,
    ConvexDomain,
    Direction,
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
    random_envelope_descriptor,
    random_interior_points,
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
    """One corpus entry: a random polygon and its random envelopes."""

    index: int
    seed: int
    domain: ConvexDomain
    envelopes: tuple

    def rng(self, *key: int) -> np.random.Generator:
        """Extra deterministic draws, disjoint from the corpus streams."""
        return keyed_rng(self.seed, self.index, 100, *key)

    # values shared by several suites, computed on first use

    @cached_property
    def axis_widths(self) -> tuple:
        """Widths of the domain along E1 and E2."""
        return tuple(width(self.domain, h) for h in (E1, E2))

    @cached_property
    def axis_l1(self) -> tuple:
        """Per envelope, its p = 1 norms along E1 and E2."""
        return tuple(tuple(norms.lp_directional_norm(u, h, 1).value
                           for h in (E1, E2))
                     for _, u in self.envelopes)

    @cached_property
    def axis_sups(self) -> tuple:
        """Per envelope, its sup-norm reports along E1 and E2."""
        return tuple(tuple(norms.sup_directional_norm(u, h) for h in (E1, E2))
                     for _, u in self.envelopes)

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
    dom = random_convex_polygon(keyed_rng(seed, index, 0))
    descs = [random_envelope_descriptor(keyed_rng(seed, index, 1 + j), dom)
             for j in range(ENVELOPES_PER_CASE)]
    envs = concave_envelopes(dom, [[((x, y), h) for x, y, h in d["constraints"]]
                                   for d in descs])
    return Case(index=index, seed=seed, domain=dom,
                envelopes=tuple((u.descriptor, u) for u in envs))


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
# suite bodies.  Each returns (checks_performed, violations).
# ---------------------------------------------------------------------------


def _suite_sandwich(case: Case, tol: float):
    """w*M <= ||d_h u||_1 <= 2*w*M for every envelope, both axes."""
    checks, bad = 0, []
    for a, (h, w) in enumerate(zip((E1, E2), case.axis_widths)):
        for (desc, u), l1 in zip(case.envelopes, case.axis_l1):
            val = l1[a]
            lo = w * u.max_value
            scale = max(1.0, lo)
            checks += 1
            if not (lo - tol * scale <= val <= 2.0 * lo + tol * scale):
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "norm": val, "wM": lo, "2wM": 2 * lo},
                    desc))
    return checks, bad


def _suite_cone_mass(case: Case, tol: float):
    """Single-peak envelopes hit the lower wall exactly: ||d_h u||_1 = w*M."""
    checks, bad = 0, []
    rng = case.rng(1)
    pts = random_interior_points(rng, case.domain, 2)
    heights = [float(rng.uniform(0.2, 1.0)) for _ in pts]
    widths = list(zip((E1, E2), case.axis_widths))
    cones = concave_envelopes(case.domain, [[(pt, height)] for pt, height
                                            in zip(pts, heights)])
    for u in cones:
        desc = u.descriptor
        for h, w in widths:
            val = norms.lp_directional_norm(u, h, 1).value
            target = w * u.max_value
            checks += 1
            if abs(val - target) > tol * max(1.0, target):
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "norm": val, "wM": target,
                     "error": val - target}, desc))
    return checks, bad


def _suite_line_mass(case: Case, tol: float):
    """Per line: the one-dimensional |d_h u| mass equals twice the chord max.

    The left side sums |g . h| times each facet's interval on the line and
    adds the values at the chord's ends (the boundary jumps); the right
    side reads the chord maximum off the upper hull of the projected graph
    vertices.  Entirely independent code paths.
    """
    checks, bad = 0, []
    rng = case.rng(2)
    dirs = (E1, random_direction(rng))
    for desc, u in case.envelopes[:2]:
        for h in dirs:
            n = h.perp().as_array()
            proj = dot2(case.domain.vertices, n)
            lo, hi = float(proj.min()), float(proj.max())
            hull_t, hull_m = chord_max_hull(u, n)
            # No line here meets a degenerate chord: the chord length is
            # concave in the offset, so at 5-95% of the projection range it
            # is at least a twentieth of the longest chord, itself at least
            # area / range, and corpus areas are >= 0.05.
            ts = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=3)
            ms = np.interp(ts, hull_t, hull_m)
            lis = norms.line_integral_abs_dh(u, h, ts)
            for t, m, li in zip(ts.tolist(), ms.tolist(), lis.tolist()):
                checks += 1
                if abs(li - 2.0 * m) > tol * (1.0 + 2.0 * abs(m)):
                    bad.append(_violation(
                        {"h": [h.dx, h.dy], "t": t, "line_mass": li,
                         "chord_max": m}, desc))
    return checks, bad


def _suite_tangent(case: Case, tol: float):
    """Tangent-plane bounds through the normalized extreme points.

    After the shear-and-scale the extremes sit at (0,0) and (2,0) where u
    vanishes, so at every differentiable point the supporting plane gives
    x*u_x <= u - y*u_y and (x-2)*u_x <= u - y*u_y, hence
    |u_x| <= (u - y*u_y)/min(x, 2-x).
    """
    checks, bad = 0, []
    img, _, images = case.normalized
    rng = case.rng(3)
    for (desc, _), tu in zip(case.envelopes, images):
        scale = 1.0 + tu.max_value
        pts = random_interior_points(rng, img, 25)
        vals, grads, regular = gradients_at(tu, pts)
        for (x, y), val, (gx, gy) in zip(pts[regular].tolist(),
                                         vals[regular].tolist(),
                                         grads[regular].tolist()):
            rhs = val - y * gy
            checks += 1
            if x * gx > rhs + tol * scale or (x - 2.0) * gx > rhs + tol * scale:
                bad.append(_violation(
                    {"point": [x, y], "u": val, "grad": [gx, gy],
                     "rhs": rhs}, desc))
    return checks, bad


def _suite_edge_slope(case: Case, tol: float):
    """Facet gradients are tangential-derivative-free on boundary edges.

    A facet whose closure contains a segment of a boundary edge has a
    plane vanishing on that edge line, so its gradient is orthogonal to
    the edge direction; equivalently -g_x/g_y equals the edge slope.
    """
    checks, bad = 0, []
    normals = case.domain.edge_normals()
    # unit tangents, the normals turned a quarter counterclockwise
    edge_dirs = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    offs = case.domain.edge_offsets()
    tol_geom = case.domain.margin
    for desc, u in case.envelopes:
        # vertex-to-edge-line incidence; interior points of the domain can
        # only touch an edge line inside the actual edge segment
        on_edge = np.abs(dot2(u.verts[:, None, :], normals) - offs) <= tol_geom
        pairs = u.tris[:, [[0, 1], [1, 2], [0, 2]]]             # (F, 3, 2)
        inc = on_edge[pairs[..., 0]] & on_edge[pairs[..., 1]]    # (F, 3, E)
        seg = u.verts[pairs[..., 0]] - u.verts[pairs[..., 1]]
        hit = inc.any(axis=2) & (np.hypot(seg[..., 0], seg[..., 1]) > tol_geom)
        facet, pair = np.nonzero(hit)
        edge = inc[facet, pair].argmax(axis=1)
        g = u.planes[facet, :2]
        tangential = dot2(g, edge_dirs[edge])
        worse = np.abs(tangential) > tol * (1.0 + np.hypot(g[:, 0], g[:, 1]))
        checks += len(facet) + 1
        bad += [_violation({"facet": facet[i], "edge": edge[i], "grad": g[i],
                            "edge_dir": edge_dirs[edge[i]],
                            "tangential": tangential[i]}, desc)
                for i in np.flatnonzero(worse)]
        if len(facet) == 0:
            bad.append(_violation(
                {"reason": "no facet with a boundary edge segment"}, desc))
    return checks, bad


def _suite_sup_boundary(case: Case, tol: float):
    """The sup of |d_h u| is attained on a facet touching the boundary,
    and for any unit h it is at most sqrt(2) times the larger axis sup."""
    checks, bad = 0, []
    dirs = (E1, E2, random_direction(case.rng(4)))
    for (desc, u), axis in zip(case.envelopes, case.axis_sups):
        reps = [*axis, norms.sup_directional_norm(u, dirs[2])]
        axis_cap = math.sqrt(2.0) * max(reps[0].value, reps[1].value)
        for h, rep in zip(dirs, reps):
            checks += 1
            if not rep.attained_on_boundary:
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "sup": rep.value,
                     "argmax_facet": rep.argmax_facet}, desc))
            checks += 1
            if rep.value > axis_cap + tol:
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "sup": rep.value,
                     "axis_cap": axis_cap}, desc))
    return checks, bad


def _suite_oracle_l1(case: Case, tol: float):
    """Facet-sum L1 norms against the scan-line oracle (upper hull of the
    projected vertices, integrated exactly)."""
    checks, bad = 0, []
    for (desc, u), l1 in zip(case.envelopes[:3], case.axis_l1):
        for h, exact in zip((E1, E2), l1):
            scan = norms.scanline_l1_norm(u, h).value
            checks += 1
            denom = max(exact, scan, 1e-300)
            if abs(exact - scan) > tol * denom:
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "facet_sum": exact, "scanline": scan,
                     "rel_err": abs(exact - scan) / denom}, desc))
    return checks, bad


def _suite_shear_transport(case: Case, tol: float):
    """Affine pushforward: gradient transport and norm change of variables.

    Checks, with T the normalizing shear (image = lin x + shift):
      (a) facet gradients satisfy g = lin^T g-tilde;
      (b) vertical p-norms scale by |det lin|^(1/p), p in {1, 2};
      (c) the composed horizontal norm bound from the triangle inequality.
    """
    checks, bad = 0, []
    _, lin, images = case.normalized
    det = abs(float(cross2(lin[0], lin[1])))
    for (desc, u), tu, l1 in zip(case.envelopes, images, case.axis_l1):
        back = dot2(tu.planes[:, None, :2], lin.T)
        gscale = 1.0 + float(np.abs(u.planes[:, :2]).max())
        checks += 1
        if float(np.abs(back - u.planes[:, :2]).max()) > tol * gscale:
            bad.append(_violation(
                {"part": "gradient-transport",
                 "max_err": float(np.abs(back - u.planes[:, :2]).max())},
                desc))
        for p in (1.0, 2.0):
            a = norms.lp_directional_norm(tu, E2, p).value ** p
            src = (l1[1] if p == 1.0
                   else norms.lp_directional_norm(u, E2, p).value)
            b = det * src ** p
            checks += 1
            if abs(a - b) > tol * max(1.0, a, b):
                bad.append(_violation(
                    {"part": "vertical-norm-scaling", "p": p,
                     "image": a, "scaled_source": b}, desc))
        nx = norms.lp_directional_norm(u, E1, 2).value
        n1 = norms.lp_directional_norm(tu, E1, 2).value
        n2 = norms.lp_directional_norm(tu, E2, 2).value
        cap = (abs(lin[0, 0]) * n1 + abs(lin[1, 0]) * n2) / math.sqrt(det)
        checks += 1
        if nx > cap + tol * max(1.0, cap):
            bad.append(_violation(
                {"part": "composition", "norm": nx, "cap": cap}, desc))
    return checks, bad


def _suite_product_four(case: Case, tol: float):
    """Opposite-order width bounds multiply to exactly 4 for every pair."""
    checks, bad = 0, []
    rng = case.rng(5)
    angles = [0.0] + [float(a) for a in rng.uniform(0.0, math.pi, size=2)]
    for ang in angles:
        h1 = Direction.from_angle(ang)
        h2 = h1.perp()
        b12 = directional_k1_upper(case.domain, h1, h2).value
        b21 = directional_k1_upper(case.domain, h2, h1).value
        checks += 1
        if abs(b12 * b21 - 4.0) > 4.0 * tol:
            bad.append(_violation(
                {"angle": ang, "forward": b12, "reverse": b21,
                 "product": b12 * b21}))
    return checks, bad


def _suite_envelope_structure(case: Case, tol: float):
    """Envelopes tile the domain, stay concave, and dominate their pins."""
    checks, bad = 0, []
    for desc, u in case.envelopes:
        scale = 1.0 + u.max_value
        checks += 3
        if not check_partition(u, tol):
            bad.append(_violation({"part": "partition"}, desc))
        if not check_concavity(u, max(tol, 1e-9)):
            bad.append(_violation({"part": "concavity"}, desc))
        if not check_vertex_consistency(u, max(tol, 1e-9)):
            bad.append(_violation({"part": "vertex-values"}, desc))
        cons = np.asarray(desc["constraints"], dtype=float)
        vals = evaluate(u, cons[:, :2])
        checks += 1
        if np.any(vals < cons[:, 2] - tol * scale):
            bad.append(_violation(
                {"part": "domination",
                 "worst": float((vals - cons[:, 2]).min())}, desc))
        checks += 1
        if abs(u.max_value - float(cons[:, 2].max())) > tol * scale:
            bad.append(_violation(
                {"part": "peak", "max_value": u.max_value,
                 "top_constraint": float(cons[:, 2].max())}, desc))
        rim = evaluate(u, case.domain.vertices)
        checks += 1
        if float(np.abs(rim).max()) > tol * scale:
            bad.append(_violation(
                {"part": "boundary-trace",
                 "max_abs": float(np.abs(rim).max())}, desc))
    return checks, bad


def _suite_profile_concavity(case: Case, tol: float):
    """Chord-max profiles are concave with peak equal to the global max."""
    checks, bad = 0, []
    for desc, u in case.envelopes[:3]:
        prof = max_profile(u, E1)
        v = prof.values
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


def _suite_slope_cap(case: Case, tol: float):
    """No classical function beats the boundary-slope sup-norm cap."""
    checks, bad = 0, []
    m = max_boundary_slope(case.domain)
    if math.isinf(m):
        return 0, []
    for (desc, _), (rep1, rep2) in zip(case.envelopes, case.axis_sups):
        s1, s2 = rep1.value, rep2.value
        checks += 1
        if s1 > (m + tol * (1.0 + m)) * s2:
            bad.append(_violation(
                {"sup_x": s1, "sup_y": s2, "slope_cap": m,
                 "ratio": s1 / s2 if s2 else math.inf}, desc))
    return checks, bad


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
        _suite_profile_concavity, 1e-9,
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
    """One suite over the given list of cases, in order."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    _check_run(len(corpus), tol)
    spec = SUITES[name]
    use_tol = _suite_tol(name, tol)
    total_checks = 0
    failures = []
    for case in corpus:
        checks, bad = spec.fn(case, use_tol)
        total_checks += checks
        for v in bad:
            v.update({"suite": name, "case": case.index, "seed": case.seed,
                      "tol": use_tol, "domain": domain_to_json(case.domain)})
            failures.append(v)
    return SuiteResult(suite=name, cases=len(corpus), checks=total_checks,
                       failures=tuple(failures), seed=corpus[0].seed,
                       tol=use_tol)


def run_all(cases: int = DEFAULT_CASES, seed: int = 42,
            tol: float | None = None, suites=tuple(SUITES)) -> list:
    """The given suites, in order, over corpus cases ``0 .. cases - 1``.

    The cases are built in blocks of :data:`CASE_BLOCK` consecutive
    indices (the last block may be shorter), each a local list that is
    dropped before the next one is built; there is no cache.  Each
    (block, suite) step is a :func:`run_suite` call on that block, and the
    steps of a suite are merged in block order, so the results equal
    ``[run_suite(name, corpus, tol) for name in suites]`` over the whole
    corpus, with at most ``CASE_BLOCK`` cases in memory whatever ``cases``
    is.
    """
    _check_run(cases, tol)
    totals = {name: [0, []] for name in suites}    # checks, failures
    for start in range(0, cases, CASE_BLOCK):
        block = [_case(seed, k)
                 for k in range(start, min(start + CASE_BLOCK, cases))]
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
    files.
    """
    name = counterexample["suite"]
    seed = int(counterexample["seed"])
    index = int(counterexample["case"])
    case = _case(seed, index)
    stored = counterexample.get("domain")
    if stored is not None:
        ref = domain_from_json(stored)
        if not np.array_equal(case.domain.vertices, ref.vertices):
            raise ValueError(
                "serialized domain does not match the regenerated corpus "
                "case; was the file produced with a different version?")
    return run_suite(name, [case], counterexample.get("tol"))
