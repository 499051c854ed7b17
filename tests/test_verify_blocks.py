"""The block suites against the per-case code they replace.

theorem1, edge-slope, sup-boundary, envelope-structure, slope-cap,
line-mass, oracle-l1, shear-transport, lemma-tan and product-four run as
array programs over the facet tables of a block of cases, and cone-mass
builds the cones of a whole block in one ``concave_envelope_groups``
call.  The per-case bodies below are those suites as they were written
before, one envelope at a time, with the ``norms`` calls behind the axis
values; the block programs must give the same checks and violations,
maxima and minima bit for bit, and sums up to their order of addition.
line-mass and oracle-l1 read their chord maxima from one
``chord_max_hulls`` call per block where the bodies below take one
``chord_max_hull`` (a profile of one, in ``conftest``) or
``scanline_l1_norm`` per envelope and direction; every sum they add is
in the same order, so their records agree bit for bit.  cone-mass's body
builds each cone alone, and its records agree bit for bit too.
cone-mass's and lemma-tan's bodies draw their points one request at a
time (``reference_interior_points`` in ``conftest``), where the block
suites draw all of a block's in one sampler call.  lemma-tan's body takes each image's gradients from the full (points,
planes) table (``stacked_gradients_at`` in ``conftest``), and
product-four's calls ``directional_k1_upper`` per direction pair; both
agree bit for bit with the block programs.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from normratio import norms
from normratio.bounds import directional_k1_upper
from normratio.concave import (check_concavity, check_partition,
                               check_vertex_consistency, concave_envelope,
                               evaluate, plane_values, tent_function)
from normratio.facets import FacetTable
from normratio.geometry import (E1, E2, Direction, cross2, domain_to_json,
                                dot2, max_boundary_slope, square, width)
from normratio.sampling import random_direction
from normratio.verify import (CASE_BLOCK, SUITES, Block, _case, _violation,
                              jsonify, run_all, run_suite)

from conftest import (chord_max_hull, reference_interior_points,
                      stacked_gradients_at)

REL = 1e-13
BITWISE = ("cone-mass", "line-mass", "oracle-l1", "lemma-tan",
           "product-four")


def ref_sandwich(case, tol):
    checks, bad = 0, []
    for h in (E1, E2):
        w = width(case.domain, h)
        for desc, u in case.envelopes:
            val = norms.lp_directional_norm(u, h, 1).value
            lo = w * u.max_value
            scale = max(1.0, lo)
            checks += 1
            if not (lo - tol * scale <= val <= 2.0 * lo + tol * scale):
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "norm": val, "wM": lo, "2wM": 2 * lo},
                    desc))
    return checks, bad


def ref_edge_slope(case, tol):
    checks, bad = 0, []
    normals = case.domain.edge_normals()
    edge_dirs = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    offs = case.domain.edge_offsets()
    tol_geom = case.domain.margin
    for desc, u in case.envelopes:
        on_edge = np.abs(dot2(u.verts[:, None, :], normals) - offs) <= tol_geom
        pairs = u.tris[:, [[0, 1], [1, 2], [0, 2]]]
        inc = on_edge[pairs[..., 0]] & on_edge[pairs[..., 1]]
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


def ref_sup_boundary(case, tol):
    checks, bad = 0, []
    dirs = (E1, E2, random_direction(case.rng(4)))
    for desc, u in case.envelopes:
        reps = [norms.sup_directional_norm(u, h) for h in dirs]
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


def ref_envelope_structure(case, tol):
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


def ref_slope_cap(case, tol):
    checks, bad = 0, []
    m = max_boundary_slope(case.domain)
    if math.isinf(m):
        return 0, []
    for desc, u in case.envelopes:
        s1 = norms.sup_directional_norm(u, E1).value
        s2 = norms.sup_directional_norm(u, E2).value
        checks += 1
        if s1 > (m + tol * (1.0 + m)) * s2:
            bad.append(_violation(
                {"sup_x": s1, "sup_y": s2, "slope_cap": m,
                 "ratio": s1 / s2 if s2 else math.inf}, desc))
    return checks, bad


def ref_cone_mass(case, tol):
    # each cone built alone
    checks, bad = 0, []
    rng = case.rng(1)
    pts = reference_interior_points(rng, case.domain, 2)
    heights = [float(rng.uniform(0.2, 1.0)) for _ in pts]
    for pt, height in zip(pts, heights):
        u = concave_envelope(case.domain, [(pt, height)])
        for h in (E1, E2):
            val = norms.lp_directional_norm(u, h, 1).value
            target = width(case.domain, h) * u.max_value
            checks += 1
            if abs(val - target) > tol * max(1.0, target):
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "norm": val, "wM": target,
                     "error": val - target}, u.descriptor))
    return checks, bad


def ref_line_mass(case, tol):
    checks, bad = 0, []
    rng = case.rng(2)
    dirs = (E1, random_direction(rng))
    for desc, u in case.envelopes[:2]:
        for h in dirs:
            n = h.perp().as_array()
            proj = dot2(case.domain.vertices, n)
            lo, hi = float(proj.min()), float(proj.max())
            hull_t, hull_m = chord_max_hull(u, n)
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


def ref_oracle_l1(case, tol):
    # the facet sums from the case's own table, as the suite read them:
    # rel_err is a difference of two sums that agree to rounding
    checks, bad = 0, []
    l1 = FacetTable([u for _, u in case.envelopes],
                    [len(case.envelopes)]).axis_norms(1.0)
    for (desc, u), exact_l1 in zip(case.envelopes[:3], l1):
        for h, exact in zip((E1, E2), exact_l1):
            scan = norms.scanline_l1_norm(u, h).value
            checks += 1
            denom = max(exact, scan, 1e-300)
            if abs(exact - scan) > tol * denom:
                bad.append(_violation(
                    {"h": [h.dx, h.dy], "facet_sum": exact, "scanline": scan,
                     "rel_err": abs(exact - scan) / denom}, desc))
    return checks, bad


def ref_shear_transport(case, tol):
    checks, bad = 0, []
    _, lin, images = case.normalized
    det = abs(float(cross2(lin[0], lin[1])))
    for (desc, u), tu in zip(case.envelopes, images):
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
            b = det * norms.lp_directional_norm(u, E2, p).value ** p
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


def ref_tangent(case, tol):
    checks, bad = 0, []
    img, _, images = case.normalized
    rng = case.rng(3)
    for (desc, _), tu in zip(case.envelopes, images):
        scale = 1.0 + tu.max_value
        pts = reference_interior_points(rng, img, 25)
        vals, grads, regular = stacked_gradients_at(tu, pts)
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


def ref_product_four(case, tol):
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


REFERENCE = {
    "theorem1": ref_sandwich,
    "cone-mass": ref_cone_mass,
    "edge-slope": ref_edge_slope,
    "sup-boundary": ref_sup_boundary,
    "envelope-structure": ref_envelope_structure,
    "slope-cap": ref_slope_cap,
    "line-mass": ref_line_mass,
    "oracle-l1": ref_oracle_l1,
    "shear-transport": ref_shear_transport,
    "lemma-tan": ref_tangent,
    "product-four": ref_product_four,
}


def reference_run(name, cases, tol):
    """(checks, failures) of the per-case body over cases, stamped as
    run_suite stamps them."""
    use_tol = SUITES[name].tol if tol is None else tol
    checks, failures = 0, []
    for case in cases:
        n, bad = REFERENCE[name](case, use_tol)
        checks += n
        for v in bad:
            v.update({"suite": name, "case": case.index, "seed": case.seed,
                      "tol": use_tol, "domain": domain_to_json(case.domain)})
            failures.append(v)
    return checks, failures


def wire(records):
    return json.loads(json.dumps(jsonify(list(records))))


def assert_close(got, want, where="record"):
    """Same keys in the same order and the same strings and integers;
    floats within REL relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert got == want or abs(got - want) <= REL * max(abs(got),
                                                           abs(want)), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("tol", [None, -1.0])
def test_block_suites_match_per_case_code(seed, tol):
    # one full block and a partial one; at tol = -1 (nearly) every check
    # fails, so the violations are compared record by record
    cases = CASE_BLOCK + 3
    corpus = [_case(seed, k) for k in range(cases)]
    results = run_all(cases=cases, seed=seed, tol=tol, suites=list(REFERENCE))
    for res in results:
        checks, failures = reference_run(res.suite, corpus, tol)
        assert res.checks == checks, res.suite
        assert len(res.failures) == len(failures), res.suite
        if res.suite in BITWISE:
            assert wire(res.failures) == wire(failures), res.suite
        else:
            assert_close(wire(res.failures), wire(failures), res.suite)
        if tol is None:
            assert res.passed, res.suite


# sha256 of json.dumps(jsonify({"result": res.to_dict(), "failures":
# list(res.failures)})) for each suite of run_all(40, seed, tol=-1), as
# the per-case suites wrote them
RECORDS_40 = {
    ("lemma-tan", 42):
        "92f4c729860729ba4fe1b228dbfe2b1367aaa4b3bece4856aecaaa7d7a20eca8",
    ("product-four", 42):
        "ecf77a4b16e787a72fc69e7f79ee0ca7f22c17c08251108bb22f40d974db0588",
    ("lemma-tan", 7):
        "eaa482e8e81032960241101509a53953ebd4bb9f1c0f254164785494d16c0c77",
    ("product-four", 7):
        "8399fe8868641d09f30bb45c3682bf76f743de46f8f327ecf800ee9304d554fc",
}


@pytest.mark.parametrize("seed", [42, 7])
def test_forced_records_are_unchanged(seed):
    for res in run_all(40, seed=seed, tol=-1.0,
                       suites=["lemma-tan", "product-four"]):
        text = json.dumps(jsonify({"result": res.to_dict(),
                                   "failures": list(res.failures)}))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == RECORDS_40[res.suite, seed]), res.suite


@pytest.mark.parametrize("seed", [42, 7])
def test_table_values_match_per_envelope_functions(seed):
    corpus = [_case(seed, k) for k in range(CASE_BLOCK + 3)]
    for cases in (corpus[:CASE_BLOCK], corpus[CASE_BLOCK:]):
        block = Block(cases)
        t = block.table
        envs = [u for case in cases for _, u in case.envelopes]
        np.testing.assert_array_equal(t.max_values,
                                      [u.max_value for u in envs])
        np.testing.assert_array_equal(
            t.axis_sups, [[norms.sup_directional_norm(u, h).value
                           for h in (E1, E2)] for u in envs])
        # the axis p-norms, of the envelopes and of the images that
        # shear-transport reads
        images = [tu for case in cases for tu in case.normalized[2]]
        for table, funcs in ((t, envs), (block.images, images)):
            for p in (1.0, 2.0):
                np.testing.assert_allclose(
                    table.axis_norms(p),
                    [[norms.lp_directional_norm(u, h, p).value
                      for h in (E1, E2)] for u in funcs], rtol=REL, atol=0)
        np.testing.assert_array_equal(
            t.facet_on_boundary,
            np.concatenate([u.facet_on_boundary for u in envs]))
        # min over planes at the points envelope-structure reads
        owners = [case for case in cases for _ in case.envelopes]
        for k, (u, case) in enumerate(zip(envs, owners)):
            cons = np.asarray(u.descriptor["constraints"])[:, :2]
            for pts in (u.verts, u.verts[u.tris].mean(axis=1), cons,
                        case.domain.vertices):
                np.testing.assert_array_equal(
                    t.min_planes(pts, np.full(len(pts), k)),
                    plane_values(u, pts).min(axis=1))


@pytest.mark.parametrize("name", list(REFERENCE))
def test_block_credits_each_case_its_own_share(name):
    # a case in the middle of a block and the block's last case: alone they
    # must give their share of the block, so no facet, vertex or edge is
    # credited to a neighbouring envelope or case.  A tol of -1e6 fails
    # every check that reads it, sup-boundary's cap too.
    tol = -1e6
    block = Block(_case(42, k) for k in range(CASE_BLOCK))
    per_case, _ = SUITES[name].fn(block, tol)
    together = run_suite(name, block, tol)
    for pos in (CASE_BLOCK // 2 - 1, CASE_BLOCK - 1):
        case = block[pos]
        alone = run_suite(name, [case], tol)
        assert alone.checks == per_case[pos]
        share = [v for v in together.failures if v["case"] == case.index]
        assert share
        assert wire(alone.failures) == wire(share)


def test_table_refuses_a_function_with_a_boundary_trace():
    # its norms would miss the jump part, which lives on the boundary
    tent = tent_function(square(), [(0.0, 0.0), (1.0, 1.0)])
    assert tent.trace.any()
    with pytest.raises(ValueError):
        FacetTable([tent], [1])
