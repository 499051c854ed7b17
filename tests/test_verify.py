"""Tests for the verification harness itself: suites pass on the honest
corpus, violations serialize with enough context to replay, and replays
notice stale inputs."""

import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from normratio import verify
from normratio.cli import main
from normratio.concave import build_function
from normratio.geometry import domain_from_json
from normratio.sampling import keyed_rng, random_envelope_descriptor
from normratio.verify import (CASE_BLOCK, SUITES, Block, first_failure,
                              jsonify, replay, run_all, run_suite)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_all_suites_pass_on_corpus_sample():
    results = run_all(cases=40)
    for res in results:
        assert res.passed, f"{res.suite}: {res.failures[:1]}"
        assert res.checks > 0
    assert first_failure(results) is None


def test_check_counts_match_bench_reference():
    # the benchmark rejects a run whose per-suite check counts differ from
    # its recorded reference, so a drift must show here first
    ref = json.loads(REFERENCE.read_text())
    (entry,) = ref["verify-corpus"]
    argv = entry["argv"]
    cases, seed = (int(argv[argv.index(flag) + 1])
                   for flag in ("--cases", "--seed"))
    results = run_all(cases=cases, seed=seed)
    assert {r.suite: r.checks for r in results} == entry["checks"]


def test_check_counts_of_a_second_seed():
    # the benchmark pins the counts at seed 42; these are the counts the
    # per-case suites gave at another seed, so that a block program that
    # drops or adds a check on another corpus shows too
    results = run_all(cases=40, seed=31337)
    assert {r.suite: (r.checks, len(r.failures)) for r in results} == {
        "theorem1": (400, 0), "cone-mass": (160, 0), "line-mass": (480, 0),
        "lemma-tan": (2000, 0), "edge-slope": (1190, 0),
        "sup-boundary": (1200, 0), "oracle-l1": (240, 0),
        "shear-transport": (320, 0), "product-four": (120, 0),
        "envelope-structure": (1200, 0), "profile-concavity": (240, 0),
        "slope-cap": (200, 0)}


@pytest.mark.parametrize("workload", ["estimate-disc", "sweep-shared"])
def test_search_rows_match_bench_reference(workload, capsys):
    # the benchmark also rejects a search row that moves off its reference
    # by more than rel 1e-9 (abs 1e-12), or changes witness kind or count
    def close(a, b):
        a, b = float(a), float(b)
        return a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    for entry in json.loads(REFERENCE.read_text())[workload]:
        assert main(entry["argv"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = out.get("rows", [out])
        assert len(rows) == len(entry["rows"])
        for i, (row, ref) in enumerate(zip(rows, entry["rows"])):
            for key, want in ref.items():
                if key == "witness_kind":
                    assert row["witness"]["kind"] == want, f"row {i}"
                else:
                    assert close(row[key], want), f"row {i} {key}"


def assert_same_results(merged, apart):
    assert [r.suite for r in merged] == list(SUITES)
    assert [r.suite for r in apart] == list(SUITES)
    for a, b in zip(merged, apart):
        assert (a.suite, a.cases, a.checks, a.seed, a.tol) \
            == (b.suite, b.cases, b.checks, b.seed, b.tol)
        assert a.failures
        assert json.dumps(jsonify(a.failures)) == json.dumps(jsonify(b.failures))
    assert jsonify(first_failure(merged)) == jsonify(first_failure(apart))


def whole_corpus(cases, seed=42):
    return [verify._case(seed, k) for k in range(cases)]


def test_run_all_matches_one_suite_at_a_time():
    # run_all goes block by block; merged per suite in block order it must
    # give what each suite gives over the whole corpus.  tol = -1 makes
    # (nearly) every check a violation, so the failure order is compared.
    merged = run_all(cases=5, tol=-1.0)
    corpus = whole_corpus(5)
    apart = [run_suite(name, corpus, tol=-1.0) for name in SUITES]
    assert_same_results(merged, apart)


def test_run_all_merges_across_block_boundaries(monkeypatch):
    # one full block and a partial one: merging at the boundary keeps the
    # whole-corpus counts, violation order and first failure
    cases = CASE_BLOCK + 3
    merged = run_all(cases=cases, tol=-1.0)
    corpus = whole_corpus(cases)
    apart = [run_suite(name, corpus, tol=-1.0) for name in SUITES]
    assert_same_results(merged, apart)
    # blocks of one case are the case-by-case order, with the same bytes
    monkeypatch.setattr(verify, "CASE_BLOCK", 1)
    assert_same_results(run_all(cases=cases, tol=-1.0), merged)


def test_run_all_calls_each_suite_once_per_block(monkeypatch):
    # the bench times verify.suite.<name>.s around run_suite, so run_all
    # must call it through the module, one call per (block, suite)
    calls = []
    real = verify.run_suite

    def spy(name, corpus, *args, **kwargs):
        calls.append((name, [case.index for case in corpus]))
        return real(name, corpus, *args, **kwargs)

    monkeypatch.setattr(verify, "run_suite", spy)
    cases = 2 * CASE_BLOCK + 5
    run_all(cases=cases)
    blocks = [list(range(start, min(start + CASE_BLOCK, cases)))
              for start in range(0, cases, CASE_BLOCK)]
    assert len(blocks) == 3
    assert calls == [(name, block) for block in blocks for name in SUITES]


@pytest.mark.parametrize("kwargs", [
    {"cases": 0}, {"cases": -3},
    {"tol": math.inf}, {"tol": -math.inf}, {"tol": math.nan}])
def test_runs_reject_empty_corpus_and_non_finite_tol(kwargs):
    # no case or an infinite tol would pass every suite vacuously, and a
    # nan tol fails some checks and passes others
    with pytest.raises(ValueError):
        run_all(**kwargs)
    corpus = whole_corpus(max(kwargs.get("cases", 1), 0))
    with pytest.raises(ValueError):
        run_suite("theorem1", corpus, tol=kwargs.get("tol"))


LEMMA_TAN_20 = """{
  "command": "verify",
  "passed": true,
  "suites": [
    {
      "suite": "lemma-tan",
      "cases": 20,
      "checks": 1000,
      "violations": 0,
      "passed": true,
      "seed": 42,
      "tol": 1e-09
    }
  ],
  "counterexample_path": null
}
"""


# sha256 of the stdout of ``verify --cases 200 --seed <seed>``
VERIFY_200_STDOUT = {
    42: "b220256139587bfe99b05bde9daee6504fb6e6b2c182437e334795c5687ed9ed",
    31337: "df202eb3e60d3e9508983026edf6a267eee5dfcbefba921e614a3a393463a227",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_200_STDOUT))
def test_full_verify_stdout_is_unchanged(seed, capsys):
    assert main(["verify", "--cases", "200", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_200_STDOUT[seed]


@pytest.mark.parametrize("seed", [42, 31337])
def test_case_alone_is_its_block_case_bytewise(seed):
    # replay builds one case alone, run_all builds it inside its block of
    # CASE_BLOCK cases; both must give the same domain and envelopes
    block = Block.build(seed, range(CASE_BLOCK, 2 * CASE_BLOCK))
    for case in block:
        alone = verify._case(seed, case.index)
        assert (alone.index, alone.seed) == (case.index, case.seed)
        assert alone.domain.vertices.tobytes() == case.domain.vertices.tobytes()
        assert len(alone.envelopes) == len(case.envelopes)
        for (da, a), (db, b) in zip(alone.envelopes, case.envelopes):
            assert da == db
            for name in ("verts", "vert_values", "tris", "planes", "trace"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), (case.index, name)


def test_single_suite_stdout_is_unchanged(capsys):
    assert main(["verify", "--suite", "lemma-tan", "--cases", "20"]) == 0
    assert capsys.readouterr().out == LEMMA_TAN_20


def test_single_suite_row_matches_the_full_run(capsys, tmp_path, monkeypatch):
    # --suite takes the same blocked path as a full run, so each suite's row
    # is the one the full run prints for it, across a block boundary too
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--cases", str(CASE_BLOCK + 3), "--tol", "-1"]
    assert main(argv) == 1
    full = json.loads(capsys.readouterr().out)["suites"]
    assert [row["suite"] for row in full] == list(SUITES)
    for row in full:
        assert main(argv + ["--suite", row["suite"]]) == 1
        (alone,) = json.loads(capsys.readouterr().out)["suites"]
        assert alone == row


def test_verify_memory_does_not_grow_with_cases():
    # at most one block of CASE_BLOCK corpus cases is alive at a time, so
    # 50 more cases may raise the peak only by the CASE_BLOCK - 10 cases
    # that fill the block, about 0.2 MB at 16 (holding every case adds
    # about 0.75 MB, blocks of 32 cases exceed the bound, and so does
    # building a block while the previous one is still alive)
    def peak(cases):
        tracemalloc.start()
        try:
            run_all(cases=cases)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_all(cases=1)                 # first-call allocations out of the way
    run_all(cases=CASE_BLOCK + 1)    # and those of a second block
    grown = peak(60) - peak(10)
    assert grown < 0.3e6, f"peak grew by {grown / 1e6:.2f} MB"


def test_suite_results_are_deterministic():
    (a,) = run_all(cases=10, suites=["theorem1"])
    (b,) = run_all(cases=10, suites=["theorem1"])
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("seed", [42, 7])
def test_corpus_descriptors_regenerate_and_rebuild(seed):
    # each corpus envelope keeps one descriptor, its function's own
    for index in range(40):
        case = verify._case(seed, index)
        for j, (desc, u) in enumerate(case.envelopes):
            assert desc is u.descriptor
            assert desc == random_envelope_descriptor(
                keyed_rng(seed, index, 1 + j), case.domain)
            again = build_function(case.domain, desc)
            for name in ("verts", "vert_values", "tris", "planes", "trace"):
                np.testing.assert_array_equal(getattr(again, name),
                                              getattr(u, name))


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", whole_corpus(1))
    with pytest.raises(KeyError):
        run_all(cases=1, suites=["no-such-suite"])


def test_oracle_suite_takes_no_line_count():
    (res,) = run_all(cases=5, suites=["oracle-l1"])
    assert res.passed
    # the hull oracle is exact, so there is no line count to set
    with pytest.raises(TypeError):
        run_all(cases=5, suites=["oracle-l1"], n_lines=64)


def test_forced_violation_serializes_and_replays():
    # an impossible tolerance guarantees failures without touching the code
    (res,) = run_all(cases=3, tol=-1.0, suites=["theorem1"])
    assert not res.passed
    bad = dict(res.failures[0])
    for field in ("suite", "case", "seed", "tol", "domain"):
        assert field in bad
    # the record survives a JSON round trip and replays to the same failure
    wire = json.loads(json.dumps(jsonify(bad)))
    again = replay(wire)
    assert not again.passed
    assert again.cases == 1
    assert again.failures[0]["case"] == bad["case"]
    # with the suite's honest tolerance the same case is clean
    wire_ok = dict(wire)
    wire_ok["tol"] = None
    assert replay(wire_ok).passed


def test_edge_slope_forced_violations_name_boundary_facets():
    (res,) = run_all(cases=5, tol=-1.0, suites=["edge-slope"])
    fields = ["facet", "edge", "grad", "edge_dir", "tangential"]
    for bad in res.failures:
        assert list(bad["detail"]) == fields
        dom = domain_from_json(bad["domain"])
        u = build_function(dom, bad["function"])
        e = bad["detail"]["edge"]
        verts = u.verts[u.tris[bad["detail"]["facet"]]]
        off = np.abs(verts @ dom.edge_normals()[e] - dom.edge_offsets()[e])
        assert (off <= 10 * dom.tol).sum() >= 2
    # every facet-edge check fails; the one check per envelope fails only
    # where no facet has an edge on the boundary
    with_edge = 0
    for k in range(5):
        case = verify._case(42, k)
        normals, offs = case.domain.edge_normals(), case.domain.edge_offsets()
        tol = 10 * case.domain.tol
        for _, u in case.envelopes:
            near = np.abs(u.verts @ normals.T - offs) <= tol
            with_edge += any(
                (near[a] & near[b]).any()
                and np.hypot(*(u.verts[a] - u.verts[b])) > tol
                for tri in u.tris for a, b in itertools.combinations(tri, 2))
    assert with_edge > 0
    assert len(res.failures) == res.checks - with_edge


def test_replay_rejects_stale_domain(tmp_path, capsys):
    (res,) = run_all(cases=1, tol=-1.0, suites=["theorem1"])
    good = json.loads(json.dumps(jsonify(dict(res.failures[0]))))
    for move in (0.5, 1e-9):
        bad = json.loads(json.dumps(good))
        bad["domain"]["vertices"][0][0] += move
        with pytest.raises(ValueError):
            replay(bad)
        # the command line reports it as an input error
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(bad))
        assert main(["verify", "--replay", str(path)]) == 2
        assert "does not match" in capsys.readouterr().err


def test_registry_documents_every_suite():
    assert {"theorem1", "lemma-tan", "oracle-l1"} <= set(SUITES)
    for name, spec in SUITES.items():
        assert spec.description
        assert spec.tol > 0


def test_jsonify_handles_special_floats():
    out = jsonify({"a": float("inf"), "b": float("-inf"),
                   "c": float("nan"), "d": 1.5})
    assert out == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5}
