"""End-to-end tests of the command-line interface: output formats, exit
codes, determinism, and the counterexample/replay loop."""

import ast
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normratio
from normratio.cli import (COUNTEREXAMPLE_PATH, _fmt_cell, _parser,
                           _resolve_domain, main)
from normratio.geometry import disc, domain_to_json, square

from conftest import NEAR_VERTICAL_SQUARES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "expected at least one data row"
    return rows


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_diamond_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "diamond")
    assert code == 0
    rep = json.loads(out)
    assert rep["n_vertices"] == 4
    assert rep["area"] == pytest.approx(2.0)
    assert rep["w_x"] == pytest.approx(2.0)
    assert rep["m"] == pytest.approx(1.0)
    assert rep["angular"] is True


def test_analyze_square_has_infinite_slope(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "square")
    assert code == 0
    rep = json.loads(out)
    assert rep["angular"] is False
    assert rep["m"] == "inf"


@pytest.mark.parametrize("verts", NEAR_VERTICAL_SQUARES)
def test_near_vertical_walls_answer_as_the_square(capsys, tmp_path, verts):
    path = tmp_path / "dom.json"
    path.write_text(json.dumps({"vertices": verts}))
    dom = ("--domain", str(path))
    code, out, _ = run_cli(capsys, "analyze", *dom)
    rep = json.loads(out)
    assert code == 0 and rep["m"] == "inf" and rep["angular"] is False
    for p in ("2", "inf"):
        code, out, _ = run_cli(capsys, "bounds", *dom, "--p", p)
        assert code == 0 and json.loads(out)["value"] == "inf"
    # the wall family displaces the apex into the domain, as on the square
    for family in ("u-omega", "u-omega-vertical"):
        code, out, _ = run_cli(capsys, "families", *dom, "--family", family)
        rows = json.loads(out)["rows"]
        assert code == 0 and len(rows) == 5
        for row in rows:
            assert row["ratio"] == pytest.approx(0.5 / row["parameter"],
                                                 rel=1e-9)
    code, out, _ = run_cli(capsys, "estimate", *dom, "--p", "inf",
                           "--budget", "20")
    rep = json.loads(out)
    assert code == 0 and rep["evaluations"] == 20
    assert rep["best_ratio"] == pytest.approx(500.0, rel=1e-9)


def test_analyze_disc_slope_matches_polygon_angle(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "disc", "--n", "512")
    rep = json.loads(out)
    assert rep["m"] == pytest.approx(1.0 / math.tan(math.pi / 512), rel=1e-12)


def test_analyze_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "diamond",
                           "--format", "csv")
    assert code == 0
    assert "np." not in out
    row = parse_csv(out)[0]
    assert float(row["area"]) == pytest.approx(2.0)
    assert row["angular"] == "true"


# ---------------------------------------------------------------------------
# bounds / estimate / poincare
# ---------------------------------------------------------------------------


def test_bounds_diamond_p2(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--preset", "diamond",
                           "--p", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(1.0 + 2.0 / math.pi, abs=2e-3)


def test_bounds_infinite_value_serializes_as_string(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--preset", "square", "--p", "2")
    assert code == 0
    value = json.loads(out)["value"]
    code, out, _ = run_cli(capsys, "bounds", "--preset", "square", "--p", "2",
                           "--format", "csv")
    # one text in both formats: a CSV cell is jsonify's value, rendered
    assert parse_csv(out)[0]["value"] == value == "inf"
    cells = (np.float64(-math.inf), math.nan, np.bool_(True), np.int64(3))
    assert [_fmt_cell(x) for x in cells] == ["-inf", "nan", "true", "3"]


def test_estimate_disc_l1(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--preset", "disc",
                           "--p", "1", "--budget", "60")
    assert code == 0
    rep = json.loads(out)
    assert rep["best_ratio"] >= 1.99
    assert rep["witness"]["kind"] == "tent"
    assert rep["best_ratio"] <= rep["upper_bound"] + 1e-9


def test_poincare_default(capsys):
    code, out, _ = run_cli(capsys, "poincare")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.10132, abs=1e-4)
    code, out, _ = run_cli(capsys, "poincare", "--format", "csv")
    assert float(parse_csv(out)[0]["value"]) == pytest.approx(0.10132,
                                                              abs=1e-4)


def test_poincare_rejects_bad_p(capsys):
    code, _, err = run_cli(capsys, "poincare", "--p", "1")
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_families_square_vertical_wall(capsys):
    code, out, _ = run_cli(capsys, "families", "--preset", "square",
                           "--family", "u-omega-vertical", "--p", "inf")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["rows"]) == 5
    for row in rep["rows"]:
        w = row["parameter"]
        assert row["norm_h1"] == pytest.approx(1.0 / w, rel=1e-12)
        assert row["ratio"] == pytest.approx(0.5 / w, rel=1e-12)


def test_families_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "families", "--preset", "square",
                           "--family", "u-omega-vertical", "--p", "inf",
                           "--format", "csv")
    assert out.splitlines()[0] == "parameter,norm_h1,norm_h2,ratio"
    assert len(parse_csv(out)) == 5


def test_families_inapplicable_is_input_error(capsys):
    code, _, err = run_cli(capsys, "families", "--preset", "diamond",
                           "--family", "u-omega-vertical")
    assert code == 2
    assert "inapplicable" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_triangle_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "triangle",
                           "--p", "1", "--budget", "40", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    ratios = [float(r["best_ratio"]) for r in rows]
    assert max(ratios) == pytest.approx(4.0, abs=1e-9)
    for r in rows:
        assert float(r["best_ratio"]) <= float(r["upper_bound"]) + 1e-9


# ---------------------------------------------------------------------------
# verify and the counterexample loop
# ---------------------------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cone-mass",
                           "--cases", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["counterexample_path"] is None


def test_verify_n_lines_routing(capsys):
    # the scan-line oracle is exact, so the line-count flag is gone and
    # argparse rejects it as unknown
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "oracle-l1", "--cases", "3",
              "--n-lines", "64"])
    assert exc.value.code == 2
    assert "--n-lines" in capsys.readouterr().err


def test_verify_failure_writes_replayable_counterexample(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem1",
                             "--cases", "2", "--tol", "-1")
    assert code == 1
    assert json.loads(out)["passed"] is False
    ce = tmp_path / COUNTEREXAMPLE_PATH
    assert ce.exists()
    assert COUNTEREXAMPLE_PATH in err

    # replaying the stored record reproduces the violation
    code, out, _ = run_cli(capsys, "verify", "--replay", str(ce))
    assert code == 1
    assert json.loads(out)["suites"][0]["violations"] >= 1

    # a corrupt record is an input error, not a property failure
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--replay", str(bad))
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--replay",
                           str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("record", [
    [],
    {"suite": ["x"], "seed": 42, "case": 0},
    {"suite": "theorem1", "seed": 42, "case": 0, "tol": "nan"},
    {"suite": "theorem1", "seed": 42, "case": 0, "tol": [1]},
    {"suite": "theorem1", "seed": [42], "case": 0},
    # int() would take these and replay another case or tolerance
    {"suite": "theorem1", "seed": 1.5, "case": 0},
    {"suite": "theorem1", "seed": 42, "case": True},
    {"suite": "theorem1", "seed": 42, "case": 1, "tol": True},
])
def test_replay_of_a_record_of_the_wrong_shape_is_input_error(
        capsys, tmp_path, record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "verify", "--replay", str(path))
    assert code == 2
    assert "malformed counterexample" in err


def test_verify_reports_a_counterexample_it_cannot_write(
        capsys, tmp_path, monkeypatch):
    # a directory in the way: the report still prints, with no path
    monkeypatch.chdir(tmp_path)
    (tmp_path / COUNTEREXAMPLE_PATH).mkdir()
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem1",
                             "--cases", "1", "--tol", "-1")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["counterexample_path"] is None
    assert err == f"error: cannot write {COUNTEREXAMPLE_PATH}: Is a directory\n"


@pytest.mark.parametrize("argv", [
    ["--cases", "0"], ["--cases", "-3"],
    ["--suite", "theorem1", "--cases", "0"],
    ["--tol", "inf"], ["--tol", "nan"],
    ["--suite", "theorem1", "--tol=-inf"]])
def test_verify_empty_corpus_or_non_finite_tol_is_input_error(
        capsys, tmp_path, monkeypatch, argv):
    # either would pass suites vacuously, so it is refused before any check
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert not (tmp_path / COUNTEREXAMPLE_PATH).exists()


# ---------------------------------------------------------------------------
# input errors and argument handling
# ---------------------------------------------------------------------------


def test_domain_source_must_be_exactly_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2 and "error" in err
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(domain_to_json(square())))
    code, _, err = run_cli(capsys, "analyze", "--domain", str(f),
                           "--preset", "square")
    assert code == 2


def test_empty_domain_path_is_not_ignored(capsys):
    code, out, err = run_cli(capsys, "analyze", "--preset", "square",
                             "--domain", "")
    assert code == 2 and out == ""
    assert err == "error: exactly one of --domain or --preset is required\n"
    code, out, err = run_cli(capsys, "analyze", "--domain", "")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_domain_file_parse_error_reports_location(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"vertices": [[0, 0], [1, 0],')
    code, _, err = run_cli(capsys, "analyze", "--domain", str(f))
    assert code == 2
    assert "parse error" in err and "line" in err


@pytest.mark.parametrize("command", [["analyze"], ["bounds", "--p", "2"]])
def test_domain_file_with_overflowing_coordinates_is_input_error(
        capsys, tmp_path, command):
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"vertices": [[0, 0], [1e308, 0], [0, 1e308]]}))
    code, out, err = run_cli(capsys, *command, "--domain", str(f))
    assert code == 2 and not out
    assert "invalid domain" in err


def test_domain_file_round_trip(capsys, tmp_path):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(domain_to_json(square())))
    code, out, _ = run_cli(capsys, "analyze", "--domain", str(f))
    assert code == 0
    assert json.loads(out)["area"] == pytest.approx(1.0)


@pytest.mark.parametrize("source, flag", [
    ("square", ["--params", "2,3"]),
    ("diamond", ["--n", "7"]),
    ("disc", ["--params", "2,3"]),
    ("square", ["--n", "7"]),
    ("diamond", ["--params", "2,3"]),
    ("triangle", ["--n", "7"]),
    ("parallelogram", ["--n", "7"]),
    (None, ["--params", "2,3"]),
    (None, ["--n", "7"]),
], ids=lambda v: v[0] if isinstance(v, list) else v or "domain")
def test_domain_flag_the_source_ignores_is_input_error(capsys, tmp_path,
                                                       source, flag):
    if source is None:
        f = tmp_path / "dom.json"
        f.write_text(json.dumps(domain_to_json(square())))
        argv, named = ["--domain", str(f)], "--domain"
    else:
        argv, named = ["--preset", source], f"--preset {source}"
    code, out, err = run_cli(capsys, "analyze", *argv, *flag)
    assert code == 2 and out == ""
    assert err == f"error: {flag[0]} does not apply to {named}\n"


@pytest.mark.parametrize("params", ["", "0,0,2,0,1,x"])
def test_malformed_params_is_input_error(capsys, params):
    # an empty --params is malformed too, not the preset's default
    code, out, err = run_cli(capsys, "analyze", "--preset", "triangle",
                             "--params", params)
    assert code == 2 and out == ""
    assert err == f"error: malformed --params: {params!r}\n"


def test_bench_domain_flags_still_apply(monkeypatch):
    # the bench's estimate and sweep runs pass --n with the disc preset;
    # without --n the disc keeps its 512 vertices
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    from harness import WORKLOADS

    runs = [argv for make in WORKLOADS.values() for argv in make("42")
            if "--n" in argv]
    assert len(runs) == 3
    for argv in runs:
        args = _parser().parse_args(argv)
        n = int(argv[argv.index("--n") + 1])
        assert _resolve_domain(args) == disc(n)
    args = _parser().parse_args(["analyze", "--preset", "disc"])
    assert _resolve_domain(args) == disc(512)


def test_invalid_p_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--preset", "diamond", "--p", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--trace", "verify", "--cases", "1"], ["poincare", "--n", "8"]])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--h1", "nan"), ("--h2", "inf")])
def test_non_finite_direction_is_input_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "bounds", "--preset", "square", flag,
                             value)
    assert code == 2 and out == ""
    assert err == "error: direction angle must be finite\n"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--preset", "diamond",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["area"] == pytest.approx(2.0)


def test_out_to_unwritable_path_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "analyze", "--preset", "square",
                             "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_output_is_byte_identical_across_runs(capsys):
    args = ("estimate", "--preset", "diamond", "--p", "inf",
            "--budget", "50", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = args + ("--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def _pyproject():
    """The parsed ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        return tomllib.load(f)


def _declared_entry_point():
    """The ``module:attr`` that ``pyproject.toml`` declares as the
    ``normratio`` console script."""
    spec = _pyproject()["project"]["scripts"]["normratio"]
    module, _, attr = spec.partition(":")
    return module, attr


def _run(cmd, cwd, **env_vars):
    """Run ``cmd`` in ``cwd`` with the package under test first on
    ``PYTHONPATH`` and ``env_vars`` added to the environment."""
    src = str(Path(normratio.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(cmd, capture_output=True, cwd=cwd, env=env,
                          timeout=60)


def _run_entry_point(tmp_path, *argv):
    """Call the declared entry point as a generated console-script wrapper
    does: no arguments, so it reads ``sys.argv``, and its return value
    becomes the exit code."""
    module, attr = _declared_entry_point()
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return _run([sys.executable, "-c", code, *argv], tmp_path)


def _blas_kernel_not_selectable():
    """Why ``OPENBLAS_CORETYPE`` cannot pick numpy's BLAS kernel per
    process, or None when numpy's BLAS is a DYNAMIC_ARCH OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    if "openblas" in blas.get("name", "").lower() and \
            "DYNAMIC_ARCH" in config.split():
        return None
    return (f"numpy's BLAS is {blas.get('name')!r} ({config!r}), not a "
            "DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects no kernel")


def test_stdout_is_the_same_on_every_blas_kernel(tmp_path):
    # Prescott has no fused multiply-add and Haswell has; a product that
    # went through BLAS would round differently on the two
    reason = _blas_kernel_not_selectable()
    if reason:
        pytest.skip(reason)
    for argv in (("estimate", "--preset", "disc", "--n", "512", "--p", "1",
                  "--budget", "200"),
                 ("sweep", "--preset", "disc", "--n", "128", "--p", "2",
                  "--budget", "60")):
        outs = []
        for core in ("Prescott", "Haswell"):
            res = _run([sys.executable, "-m", "normratio.cli", *argv],
                       tmp_path, OPENBLAS_CORETYPE=core)
            assert res.returncode == 0, res.stderr.decode()
            outs.append(res.stdout)
        assert outs[0] == outs[1], argv


def test_console_script_entry_point(tmp_path):
    res = _run_entry_point(tmp_path, "analyze", "--preset", "diamond")
    assert res.returncode == 0, res.stderr.decode()
    assert json.loads(res.stdout)["m"] == pytest.approx(1.0)
    # a non-zero return value reaches the process exit code too
    res = _run_entry_point(tmp_path, "analyze")
    assert res.returncode == 2, res.stderr.decode()
    assert b"error" in res.stderr


@pytest.mark.skipif(shutil.which("normratio") is None,
                    reason="normratio console script not on PATH")
def test_installed_console_script_matches_entry_point(tmp_path):
    argv = ("analyze", "--preset", "diamond")
    res = _run([shutil.which("normratio"), *argv], tmp_path)
    ref = _run_entry_point(tmp_path, *argv)
    assert res.returncode == ref.returncode == 0, res.stderr.decode()
    assert res.stdout == ref.stdout


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------


def _requirement_name(req):
    return re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()


def test_runtime_dependencies_leave_out_scipy():
    project = _pyproject()["project"]
    runtime = [_requirement_name(r) for r in project["dependencies"]]
    assert "numpy" in runtime
    assert not [r for r in runtime if r.startswith("scipy")]
    # the tests keep scipy as their oracle
    test_extra = [_requirement_name(r)
                  for r in project["optional-dependencies"]["test"]]
    assert "scipy" in test_extra


def test_readme_quickstart_runs_on_the_package_exports(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [code] = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    res = _run([sys.executable, "-c", code], tmp_path)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().splitlines() == ["2.0", "2.0", "2.0 tent"]
    # the package exports exactly what the quickstart imports
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom)
                and node.module == "normratio" for alias in node.names]
    assert sorted(normratio.__all__) == sorted(imported)


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, normratio.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    res = _run([sys.executable, "-c", code], tmp_path)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == "[]"
