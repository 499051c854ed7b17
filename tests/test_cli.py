"""End-to-end tests of the command-line interface: output formats, exit
codes, determinism, and the counterexample/replay loop."""

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

import pytest

import normratio
from normratio.cli import COUNTEREXAMPLE_PATH, main
from normratio.geometry import domain_to_json, square


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
    assert json.loads(out)["value"] == "inf"
    code, out, _ = run_cli(capsys, "bounds", "--preset", "square", "--p", "2",
                           "--format", "csv")
    assert parse_csv(out)[0]["value"] == "inf"


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
    code, _, err = run_cli(capsys, "poincare", "--p", "16", "--n", "8")
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


def test_domain_file_parse_error_reports_location(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"vertices": [[0, 0], [1, 0],')
    code, _, err = run_cli(capsys, "analyze", "--domain", str(f))
    assert code == 2
    assert "parse error" in err and "line" in err


def test_domain_file_round_trip(capsys, tmp_path):
    f = tmp_path / "dom.json"
    f.write_text(json.dumps(domain_to_json(square())))
    code, out, _ = run_cli(capsys, "analyze", "--domain", str(f))
    assert code == 0
    assert json.loads(out)["area"] == pytest.approx(1.0)


def test_invalid_p_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--preset", "diamond", "--p", "0.5"])
    assert exc.value.code == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--preset", "diamond",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["area"] == pytest.approx(2.0)


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


def _run(cmd, cwd):
    """Run ``cmd`` in ``cwd`` with the package under test first on
    ``PYTHONPATH``."""
    src = str(Path(normratio.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
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


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, normratio.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    res = _run([sys.executable, "-c", code], tmp_path)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == "[]"
