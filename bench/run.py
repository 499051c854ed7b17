"""Benchmark of the normratio command line.

Usage (from the repository root):

    python3 bench/run.py --workload verify-corpus --seed 42 --seconds 36 --trace 0

``--trace 0`` runs cold passes of the workload until ``--seconds`` is
used up and reports the end-to-end metrics.  Their times are in
reference seconds: each measured time is divided by the machine's
slowdown at that moment, as ``speed.py`` measures it.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer
metrics, with the tracing overhead as ``trace.overhead_s``.  Every output is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A human-readable summary goes to stderr, and
the full record (every pass, quartiles, environment) to
``bench/out/<workload>-seed<seed>-trace<t>.json``.  The exit code is 1
when an output check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = OUT_DIR / "work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SUITES = ("theorem1", "cone-mass", "line-mass", "lemma-tan", "edge-slope",
          "sup-boundary", "oracle-l1", "shear-transport", "product-four",
          "envelope-structure", "profile-concavity", "slope-cap")


def load_harness():
    """Pin BLAS to one thread, put ``src/`` on the path, import the harness.

    Must run before anything imports numpy.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "normratio" / "__init__.py").is_file():
        raise SystemExit(f"error: no normratio sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness
    return harness


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple]:
    """``(seconds, slowdown)`` of fresh interpreters that import
    ``normratio.cli``; the slowdown is measured just before each.

    One untimed run first compiles the bytecode.
    """
    from speed import startup_slowdown, timed_run

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import normratio.cli"]
    runs = []
    for i in range(repeats + 1):
        slowdown = startup_slowdown(env=env, cwd=WORK_DIR)
        seconds = timed_run(cmd, env=env, cwd=WORK_DIR)
        if i:
            runs.append((seconds, slowdown))
    return runs


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "normratio").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit,
            "src_sha256": digest.hexdigest()}


def quartiles(values) -> dict:
    values = sorted(values)
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def end_to_end(passes, ref_walls, ref_setups) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (statistics.median(ref_setups), "s"),
        "wall_s": (statistics.median(ref_walls), "s"),
        "work_per_s": (statistics.median(p.attempted / w for p, w
                                         in zip(passes, ref_walls)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "op_ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    layers = tracer.layers()

    def calls(name):
        return (layers[name]["calls"] if name in layers else 0, "count")

    def self_s(name):
        return (layers[name]["self_s"] if name in layers else 0.0, "s")

    m = {}
    for name in ("concave.envelope", "concave.tent", "concave.chord_maxima",
                 "concave.gradient_at", "norms.scanline",
                 "norms.line_integral", "norms.lp", "bounds.upper",
                 "bounds.poincare", "geometry.domain", "search.estimate"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    for name in ("concave.qhull", "bounds.affine_normalize",
                 "geometry.chords_batch", "sampling.polygon",
                 "sampling.interior_points", "cli.main"):
        m[name + ".self_s"] = self_s(name)
    for name in ("concave.envelope.facets", "concave.chord_maxima.lines",
                 "geometry.chords_batch.lines"):
        m[name] = (tracer.counts[name], "count")
    for name in ("concave.envelope", "norms.lp"):
        m[name + ".raised"] = (layers[name]["raised"] if name in layers
                               else 0, "count")
    builds = calls("concave.build")[0]
    m["concave.build.calls"] = (builds, "count")
    m["concave.build.distinct_frac"] = (
        tracer.distinct_builds() / builds if builds else 0.0, "ratio")
    evaluated = sum(e for inv in traced.invocations
                    for _, e in inv.estimates)
    searched = sum(b for inv in traced.invocations for b, _ in inv.estimates)
    m["search.attempted"] = (searched, "count")
    m["search.evaluated"] = (evaluated, "count")
    m["search.useful_frac"] = (evaluated / searched if searched else 0.0,
                               "ratio")
    m["search.rel_gap"] = (statistics.fmean(traced.gaps) if traced.gaps
                           else 0.0, "ratio")
    for suite in SUITES:
        name = "verify.suite." + suite
        m[name + ".s"] = (layers[name]["total_s"] if name in layers else 0.0,
                          "s")
    checks = violations = 0
    for inv in traced.invocations:
        if inv.argv[0] == "verify" and inv.stdout:
            suites = json.loads(inv.stdout)["suites"]
            checks += sum(s["checks"] for s in suites)
            violations += sum(s["violations"] for s in suites)
    m["verify.checks"] = (checks, "count")
    m["verify.violations"] = (violations, "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-corpus", "estimate-disc",
                             "sweep-shared"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    harness = load_harness()
    from spans import Tracer, leftover_wrappers
    from speed import SpeedSampler

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    os.chdir(WORK_DIR)     # a failing verify writes its counterexample here
    runner = harness.Runner(args.workload, args.seed, harness.load_reference())
    problems = []
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "argv": runner.argvs,
              "environment": environment()}

    if args.trace == 0:
        sampler = SpeedSampler()
        passes = []
        setup_runs = measure_setup()
        with sampler.running():
            start = time.perf_counter()
            while True:
                passes.append(runner.run_pass(sampler=sampler))
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(p.wall_s for p in passes) \
                        > args.seconds:
                    break
        setup_times = [t for t, _ in setup_runs]
        setup_slow = [s for _, s in setup_runs]
        ref_setups = [t / s for t, s in setup_runs]
        slow = [sampler.slowdown(p.started, p.ended) for p in passes]
        ref_walls = [p.wall_s / s for p, s in zip(passes, slow)]
        metrics = end_to_end(passes, ref_walls, ref_setups)
        record["setup_s"] = quartiles(ref_setups)
        record["wall_s"] = quartiles(ref_walls)
        record["measured_setup_s"] = quartiles(setup_times)
        record["measured_wall_s"] = quartiles([p.wall_s for p in passes])
        record["slowdown"] = {"setup": setup_slow, "passes": slow,
                              "sampling_s": sampler.spent,
                              "ticks": [(t - start, k)
                                        for t, k in sampler.ticks]}
    else:
        untraced = runner.run_pass()
        tracer = Tracer()
        traced = runner.run_pass(tracer)
        passes = [untraced, traced]
        if [i.stdout for i in traced.invocations] != \
                [i.stdout for i in untraced.invocations]:
            problems.append("traced and untraced outputs differ")
        left = leftover_wrappers()
        if left:
            problems.append(f"wrappers left installed: {', '.join(left)}")
        metrics = per_layer(tracer, traced, untraced)
        record["wall_s"] = {"untraced": untraced.wall_s,
                            "traced": traced.wall_s}

    for p in passes:
        problems += p.problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems
    record["passes"] = [{"wall_s": p.wall_s, "attempted": p.attempted,
                         "failed": p.failed,
                         "invocation_s": [i.wall_s for i in p.invocations],
                         "invocation_cpu_s": [i.cpu_s for i in p.invocations],
                         "rel_gap": (statistics.fmean(p.gaps) if p.gaps
                                     else None)}
                        for p in passes]
    record["problems"] = problems
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w") as f:
        json.dump(record, f, indent=2)

    summary(record, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def summary(record, attempted, failed) -> None:
    err = sys.stderr
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={len(record['passes'])} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu']!r} "
          f"commit {env['commit'] or env['src_sha256'][:12]}", file=err)
    for key in ("setup_s", "wall_s", "measured_setup_s", "measured_wall_s"):
        if "q1" in record.get(key, {}):
            q = record[key]
            print(f"#   {key}: median {q['median']:.4f} q1 {q['q1']:.4f} "
                  f"q3 {q['q3']:.4f} n {q['n']}", file=err)
    print(f"#   op_fail_frac: {failed}/{attempted} = "
          f"{failed / attempted:.6f}", file=err)
    gaps = [p["rel_gap"] for p in record["passes"] if p["rel_gap"] is not None]
    if gaps:
        print(f"#   rel_gap: {statistics.median(gaps):.6f}", file=err)
    for name, m in record["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}", file=err)
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}", file=err)


if __name__ == "__main__":
    sys.exit(main())
