"""Workloads, cold passes, operation counts and output checks.

A pass runs every CLI invocation of a workload once, in this process, by
calling ``normratio.cli.main``.  Each invocation starts when the previous
one has returned (a closed loop with one client), after every
``functools`` cache of the package has been cleared, because a user pays
for those caches again on every CLI invocation.

An operation is a suite check (``verify``) or a search candidate
(``estimate``, ``sweep``).  Skipped candidates (budget minus
``evaluations``) and suite violations count as failed; an invocation that
exits nonzero or fails its output check counts all its operations as
failed.  ``sweep`` prints no ``evaluations``, so during every pass a thin
observer on ``search.estimate_kp_lower`` records budget and evaluations of
each estimate; it takes no timings.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from normratio import cli, search

from spans import MARKER, program_modules, rebind, restore

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
REFERENCE_SEED = 42
REL_TOL = 1e-9
# witness kinds the search emits at every seed: a reference witness of one
# of these kinds is a floor for best_ratio at any seed
SEED_FREE_WITNESSES = ("tent", "u-omega")
SWEEP_PAIRS = 12   # 8 grid angles plus the width-extreme pairs both ways

WORKLOADS = {
    "verify-corpus": lambda s: [
        ["verify", "--cases", "200", "--seed", s]],
    "estimate-disc": lambda s: [
        ["estimate", "--preset", "disc", "--n", "512", "--p", p,
         "--budget", "200", "--seed", s] for p in ("1", "2")],
    "sweep-shared": lambda s: [
        ["sweep", "--preset", "disc", "--n", "128", "--p", "2",
         "--budget", "60", "--seed", s]],
}


def program_caches() -> list:
    """Every ``functools`` cache bound at module level in the package."""
    found = []
    for mod in program_modules():
        for value in vars(mod).values():
            if (callable(getattr(value, "cache_clear", None))
                    and all(value is not f for f in found)):
                found.append(value)
    return found


@dataclass
class Invocation:
    argv: list
    code: int | None          # None when main raised
    stdout: str
    error: str                # captured stderr, or the traceback
    wall_s: float             # less any time spent sampling machine speed
    cpu_s: float
    estimates: list = field(default_factory=list)   # (budget, evaluations)


@dataclass
class Pass:
    invocations: list
    wall_s: float
    attempted: int
    failed: int
    problems: list            # output-check failures, one line each
    gaps: list                # 1 - best_ratio/upper_bound per estimate
    started: float = 0.0      # perf_counter at the start and end of the pass
    ended: float = 0.0


@contextlib.contextmanager
def _observe_estimates(sink):
    original = search.estimate_kp_lower
    signature = inspect.signature(original)

    @functools.wraps(original, updated=())
    def estimate_kp_lower(*args, **kwargs):
        est = original(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        sink[-1].append((int(bound.arguments["budget"]), est.evaluations))
        return est

    setattr(estimate_kp_lower, MARKER, "observer")
    undo = rebind(original, estimate_kp_lower, [search])
    try:
        yield
    finally:
        restore(undo)


def run_invocation(argv, caches, sampler=None) -> Invocation:
    """Run one CLI invocation cold.

    With a ``speed.SpeedSampler`` running, the time its handler took
    during the invocation is taken out of ``wall_s`` and ``cpu_s``.
    """
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent if sampler is not None else 0.0
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:           # argparse rejects its input
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if sampler is not None:
        wall -= sampler.spent - spent
        cpu -= sampler.spent - spent
    return Invocation(list(argv), code, out.getvalue(), err.getvalue(), wall,
                      cpu)


class Runner:
    """Runs cold passes of one workload at one seed and checks them."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.argvs = WORKLOADS[workload](str(seed))
        ref = (reference or {}).get(workload)
        self.reference = ref if ref and len(ref) == len(self.argvs) else None
        self.caches = program_caches()

    def run_pass(self, tracer=None, sampler=None) -> Pass:
        gc.collect()
        invs, sink = [], []
        started = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            stack.enter_context(_observe_estimates(sink))
            for run_id, argv in enumerate(self.argvs):
                if tracer is not None:
                    tracer.run_id = run_id
                sink.append([])
                inv = run_invocation(argv, self.caches, sampler)
                inv.estimates = sink[-1]
                invs.append(inv)
        result = self.assess(invs)
        result.started, result.ended = started, time.perf_counter()
        return result

    def assess(self, invs) -> Pass:
        attempted = failed = 0
        problems, gaps = [], []
        for i, inv in enumerate(invs):
            ref = self.reference[i] if self.reference else None
            bad, n_ops, n_failed, inv_gaps = check_invocation(
                inv, ref, exact=self.seed == REFERENCE_SEED)
            attempted += n_ops
            failed += n_ops if bad else n_failed
            problems += [f"{' '.join(inv.argv)}: {b}" for b in bad]
            gaps += inv_gaps
        return Pass(invs, sum(inv.wall_s for inv in invs), attempted, failed,
                    problems, gaps)


def load_reference() -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    return (a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12))


def _nominal_ops(argv, ref) -> int:
    """Operations an invocation attempts, known before it runs."""
    if argv[0] == "verify":
        return sum(ref["checks"].values()) if ref else 1
    budget = int(argv[argv.index("--budget") + 1])
    return budget * (SWEEP_PAIRS if argv[0] == "sweep" else 1)


def check_invocation(inv: Invocation, ref: dict | None, exact: bool):
    """Return (problems, attempted, failed, gaps) for one invocation.

    With ``exact`` (the reference seed) outputs must match the recorded
    reference; at any seed they must satisfy what holds for every seed.
    """
    nominal = _nominal_ops(inv.argv, ref)
    if inv.code != 0:
        tail = inv.error.strip().splitlines()[-1:] or [""]
        return [f"exit code {inv.code}: {tail[0]}"], nominal, nominal, []
    try:
        out = json.loads(inv.stdout)
        if inv.argv[0] == "verify":
            return _check_verify(out, ref, exact)
        return _check_search(inv, out, ref, exact, nominal)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], nominal, nominal, []


def _check_verify(out, ref, exact):
    suites = {s["suite"]: s for s in out["suites"]}
    attempted = sum(s["checks"] for s in suites.values())
    failed = sum(s["violations"] for s in suites.values())
    bad = [] if out["passed"] else ["verify did not pass"]
    if ref is not None:
        if sorted(suites) != sorted(ref["checks"]):
            bad.append(f"suites {sorted(suites)} != {sorted(ref['checks'])}")
        elif exact:
            bad += [f"suite {name}: {suites[name]['checks']} checks, "
                    f"reference {n}"
                    for name, n in ref["checks"].items()
                    if suites[name]["checks"] != n]
    return bad, attempted, failed, []


def _check_search(inv, out, ref, exact, nominal):
    rows = [out] if inv.argv[0] == "estimate" else out["rows"]
    expected = 1 if inv.argv[0] == "estimate" else SWEEP_PAIRS
    bad = []
    if len(rows) != expected or len(inv.estimates) != expected:
        bad.append(f"{len(rows)} rows and {len(inv.estimates)} estimates, "
                   f"expected {expected}")
    ref_rows = (ref or {}).get("rows", [])
    gaps = []
    for i, row in enumerate(rows):
        best, upper = float(row["best_ratio"]), float(row["upper_bound"])
        gaps.append(1.0 - best / upper)
        if not best <= upper * (1.0 + REL_TOL):
            bad.append(f"row {i}: best_ratio {best} above upper_bound {upper}")
        if i >= len(ref_rows):
            continue
        r = ref_rows[i]
        if not _close(upper, r["upper_bound"]):
            bad.append(f"row {i}: upper_bound {upper}, reference "
                       f"{r['upper_bound']}")
        if exact:
            bad += [f"row {i}: {k} {row[k]}, reference {r[k]}"
                    for k in r if k != "witness_kind"
                    and not _close(row[k], r[k])]
            kind = row["witness"]["kind"] if "witness_kind" in r else None
            if kind != r.get("witness_kind"):
                bad.append(f"row {i}: witness {kind}, "
                           f"reference {r['witness_kind']}")
        elif (r.get("witness_kind") in SEED_FREE_WITNESSES
              and best < float(r["best_ratio"]) * (1.0 - REL_TOL)):
            bad.append(f"row {i}: best_ratio {best} below the seed-free "
                       f"witness {r['best_ratio']}")
    attempted = sum(b for b, _ in inv.estimates) or nominal
    failed = sum(b - e for b, e in inv.estimates)
    return bad, attempted, failed, gaps


def reference_entry(inv: Invocation) -> dict:
    """What :func:`check_invocation` compares against, from a good run."""
    out = json.loads(inv.stdout)
    if inv.argv[0] == "verify":
        return {"argv": inv.argv,
                "checks": {s["suite"]: s["checks"] for s in out["suites"]}}
    if inv.argv[0] == "estimate":
        rows = [{"best_ratio": out["best_ratio"],
                 "upper_bound": out["upper_bound"],
                 "witness_kind": out["witness"]["kind"]}]
    else:
        rows = out["rows"]
    return {"argv": inv.argv, "rows": rows}
