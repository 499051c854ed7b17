"""Self-checks of the benchmark harness.

Usage (from the repository root; takes about half a minute):

    python3 bench/selfcheck.py

Checks that
  1. changing the seed changes the inputs the program receives;
  2. two back-to-back traced passes report the same
     ``concave.envelope.calls``, so the caches were cleared, and that the
     count drops when they are not cleared;
  3. traced and untraced passes print identical outputs;
  4. no wrapper is left installed after a traced pass;
  5. the output checks reject a wrong answer and count a failed
     invocation's operations as failed;
  6. the speed sampler ticks during a pass, leaves the program's outputs
     unchanged, and stops its timer and restores the SIGALRM handler.
Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import signal
import sys

from run import WORK_DIR, load_harness


def main() -> int:
    harness = load_harness()
    import numpy as np
    from normratio import search, verify
    from normratio.geometry import E1, E2, disc
    from spans import Tracer, leftover_wrappers

    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    reference = harness.load_reference()

    # 1. the seed reaches the program's inputs
    for workload, argvs in harness.WORKLOADS.items():
        expect(argvs("42") != argvs("43"),
               f"{workload}: argv follows the seed")
    expect(not np.array_equal(verify._case(42, 0).domain.vertices,
                              verify._case(43, 0).domain.vertices),
           "verify corpus case 0 differs between seeds 42 and 43")
    dom = disc(128)
    expect(search._candidates(dom, 2.0, E1, E2, 60, 42)
           != search._candidates(dom, 2.0, E1, E2, 60, 43),
           "sweep candidates differ between seeds 42 and 43")

    # 2-4. cold passes, tracing leaves outputs and program unchanged
    runner = harness.Runner("verify-corpus", 42, reference)
    untraced = runner.run_pass()
    tracers = [Tracer(), Tracer()]
    traced = [runner.run_pass(t) for t in tracers]
    calls = [t.layers()["concave.envelope"]["calls"] for t in tracers]
    expect(calls[0] == calls[1] > 0,
           f"back-to-back traced passes: concave.envelope.calls {calls}")
    expect(not leftover_wrappers(), "no wrapper left after a traced pass")
    outputs = [[i.stdout for i in p.invocations]
               for p in (untraced, *traced)]
    expect(outputs[0] == outputs[1] == outputs[2],
           "traced and untraced outputs are identical")
    expect(not any(p.problems for p in (untraced, *traced)),
           "verify-corpus passes its output checks")
    runner.caches = []                     # caches left warm from above
    warm = Tracer()
    runner.run_pass(warm)
    warm_calls = warm.layers().get("concave.envelope", {"calls": 0})["calls"]
    expect(warm_calls < calls[0],
           f"without clearing, concave.envelope.calls drops to {warm_calls}")

    # 5. output checks have teeth
    sweep = harness.Runner("sweep-shared", 42, reference)
    good = sweep.run_pass()
    expect(not good.problems, "sweep-shared passes its output checks")
    wrong = copy.deepcopy(reference)
    wrong["sweep-shared"][0]["rows"][3]["best_ratio"] *= 1.0 + 1e-8
    sweep.reference = wrong["sweep-shared"]
    expect(bool(sweep.assess(good.invocations).problems),
           "a best_ratio off by 1e-8 fails the check")
    crashed = dataclasses.replace(good.invocations[0], code=1)
    bad = sweep.assess([crashed])
    expect(bad.failed == bad.attempted == 720 and bad.problems,
           "a nonzero exit counts all 720 candidates as failed")

    # 6. speed sampling is invisible to the program and cleans up
    from speed import SpeedSampler
    sampler = SpeedSampler()
    handler = signal.getsignal(signal.SIGALRM)
    with sampler.running():
        sampled = sweep.run_pass(sampler=sampler)
    expect([i.stdout for i in sampled.invocations]
           == [i.stdout for i in good.invocations],
           "outputs are identical with the speed sampler running")
    inside = [t for t, _ in sampler.ticks
              if sampled.started <= t < sampled.ended]
    expect(len(inside) >= 4 and sampler.spent > 0.0,
           f"the sampler ticked {len(inside)} times during a pass")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) is handler,
           "the sampler stops its timer and restores the SIGALRM handler")

    print(f"{len(failures)} of the self-checks failed" if failures
          else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
