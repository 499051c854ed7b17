"""Machine-speed sampling, so that end-to-end times are in reference seconds.

The benchmark shares a few cores of a host with other work.  The same
pass runs up to 1.7 times slower in some periods than in others, and the
slow periods last from seconds to minutes; user CPU time grows with wall
time, so the slowdown is contention for the hardware, not scheduling.
Medians within one run cannot remove a slowdown that lasts the whole run.

:class:`SpeedSampler` therefore times a small calibration kernel every
``INTERVAL_S`` seconds while the workload runs.  The kernel runs from a
``SIGALRM`` handler in the benchmark's own thread, so it sees the same
core, at the same moments, as the program.  It is interpreter and
small-array numpy work, the mix that dominates ``normratio``, and it
shares no code with ``normratio``: a change to the program never changes
the kernel's time.  A pass's slowdown is the mean kernel time during the
pass divided by ``KERNEL_REF_S``; its time in reference seconds is its
wall time, less the time spent in the handler, divided by the slowdown.

Set-up runs in a child process, and the kernel tracks it poorly: over
the same swings, import time moved about half as much as the kernel.
The slowdown of a set-up is therefore the mean time of three bare
interpreter starts (``python -c pass``) just before it, over
``STARTUP_REF_S``.  A bare start runs no ``normratio`` code either.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

INTERVAL_S = 0.1
# round figures near the typical times of the kernel and of a bare
# interpreter start on the machine in bench/README.md "Baseline"; they set
# only the scale of reference seconds
KERNEL_REF_S = 0.9e-3
STARTUP_REF_S = 45e-3
STARTUPS = 3

_POINTS = np.random.default_rng(1234).random((64, 2))


def kernel() -> float:
    """About a millisecond of interpreter and small-array numpy work."""
    pts, s = _POINTS, 0.0
    for i in range(300):
        a, b = pts[i & 63], pts[(i * 7) & 63]
        d = b - a
        s += math.hypot(float(d[0]), float(d[1])) + float(np.dot(a, b))
    return s


def timed_run(cmd, limit_s: float = 120.0, **popen_kwargs) -> float:
    """Seconds from starting ``cmd`` to its exit; killed after ``limit_s``.

    ``subprocess.run(timeout=...)`` polls for the exit in steps of up to
    50 ms, which would round every time up to that grid.  Here the wait
    blocks, and a timer thread enforces the limit.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, **popen_kwargs) as proc:
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return seconds


def startup_slowdown(**popen_kwargs) -> float:
    """Mean time of ``STARTUPS`` bare interpreter starts, over
    ``STARTUP_REF_S``."""
    return statistics.fmean(
        timed_run([sys.executable, "-c", "pass"], **popen_kwargs)
        for _ in range(STARTUPS)) / STARTUP_REF_S


class SpeedSampler:
    """Times :func:`kernel` every ``INTERVAL_S`` seconds while running."""

    def __init__(self):
        self.ticks: list = []     # (start, kernel seconds)
        self.spent = 0.0          # seconds spent in the handler in total

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ticks.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        """Sample for the duration of the block; restore the old handler."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time in ``[start, end)`` over ``KERNEL_REF_S``."""
        return statistics.fmean(k for t, k in self.ticks
                                if start <= t < end) / KERNEL_REF_S
