"""Spans around the public functions of each normratio layer.

The wrappers are installed from outside the package: every module
attribute bound to a traced function is pointed at a wrapper, so calls
through ``search.build_function``, ``verify.build_function`` and
``concave.build_function`` are all seen.  ``ConvexDomain`` is wrapped at
``__init__``, and scipy's ``ConvexHull`` only where ``concave`` calls it.
:meth:`Tracer.installed` removes every wrapper when the traced pass ends.

A span is ``(name, start, end, parent, run_id, ok)``.  Spans stay in a
list in memory; self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

MARKER = "__bench_wrapper__"


def program_modules() -> list:
    """The loaded ``normratio`` package and its submodules."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "normratio" or name.startswith("normratio."))]


def rebind(original, replacement, modules) -> list:
    """Point every attribute of ``modules`` bound to ``original`` at
    ``replacement``; return the ``(owner, attr, original)`` undo list."""
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of benchmark wrappers still bound in the program."""
    from normratio.geometry import ConvexDomain

    left = [f"{mod.__name__}.{attr}"
            for mod in program_modules()
            for attr, value in vars(mod).items()
            if hasattr(value, MARKER)]
    if hasattr(ConvexDomain.__dict__["__init__"], MARKER):
        left.append("normratio.geometry.ConvexDomain.__init__")
    return left


def _build_key(args, kwargs):
    dom = args[0] if args else kwargs["dom"]
    desc = args[1] if len(args) > 1 else kwargs["descriptor"]
    return hash((dom.vertices.tobytes(), json.dumps(desc, sort_keys=True)))


class Tracer:
    """Records spans and per-layer counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self.counts: defaultdict = defaultdict(int)
        self.built: defaultdict = defaultdict(set)   # run_id -> build keys
        self._stack: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name_of(args, kwargs) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (label, t0, clock(), parent, self.run_id, False)
                stack.pop()
                raise
            spans[idx] = (label, t0, clock(), parent, self.run_id, True)
            stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(wrapper, MARKER, name)
        return wrapper

    def _count(self, key, of):
        counts = self.counts

        def after(args, kwargs, out):
            counts[key] += of(args, kwargs, out)
        return after

    def _record_build(self, args, kwargs):
        self.built[self.run_id].add(_build_key(args, kwargs))

    def _targets(self):
        """(module, attribute, span name, keyword arguments of _wrap)."""
        from normratio import (bounds, cli, concave, geometry, norms,
                               sampling, search, verify)

        def suite_name(args, kwargs):
            return "verify.suite." + (args[0] if args else kwargs["name"])

        return [
            (cli, "main", "cli.main", {}),
            (verify, "run_suite", "verify.suite", {"name_of": suite_name}),
            (search, "estimate_kp_lower", "search.estimate", {}),
            (concave, "build_function", "concave.build",
             {"before": self._record_build}),
            (concave, "concave_envelope", "concave.envelope",
             {"after": self._count("concave.envelope.facets",
                                   lambda a, k, out: out.n_facets)}),
            (concave, "tent_function", "concave.tent", {}),
            (concave, "chord_maxima", "concave.chord_maxima",
             {"after": self._count("concave.chord_maxima.lines",
                                   lambda a, k, out: len(a[1]))}),
            (concave, "gradient_at", "concave.gradient_at", {}),
            (norms, "scanline_l1_norm", "norms.scanline", {}),
            (norms, "line_integral_abs_dh", "norms.line_integral", {}),
            (norms, "lp_directional_norm", "norms.lp", {}),
            (bounds, "directional_upper_bound", "bounds.upper", {}),
            (bounds, "poincare_constant", "bounds.poincare", {}),
            (bounds, "affine_normalize", "bounds.affine_normalize", {}),
            (geometry, "chords_batch", "geometry.chords_batch",
             {"after": self._count("geometry.chords_batch.lines",
                                   lambda a, k, out: len(a[2]))}),
            (sampling, "random_convex_polygon", "sampling.polygon", {}),
            (sampling, "random_interior_points", "sampling.interior_points",
             {}),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        from normratio import concave
        from normratio.geometry import ConvexDomain

        modules = program_modules()
        undo = []
        try:
            for mod, attr, name, hooks in self._targets():
                fn = getattr(mod, attr)
                undo += rebind(fn, self._wrap(name, fn, **hooks), modules)
            hull = concave.ConvexHull
            undo += rebind(hull, self._wrap("concave.qhull", hull), [concave])
            init = ConvexDomain.__dict__["__init__"]
            ConvexDomain.__init__ = self._wrap("geometry.domain", init)
            undo.append((ConvexDomain, "__init__", init))
            yield self
        finally:
            restore(undo)

    # -- aggregation --------------------------------------------------------

    def layers(self) -> dict:
        """Per span name: calls, raised, self_s and total_s."""
        cover = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "raised": 0,
                                   "self_s": 0.0, "total_s": 0.0})
        for i, (name, t0, t1, _, _, ok) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["raised"] += 0 if ok else 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - cover[i]
        return out

    def distinct_builds(self) -> int:
        """Distinct (domain, descriptor) pairs built, counted per run id."""
        return sum(len(keys) for keys in self.built.values())
