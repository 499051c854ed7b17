"""Tests for the benchmark's hooks into the program: every name that
``bench/spans.py`` wraps must still exist, and leaving a traced pass must
unwrap all of them."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_bindings_resolve_and_unwind(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer, leftover_wrappers

    with Tracer().installed():
        assert leftover_wrappers()
    assert leftover_wrappers() == []


def test_builders_record_their_spans(monkeypatch):
    # the concave.qhull row times the object bound to concave.ConvexHull: a
    # build that reached the wrap through any other function object would
    # leave that row at 0 with nothing failing
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    from normratio import concave
    from normratio.geometry import square

    dom = square()
    cons = [((0.5, 0.5), 1.0), ((0.3, 0.7), 0.8), ((0.75, 0.3), 0.7)]
    with Tracer().installed() as tracer:
        concave.concave_envelope(dom, cons)
        concave.tent_function(dom, [(0.0, 0.0), (1.0, 1.0)])
    layers = tracer.layers()
    assert layers["concave.envelope"]["calls"] == 1
    assert layers["concave.qhull"]["calls"] >= 1
    assert layers["concave.tent"]["calls"] == 1
    # a batch takes every set's wrap in one call of concave.ConvexHull
    sets = [cons, cons[:2], [((0.4, 0.6), 0.9), ((0.7, 0.7), 0.5)]]
    with Tracer().installed() as tracer:
        envs = concave.concave_envelopes(dom, sets)
    layers = tracer.layers()
    assert len(envs) == 3
    assert layers["concave.qhull"]["calls"] == 1


def test_package_keeps_no_functools_cache(monkeypatch):
    # the bench clears every module-level functools cache before each CLI
    # call; with none in the package, no state outlives a call to clear
    monkeypatch.syspath_prepend(str(BENCH))
    from harness import program_caches

    assert program_caches() == []
