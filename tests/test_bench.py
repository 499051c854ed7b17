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
