"""The benchmark tracer's contract with the ZeroED runner.

``perfbench/spans.py`` wraps, by name, functions that
:mod:`repro.core.zeroed` resolves from its module globals on each call. A
name the runner no longer looks up there would silently drop its layer
from a traced benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import repro.core.zeroed as zeroed

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_are_zeroed_module_functions(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for name in spans.TRACED:
        assert callable(getattr(zeroed, name, None)), f"repro.core.zeroed has no function {name!r}"
