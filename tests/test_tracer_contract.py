"""The benchmark tracer's contract with the package.

perfbench/tracer.py wraps the functions it lists in TRACED and counts
CyclotomicInteger.from_root_counts calls; a name it cannot find is
skipped and fails the harness's --self-check.  These tests fail first,
so a deletion that breaks the harness shows in the tier-1 suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from drgcayley.cyclotomic import CyclotomicInteger

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    """perfbench/tracer.py as a module, loaded by path; no bytecode cache
    is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.TRACED
    missing = [f"{mod}.{name}" for mod, name, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []
    for mod in tracer.NAMESPACES:
        importlib.import_module(mod)


def test_counted_constructor_is_a_classmethod():
    assert isinstance(CyclotomicInteger.__dict__.get("from_root_counts"), classmethod)
