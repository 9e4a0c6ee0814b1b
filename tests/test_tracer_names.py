"""The benchmark's tracer wraps package functions by name; a rename or a
deletion in ``src/`` must fail here, not only in the benchmark's self-test."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(layer: str, attr: str) -> bool:
    """True when ``polytransfer.<layer>.<attr>`` is a callable the tracer can
    wrap: a module function, or for a dotted name a method or property
    defined on the class itself."""
    owner = importlib.import_module(f"polytransfer.{layer}")
    *cls_path, leaf = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    if not cls_path:
        return callable(getattr(owner, leaf, None))
    value = vars(owner).get(leaf) if isinstance(owner, type) else None
    return isinstance(value, property) or callable(value)


def test_every_traced_name_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    names = [(layer, attr) for table in (tracer.SPANS, tracer.HOT)
             for layer, attrs in table.items() for attr in attrs]
    names += [(layer, attr) for layer, attr, *_ in tracer.COUNTERS]
    assert len(names) > 30
    assert [f"{layer}.{attr}" for layer, attr in names if not resolves(layer, attr)] == []
