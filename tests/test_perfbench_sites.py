"""Every call site the benchmark tracer wraps still resolves.

``perfbench/spans.py`` looks each site up with ``getattr`` and no default,
so removing or renaming a traced name breaks ``--trace 1`` runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve(monkeypatch):
    before = {p: p.stat().st_mtime_ns for p in SPANS.parent.rglob("*")}
    spans = _load_spans(monkeypatch)
    originals = {
        (mod, attr): getattr(importlib.import_module(f"abasolve.{mod}"), attr)
        for mod, attr, _, _ in spans.SITES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(importlib.import_module(f"abasolve.{mod}"),
                           attr) is not original, f"{mod}.{attr}"
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(importlib.import_module(f"abasolve.{mod}"),
                       attr) is original, f"{mod}.{attr}"
    assert {p: p.stat().st_mtime_ns
            for p in SPANS.parent.rglob("*")} == before
