"""Every call site the benchmark tracer wraps still resolves.

``perfbench/spans.py`` looks each site up with ``getattr`` and no default,
so removing or renaming a traced name breaks ``--trace 1`` runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from abasolve import _kernels, exact, oracle
from abasolve.scoring import (default_tangent_grid, linearize_smooth,
                              log_score, quadratic_score)

from helpers import random_prior

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


@pytest.mark.parametrize("na", (2, 3))
def test_tracer_counts_every_profile_once(monkeypatch, na):
    """The obedience LP reference enumerates through
    ``build_revelation_signals``, so the traced profile count is
    k^(|B|+1) and the LP never sees more."""
    spans = _load_spans(monkeypatch)
    prior = random_prior(np.random.default_rng(na), ne=2, na=na, nb=2)
    score = linearize_smooth(quadratic_score(), default_tangent_grid(
        quadratic_score(), prior.n_events, 4))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.root(0, exact.obedience_lp_optimum, prior, score)
    finally:
        tracer.uninstall()
    k = score.k_pieces
    assert tracer.counts["exact.signals_generated"] == k ** (prior.n_bob + 1)
    assert 0 < tracer.counts["exact.signals_to_lp"] <= \
        tracer.counts["exact.signals_generated"]


@pytest.mark.parametrize("na,den,m", ((2, 10, 3), (3, 6, 2)))
def test_tracer_counts_oracle_candidates(monkeypatch, na, den, m):
    """The tracer reads the scanned range from ``oracle_scan``'s third and
    fourth positional arguments; a traced ``oracle_optimal`` must count
    every candidate, P^|A| for the P fraction rows."""
    spans = _load_spans(monkeypatch)
    prior = random_prior(np.random.default_rng(na), ne=2, na=na, nb=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = tracer.root(0, oracle.oracle_optimal, prior, log_score(),
                             1.0 / den, m)
    finally:
        tracer.uninstall()
    n_rows = _kernels.compositions(den, m).shape[0]
    assert tracer.counts["kernels.oracle_candidates"] == n_rows ** na
    assert report.diagnostics["candidates"] == n_rows ** na
