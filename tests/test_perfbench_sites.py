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

from abasolve import _kernels, exact, fptas, oracle
from abasolve.core import JointPrior
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


def _traced(monkeypatch, name, *args, **kwargs):
    """Run ``fptas.<name>``, as the tracer wraps it, as one traced solve;
    return its report and the counts."""
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = tracer.root(0, lambda: getattr(fptas, name)(*args, **kwargs))
    finally:
        tracer.uninstall()
    return report, tracer.counts


@pytest.mark.parametrize("na,grid_k", ((2, 40), (3, 12)))
def test_tracer_counts_fptas_a_grid_points(monkeypatch, na, grid_k):
    """``ub_grid_wa``'s first positional argument is the grid: a traced
    fptas-a costs every grid point once, and the grid is the one
    ``enumerate_k_uniform`` built."""
    prior = random_prior(np.random.default_rng(na), ne=2, na=na, nb=2)
    report, counts = _traced(monkeypatch, "fptas_a_const", prior,
                             quadratic_score(), 0.5, grid_k=grid_k)
    n = report.diagnostics["grid_points"]
    assert n == fptas.count_k_uniform(na, grid_k)
    assert counts["kernels.ub_grid_points"] == counts["fptas.grid_points"] \
        == n


def test_tracer_counts_fptas_eb_pivots(monkeypatch):
    """The tracer splits ``solve_lp``'s pivots into its two
    ``simplex_iterate`` calls; together they are the LP's iterations."""
    prior = random_prior(np.random.default_rng(2), ne=2, na=2, nb=2)
    report, counts = _traced(monkeypatch, "fptas_eb_const", prior,
                             quadratic_score(), 0.5, grid_k=4)
    diag = report.diagnostics
    assert diag["eta_retries"] == counts["fptas.eta_retries"] == 0
    assert counts["lp.solve_calls"] == 1
    assert counts["lp.phase1_pivots"] + counts["lp.phase2_pivots"] == \
        diag["lp_iterations"] > 0


def test_tracer_counts_one_lp_per_eta(monkeypatch):
    """mu(e,b|a) lies 1/(2K) off the K = 5 grid, so eta = 0.03 is doubled
    twice to 0.12: three achievability LPs in one solve."""
    q = np.array([0.3, 0.2, 0.1, 0.4]).reshape(2, 2)
    prior = JointPrior(np.stack([0.5 * q, 0.5 * q], axis=1))
    report, counts = _traced(monkeypatch, "fptas_eb_const", prior,
                             quadratic_score(), 0.5, consistency_eta=0.03,
                             grid_k=5)
    retries = report.diagnostics["eta_retries"]
    assert retries == counts["fptas.eta_retries"] == 2
    assert counts["lp.solve_calls"] == 1 + retries
