"""lp.solve_envelope, fptas-a's revised simplex, against the dense tableau
assembly it replaced, scipy's HiGHS and a loop reference of its pivot
rules."""

import numpy as np
import pytest
from scipy.optimize import linprog

from abasolve import _kernels, lp
from abasolve.errors import NumericalFailure, ValidationError
from abasolve.fptas import enumerate_k_uniform
from abasolve.lp import FEAS_TOL, LPStatus, solve_envelope

from helpers import envelope_lp_tableau, envelope_simplex_loop

GRID_K = {2: 40, 3: 12, 4: 7}


def _case(rng, na, kind):
    """(cost, points, mu) on a K-uniform grid.  Kinds: generic costs and an
    interior mu; mu with zero entries; a constant cost, where every column
    ties; costs with few distinct values on a grid whose points repeat."""
    points = enumerate_k_uniform(na, GRID_K[na])
    mu = rng.dirichlet(np.ones(na))
    cost = rng.normal(size=points.shape[0])
    if kind == "zero_mu":
        mu[rng.permutation(na)[:max(na - 2, 1)]] = 0.0
        mu /= mu.sum()
    elif kind == "constant":
        cost[:] = 0.7
    elif kind == "duplicated":
        points = np.vstack((points, points[rng.permutation(len(points))]))
        cost = np.round(rng.normal(size=points.shape[0]), 1)
    return cost, points, mu


def _certify(sol, cost, points, mu):
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x.min() >= -1e-12
    assert np.abs(points.T @ sol.x - mu).max() <= 1e-12
    assert abs(sol.x.sum() - 1.0) <= 1e-12
    assert sol.feasibility_residual <= 1e-12
    assert sol.objective == pytest.approx(cost @ sol.x, abs=1e-12)
    red = cost - points @ sol.dual_eq
    assert red.min() >= -FEAS_TOL
    assert sol.duality_gap <= 2 * FEAS_TOL


@pytest.mark.parametrize("kind", ("generic", "zero_mu", "constant",
                                  "duplicated"))
@pytest.mark.parametrize("na", (2, 3, 4))
def test_envelope_matches_tableau_and_highs(na, kind):
    rng = np.random.default_rng([na, len(kind)])
    for _ in range(4):
        cost, points, mu = _case(rng, na, kind)
        sol = solve_envelope(cost, points, mu)
        _certify(sol, cost, points, mu)
        assert sol.objective == pytest.approx(
            envelope_lp_tableau(cost, points, mu), abs=1e-9)
        highs = linprog(cost, A_eq=points.T, b_eq=mu, method="highs")
        assert sol.objective == pytest.approx(highs.fun, abs=1e-9)


@pytest.mark.parametrize("degen_limit", (0, lp.DEGENERACY_LIMIT))
@pytest.mark.parametrize("na", (2, 3, 4))
def test_envelope_follows_pivot_rules(monkeypatch, na, degen_limit):
    # generic costs keep reduced costs apart, so the pivot path is fixed;
    # with degen_limit = 0 Bland's rule takes over at the first degenerate
    # pivot, which a mu with zero entries makes
    monkeypatch.setattr(lp, "DEGENERACY_LIMIT", degen_limit)
    rng = np.random.default_rng([na, 7])
    for kind in ("generic", "zero_mu", "zero_mu"):
        cost, points, mu = _case(rng, na, kind)
        sol = solve_envelope(cost, points, mu)
        x, y, pivots = envelope_simplex_loop(cost, points, mu, degen_limit)
        assert sol.iterations == pivots
        np.testing.assert_allclose(sol.x, x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.dual_eq, y, rtol=0, atol=1e-12)
        _certify(sol, cost, points, mu)


def test_envelope_bland_switch_changes_the_path(monkeypatch):
    # on this instance Bland's rule takes a different pivot path from
    # Dantzig's to the same optimum
    rng = np.random.default_rng([3, 7])
    cost, points, mu = _case(rng, 3, "zero_mu")
    dantzig = solve_envelope(cost, points, mu)
    monkeypatch.setattr(lp, "DEGENERACY_LIMIT", 0)
    bland = solve_envelope(cost, points, mu)
    assert bland.iterations != dantzig.iterations
    assert bland.objective == pytest.approx(dantzig.objective, abs=1e-12)


def test_envelope_ratio_tie_leaves_smallest_basis_index():
    # grid (0,1), (1/2,1/2), (1,0); the midpoint enters at mu = (1/2, 1/2)
    # and both vertex rows tie in the ratio test.  Vertex (0,1), column 0,
    # leaves, so the basis is {(1,0), midpoint} and y solves y0 = 0,
    # (y0 + y1)/2 = -1.
    sol = solve_envelope(np.array([0.0, -1.0, 0.0]),
                         enumerate_k_uniform(2, 2), np.array([0.5, 0.5]))
    assert sol.iterations == 1
    assert sol.x.tolist() == [0.0, 1.0, 0.0]
    assert sol.dual_eq.tolist() == [0.0, -2.0]


def test_envelope_starts_at_the_vertex_basis():
    # at a vertex optimum no pivot is needed: the start basis is optimal
    points = enumerate_k_uniform(3, 5)
    cost = points @ np.array([1.0, 2.0, 3.0])
    sol = solve_envelope(cost, points, np.array([0.2, 0.3, 0.5]))
    assert sol.iterations == 0
    assert sol.x[np.argmax(points, axis=0)].tolist() == [0.2, 0.3, 0.5]
    assert sol.dual_eq.tolist() == [1.0, 2.0, 3.0]


def test_envelope_requires_every_vertex():
    points = enumerate_k_uniform(3, 4)[1:]     # drops vertex (0, 0, 1)
    with pytest.raises(ValidationError, match="every vertex"):
        solve_envelope(np.zeros(len(points)), points,
                       np.array([0.2, 0.3, 0.5]))


def test_envelope_iteration_cap_raises(monkeypatch):
    seen = []

    def stalled(ext, basis, x_b, tol, max_iter, degen_limit):
        seen.append(max_iter)
        return _kernels._STATUS_ITERLIMIT, max_iter, None, None

    monkeypatch.setattr(lp._kernels, "envelope_iterate", stalled)
    points = enumerate_k_uniform(3, 4)
    with pytest.raises(NumericalFailure, match="exceeded 900 pivots"):
        solve_envelope(np.zeros(len(points)), points, np.full(3, 1 / 3))
    assert seen == [50 * (3 + len(points))]


def test_envelope_kernel_stops_at_max_iter():
    rng = np.random.default_rng(11)
    cost, points, mu = _case(rng, 3, "generic")
    full = solve_envelope(cost, points, mu)
    assert full.iterations >= 2
    ext = np.vstack((points.T, cost))
    basis = np.argmax(points, axis=0)
    status, iters, _, _ = _kernels.envelope_iterate(
        ext, basis, mu.copy(), FEAS_TOL, 1, lp.DEGENERACY_LIMIT)
    assert (status, iters) == (_kernels._STATUS_ITERLIMIT, 1)
