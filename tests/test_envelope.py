"""lp.solve_envelope, fptas-a's revised simplex, against the dense tableau
assembly it replaced, scipy's HiGHS and a loop reference of its pivot
rules; its segment path, which costs u_B block by block and prices only
the blocks that a convexity bound cannot rule out, against
``envelope_iterate_frozen``, the kernel that prices every column of a
fully costed row.

The bit-for-bit comparisons keep every product below the 4.6*10^5 entries
at which OpenBLAS splits a matrix-vector product across threads: above it
the full product's rounding at the split depends on the thread count."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from abasolve import _kernels, core, exact, fptas, lp
from abasolve.core import JointPrior, marginals_and_conditionals
from abasolve.errors import NumericalFailure, ValidationError
from abasolve.fptas import enumerate_k_uniform
from abasolve.lp import FEAS_TOL, LPStatus, solve_envelope
from abasolve.scoring import log_score, piecewise_score, quadratic_score, \
    spherical_score

from helpers import dense_x, envelope_iterate_frozen, envelope_lp_tableau, \
    envelope_simplex_loop, random_piecewise, random_prior

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
    x = dense_x(sol, len(points))
    assert x.min() >= -1e-12
    assert np.abs(points.T @ x - mu).max() <= 1e-12
    assert abs(x.sum() - 1.0) <= 1e-12
    assert sol.feasibility_residual <= 1e-12
    assert sol.objective == pytest.approx(cost @ x, abs=1e-12)
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
        sol = solve_envelope((cost, points), mu)
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
        sol = solve_envelope((cost, points), mu)
        x, y, pivots = envelope_simplex_loop(cost, points, mu, degen_limit)
        assert sol.iterations == pivots
        np.testing.assert_allclose(dense_x(sol, len(points)), x, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(sol.dual_eq, y, rtol=0, atol=1e-12)
        _certify(sol, cost, points, mu)


def test_envelope_bland_switch_changes_the_path(monkeypatch):
    # on this instance Bland's rule takes a different pivot path from
    # Dantzig's to the same optimum
    rng = np.random.default_rng([3, 7])
    cost, points, mu = _case(rng, 3, "zero_mu")
    dantzig = solve_envelope((cost, points), mu)
    monkeypatch.setattr(lp, "DEGENERACY_LIMIT", 0)
    bland = solve_envelope((cost, points), mu)
    assert bland.iterations != dantzig.iterations
    assert bland.objective == pytest.approx(dantzig.objective, abs=1e-12)


def test_envelope_ratio_tie_leaves_smallest_basis_index():
    # grid (0,1), (1/2,1/2), (1,0); the midpoint enters at mu = (1/2, 1/2)
    # and both vertex rows tie in the ratio test.  Vertex (0,1), column 0,
    # leaves, so the basis is {(1,0), midpoint} and y solves y0 = 0,
    # (y0 + y1)/2 = -1.
    sol = solve_envelope((np.array([0.0, -1.0, 0.0]),
                          enumerate_k_uniform(2, 2)), np.array([0.5, 0.5]))
    assert sol.iterations == 1
    assert dense_x(sol, 3).tolist() == [0.0, 1.0, 0.0]
    assert sol.dual_eq.tolist() == [0.0, -2.0]


def test_envelope_starts_at_the_vertex_basis():
    # at a vertex optimum no pivot is needed: the start basis is optimal
    points = enumerate_k_uniform(3, 5)
    cost = points @ np.array([1.0, 2.0, 3.0])
    sol = solve_envelope((cost, points), np.array([0.2, 0.3, 0.5]))
    assert sol.iterations == 0
    assert dense_x(sol, len(points))[np.argmax(points, axis=0)].tolist() == \
        [0.2, 0.3, 0.5]
    assert sol.dual_eq.tolist() == [1.0, 2.0, 3.0]


def test_envelope_requires_every_vertex():
    points = enumerate_k_uniform(3, 4)[1:]     # drops vertex (0, 0, 1)
    with pytest.raises(ValidationError, match="every vertex"):
        solve_envelope((np.zeros(len(points)), points),
                       np.array([0.2, 0.3, 0.5]))


def test_envelope_iteration_cap_raises(monkeypatch):
    seen = []

    def stalled(columns, basis, x_b, tol, max_iter, degen_limit):
        seen.append(max_iter)
        return _kernels._STATUS_ITERLIMIT, max_iter, None, None, None, None

    monkeypatch.setattr(lp._kernels, "envelope_iterate", stalled)
    points = enumerate_k_uniform(3, 4)
    with pytest.raises(NumericalFailure, match="exceeded 900 pivots"):
        solve_envelope((np.zeros(len(points)), points), np.full(3, 1 / 3))
    assert seen == [50 * (3 + len(points))]


def test_envelope_kernel_stops_at_max_iter():
    rng = np.random.default_rng(11)
    cost, points, mu = _case(rng, 3, "generic")
    full = solve_envelope((cost, points), mu)
    assert full.iterations >= 2
    ext = np.vstack((points.T, cost))
    basis = np.argmax(points, axis=0)
    status, iters, _, _, _, _ = _kernels.envelope_iterate(
        _kernels._CostVector(ext), basis, mu.copy(), FEAS_TOL, 1,
        lp.DEGENERACY_LIMIT)
    assert (status, iters) == (_kernels._STATUS_ITERLIMIT, 1)




def test_array_path_is_the_full_pass():
    # a cost vector prices every column in one np.dot at every pivot, as
    # the frozen kernel does, at every |A|
    rng = np.random.default_rng(41)
    for na in (2, 3, 4):
        for kind in ("generic", "zero_mu", "constant", "duplicated"):
            cost, points, mu = _case(rng, na, kind)
            ext = np.ascontiguousarray(np.vstack((points.T, cost)))
            runs = []
            for kernel, columns in (
                    (_kernels.envelope_iterate, _kernels._CostVector(ext)),
                    (envelope_iterate_frozen, ext)):
                basis = np.argmax(points, axis=0)
                x_b = mu.copy()
                runs.append(kernel(columns, basis, x_b, FEAS_TOL, 300,
                                   lp.DEGENERACY_LIMIT) + (basis, x_b))
            new, frozen = runs
            _assert_same_run(new[:4] + new[6:], frozen)
            assert new[4] == (new[1] + 1) * len(points)
            assert new[5] == len(points)


ENGAGE = fptas._SEGMENT_MIN_POINTS
BLOCK = _kernels._PRICE_BLOCK
# grid sizes for the segment path, from two blocks (the second of one
# column) to four times the engage size, each ending in a short block;
# 3n stays below 4.6*10^5
SEGMENT_N = (BLOCK + 1, 3 * BLOCK - 100, ENGAGE - 1, ENGAGE + 1,
             2 * ENGAGE + 517, 4 * ENGAGE + 3)
SEGMENT_KINDS = ("quadratic", "log", "spherical", "piecewise", "affine")


def _segment_case(rng, kind, zero_b):
    """(table, score) of an |A| = 2 envelope LP over fptas-a's grid.
    With ``zero_b`` Bob's outcome 0 has zero mass under alice outcome 0
    and one more entry of the prior is 0, so some posteriors near the
    vertices are 0/0 or hold zeros (the log score's boundary posteriors).
    Kinds: the four score kinds, "piecewise" with 2-5 pieces, so u_B has
    kinks and is affine between them, and "affine", one piece, so u_B is
    affine along the grid and every block's bound is as tight as it
    gets."""
    ne, nb = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    p = rng.gamma(1.0, size=(ne, 2, nb))
    if zero_b:
        p[:, 0, 0] = 0.0
        p[rng.integers(ne), 1, rng.integers(nb)] = 0.0
    table = marginals_and_conditionals(JointPrior(p / p.sum()))
    score = {"quadratic": quadratic_score, "log": log_score,
             "spherical": spherical_score}.get(kind)
    score = score() if score is not None else random_piecewise(
        rng, ne=ne, k=1 if kind == "affine" else int(rng.integers(2, 6)))
    return table, score


def _segment_costs(k, table, score):
    """The segment LP's columns at K = k, none costed, and its vertex
    basis, as ``solve_envelope`` starts them."""
    return (_kernels._SegmentCosts(_kernels.SegmentCost(k, table, score)),
            np.array([k, 0]))


def _costed(costs):
    """The indices of the blocks that ``costs`` has costed."""
    return [i for i, block in enumerate(costs.blocks) if block is not None]


def _assert_segment_matches_frozen(k, table, score, mu, max_iter,
                                   degen_limit):
    """The segment kernel on ``SegmentCost(k, ...)`` against the frozen
    kernel over the full u_B row of ``enumerate_k_uniform(2, k)``: status,
    pivots, basis, x_b, y and the least reduced cost bit for bit, and
    every costed block's array equal to the full row's points over its
    costs, each block whole, two ends per block counted besides."""
    points = enumerate_k_uniform(2, k)
    n = k + 1
    full = _kernels.ub_grid_wa(points, table, score)
    ext = np.vstack((points.T, full))
    costs, seg_basis = _segment_costs(k, table, score)
    x_b = mu.copy()
    new = _kernels.envelope_iterate(costs, seg_basis, x_b, FEAS_TOL,
                                    max_iter, degen_limit) + (seg_basis, x_b)
    basis = np.argmax(points, axis=0)
    x_b = mu.copy()
    frozen = envelope_iterate_frozen(ext, basis, x_b, FEAS_TOL, max_iter,
                                     degen_limit) + (basis, x_b)
    _assert_same_run(new[:4] + new[6:], frozen)
    costed = 0
    for i in _costed(costs):
        lo, hi = i * BLOCK, min((i + 1) * BLOCK, n)
        assert costs.blocks[i].tobytes() == ext[:, lo:hi].tobytes()
        costed += hi - lo
    assert new[5] == 2 * len(costs.blocks) + costed
    return new


def _assert_same_run(new, frozen):
    """Status, pivots, basis, x_b, y and the least reduced cost (the entry
    np.argmin picks), bit for bit."""
    status, iters, y, least, basis, x_b = new
    f_status, f_iters, f_y, f_red, f_basis, f_x_b = frozen
    assert (status, iters) == (f_status, f_iters)
    assert basis.tolist() == f_basis.tolist()
    assert x_b.tobytes() == f_x_b.tobytes()
    assert y.tobytes() == f_y.tobytes()
    assert np.float64(least).tobytes() == \
        f_red[np.argmin(f_red)].tobytes()


def _assert_same_solution(sol, ref):
    """Pivots, basis, x_B, y, objective, gap and residual of two envelope
    LP solutions, bit for bit."""
    assert sol.iterations == ref.iterations
    assert sol.basis.tolist() == ref.basis.tolist()
    for got, want in ((sol.x_basis, ref.x_basis), (sol.dual_eq, ref.dual_eq)):
        assert got.tobytes() == want.tobytes()
    assert (sol.objective, sol.duality_gap, sol.feasibility_residual) == \
        (ref.objective, ref.duality_gap, ref.feasibility_residual)


def test_support_reads_a_degenerate_basis_as_the_dense_x_did():
    # an unsorted basis whose x_B holds 0, -0.0, a tiny negative, values at
    # and below ZERO_SIGNAL_MASS and above it: the support, its weights and
    # the scheme rows fptas-a forms from them are those that
    # np.nonzero(x > ZERO_SIGNAL_MASS) gave over the dense x, in its order
    k, cut = 40, core.ZERO_SIGNAL_MASS
    grid = enumerate_k_uniform(2, k)
    rng = np.random.default_rng(31)
    values = np.array([0.0, -0.0, -1e-18, cut, cut / 2, 2 * cut, 0.25, 0.5])
    cases = [(np.array([7, 2, 30, 0, 15]),
              np.array([0.3, 0.0, cut, 0.5, 0.2]))]
    for _ in range(30):
        m = int(rng.integers(1, 6))
        cases.append((rng.choice(k + 1, size=m, replace=False),
                      rng.choice(values, size=m)))
    for basis, x_b in cases:
        sol = lp.LPSolution(LPStatus.OPTIMAL, None, 0.0, None, None, 0,
                            basis=basis, x_basis=x_b)
        x = dense_x(sol, k + 1)
        want = np.nonzero(x > cut)[0]
        support, weights = sol.support(cut)
        assert support.tolist() == want.tolist()
        assert weights.tobytes() == x[want].tobytes()
        assert _kernels.segment_rows(k, support).tobytes() == \
            grid[want].tobytes()
        if basis is cases[0][0]:
            assert support.tolist() == [0, 7, 15]


@pytest.mark.parametrize("k", (ENGAGE - 1, 3 * BLOCK + 517, 999_999))
def test_segment_rows_are_the_k_uniform_grid(k):
    # the segment LP forms fptas-a's |A| = 2 grid from K alone: in both
    # layouts, and at any indices, its points are enumerate_k_uniform's
    grid = enumerate_k_uniform(2, k)
    rows = _kernels.segment_rows(k, np.arange(k + 1))
    assert rows.flags.c_contiguous
    assert rows.tobytes() == grid.tobytes()
    cols = _kernels.segment_rows(k, np.arange(k + 1), np.empty((2, k + 1)))
    assert cols.tobytes() == np.ascontiguousarray(grid.T).tobytes()
    assert cols[:, [k, 0]].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    some = np.random.default_rng(k).integers(0, k + 1, size=50)
    assert _kernels.segment_rows(k, some).tobytes() == grid[some].tobytes()


def test_segment_rows_meet_the_bound_preconditions_at_the_largest_k():
    # the bound's proof (``_segment_tables``) needs t strictly ascending
    # and t + s within 2^-50 of 1; at the largest K the default point cap
    # admits, checked in slices that overlap by one point
    k = fptas.DEFAULT_GRID_CAP - 1
    step = 1 << 20
    for lo in range(0, k + 1, step):
        t, s = _kernels.segment_rows(k, np.arange(lo, min(lo + step + 1,
                                                          k + 1))).T
        assert (t[1:] > t[:-1]).all()
        assert np.abs(t + s - 1.0).max() <= 2.0 ** -50


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(SEGMENT_N), kind=st.sampled_from(SEGMENT_KINDS),
       zero_b=st.booleans(), vertex_mu=st.booleans(),
       degen_limit=st.sampled_from((0, lp.DEGENERACY_LIMIT)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screened_pricing_matches_full_pass_bit_for_bit(n, kind, zero_b,
                                                        vertex_mu,
                                                        degen_limit, seed):
    # mu at a vertex makes every pivot degenerate, so with degen_limit = 0
    # Bland's rule takes over at the first pivot and costs every block;
    # it can take thousands of pivots, so a run stops at 300 and is
    # compared at that point
    rng = np.random.default_rng(seed)
    table, score = _segment_case(rng, kind, zero_b)
    mu = np.array([1.0, 0.0]) if vertex_mu else table.mu_a
    _assert_segment_matches_frozen(n - 1, table, score, mu, 300,
                                   degen_limit)


def test_screened_pricing_keeps_the_first_of_tied_minima(monkeypatch):
    # with g = 4 (t - 1/2)^2 and h = 2 |t - 1/2|, both convex, u_B = g - h
    # has two minima, at t = 1/4 and t = 3/4, that round alike; at the
    # vertex basis's duals (0, 0) their blocks are priced apart, and the
    # first must enter, as np.argmin's column
    def terms(wt, m, table, score):
        x = wt[0] - 0.5
        return 4.0 * x * x, 2.0 * np.abs(x)

    monkeypatch.setattr(_kernels, "_ub_terms", terms)
    rng = np.random.default_rng(3)
    k = 4 * ENGAGE
    table, score = _segment_case(rng, "quadratic", False)
    cost = _kernels.ub_grid_wa(enumerate_k_uniform(2, k), table, score)
    tied = np.flatnonzero(cost == cost.min())
    assert (tied / k).tolist() == [0.25, 0.75]
    new = _assert_segment_matches_frozen(k, table, score, table.mu_a, 300,
                                         lp.DEGENERACY_LIMIT)
    assert new[1] >= 1


@pytest.mark.parametrize("kind", SEGMENT_KINDS)
def test_segment_bounds_hold_for_every_column(kind):
    # each block's bound is at most every reduced cost np.dot computes in
    # it: at the vertex basis's duals (y.w is then the chord of u_B over
    # the whole segment), at the optimal duals, where the bound is
    # tightest, at duals moved off them and at random duals
    rng = np.random.default_rng(len(kind))
    for trial in range(6):
        n = SEGMENT_N[trial]
        table, score = _segment_case(rng, kind, trial % 2 == 1)
        costs, basis = _segment_costs(n - 1, table, score)
        costs.start(basis)
        costs.fill(np.arange(len(costs.blocks)))
        assert costs.tables is not None
        ext = np.hstack(costs.blocks)
        opt = solve_envelope((ext[2], ext[:2].T), table.mu_a).dual_eq
        scale = np.abs(ext[2]).max()
        for y in (ext[2, basis], opt, opt + 1e-6 * rng.normal(size=2),
                  opt + 1e-3 * rng.normal(size=2),
                  scale * rng.normal(size=2)):
            bound = costs.bounds(y)
            red = np.full(len(costs.blocks) * BLOCK, np.inf)
            red[:n] = np.append(-y, 1.0) @ ext
            least = red.reshape(-1, BLOCK).min(axis=1)
            assert (bound <= least).all(), (trial, np.flatnonzero(
                bound > least))


def test_screen_engages_and_matches_full_pass(monkeypatch):
    # fptas-a gives its |A| = 2 LP a SegmentCost from the engage size on,
    # and the LP returns the solution a full cost vector over
    # enumerate_k_uniform's grid gives, bit for bit; below it, fptas-a
    # builds the grid and costs every point up front
    real = fptas.solve_envelope
    seen = []

    def spy(costs, mu):
        seen.append((costs, real(costs, mu)))
        return seen[-1][1]

    monkeypatch.setattr(fptas, "solve_envelope", spy)
    rng = np.random.default_rng(0)
    for n in (ENGAGE - 1, ENGAGE, 3 * ENGAGE + 1):
        prior = random_prior(rng, ne=3, na=2, nb=4)
        table = marginals_and_conditionals(prior)
        points = enumerate_k_uniform(2, n - 1)
        for score in (log_score(), quadratic_score()):
            report = fptas.fptas_a_const(prior, score, 0.05, grid_k=n - 1)
            costs, sol = seen[-1]
            assert report.diagnostics["grid_points"] == n
            assert isinstance(costs, _kernels.SegmentCost) == (n >= ENGAGE)
            ref = real((_kernels.ub_grid_wa(points, table, score), points),
                       table.mu_a)
            assert sol.iterations >= 2
            _assert_same_solution(sol, ref)
            if n < ENGAGE:
                assert sol.columns_costed == n
                assert sol.columns_priced == (sol.iterations + 1) * n
            else:
                assert sol.columns_costed < 0.5 * n
                assert sol.columns_priced < 0.2 * (sol.iterations + 1) * n


def test_screen_sizes_straddle_the_engage_size():
    assert SEGMENT_N[0] % BLOCK == 1        # a last block of one column
    assert all(n % BLOCK for n in SEGMENT_N)
    assert SEGMENT_N[2] < ENGAGE <= SEGMENT_N[3]
    assert 4 * ENGAGE <= SEGMENT_N[-1] and 3 * SEGMENT_N[-1] < 460_800


def test_exact_lp_past_the_engage_size_prices_a_cost_vector(monkeypatch):
    # the exact solver's |A| = 2 vertex LP, here 57,151 points with the
    # vertices first, is costed in full and priced from its cost vector,
    # whatever its size: the segment path is fptas-a's grid alone
    real = fptas.solve_envelope
    seen = []

    def spy(costs, mu):
        seen.append((costs, real(costs, mu)))
        return seen[-1][1]

    monkeypatch.setattr(fptas, "solve_envelope", spy)
    rng = np.random.default_rng(3)
    prior = random_prior(rng, ne=2, na=2, nb=3)
    score = random_piecewise(rng, ne=2, k=450)
    exact.solve_exact(prior, score)
    (cost, points), sol = seen[0]
    n = len(points)
    assert n == 57_151 and points[:2].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert sol.iterations >= 2
    assert sol.columns_costed == n
    assert sol.columns_priced == (sol.iterations + 1) * n
    table = marginals_and_conditionals(prior)
    ref = real((_kernels.ub_grid_wa(points, table, score), points),
               table.mu_a)
    _assert_same_solution(sol, ref)


def test_segment_beyond_the_bound_limits_costs_every_block():
    # a piecewise G with coefficients near 1e280 puts every block's scale
    # above 2^900, past the proof's range: no bound is built, every block
    # is costed on the first pricing pass and priced at every pivot, and
    # the solution is the cost vector's bit for bit
    rng = np.random.default_rng(29)
    table = marginals_and_conditionals(random_prior(rng, ne=2, na=2, nb=2))
    score = piecewise_score([(1e280 * rng.uniform(-1.0, 1.0, size=2),
                              1e280 * rng.uniform(-1.0, 1.0))
                             for _ in range(4)])
    k = 2 * ENGAGE + 517
    n = k + 1
    costs, basis = _segment_costs(k, table, score)
    costs.start(basis)
    assert costs.tables is None
    assert _costed(costs) == [0, len(costs.blocks) - 1]
    points = enumerate_k_uniform(2, k)
    sol = solve_envelope(_kernels.SegmentCost(k, table, score), table.mu_a)
    ref = solve_envelope((_kernels.ub_grid_wa(points, table, score), points),
                         table.mu_a)
    assert sol.iterations >= 1
    _assert_same_solution(sol, ref)
    assert sol.columns_costed == 2 * len(costs.blocks) + n
    assert sol.columns_priced == (sol.iterations + 1) * n


def test_nan_cost_raises_before_the_first_pivot():
    # a NaN cost used to enter first and leave every later price NaN, so
    # the LP pivoted to its cap of 50(m + n), 100,150 pivots here (4.1 s)
    rng = np.random.default_rng(5)
    points = enumerate_k_uniform(2, 2000)
    table = marginals_and_conditionals(random_prior(rng, ne=2, na=2, nb=2))
    cost = _kernels.ub_grid_wa(points, table, quadratic_score())
    for bad in (np.nan, np.inf, -np.inf):
        c = cost.copy()
        c[1234] = bad
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="cost 1234 is not finite"):
            solve_envelope((c, points), table.mu_a)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("where", ("ends", "block"))
def test_segment_path_raises_on_a_non_finite_cost(monkeypatch, where):
    # a NaN among the blocks' ends, or in a block when it is costed, stops
    # the LP at once: nothing is costed after it
    rng = np.random.default_rng(7)
    table = marginals_and_conditionals(random_prior(rng, ne=2, na=2, nb=2))
    terms, grid_wa = _kernels._ub_terms, _kernels.ub_grid_wa
    calls = []

    def nan_terms(wt, m, table, score):
        g, h = terms(wt, m, table, score)
        calls.append("terms")
        return np.where(np.arange(g.size) == 3, np.nan, g), h

    def nan_block(w, table, score):
        out = grid_wa(w, table, score)
        calls.append("block")
        out[-1] = np.nan
        return out

    if where == "ends":
        monkeypatch.setattr(_kernels, "_ub_terms", nan_terms)
    else:
        monkeypatch.setattr(_kernels, "ub_grid_wa", nan_block)
    with pytest.raises(NumericalFailure, match="cost is not finite"):
        solve_envelope(_kernels.SegmentCost(4 * BLOCK, table, log_score()),
                       table.mu_a)
    assert calls == (["terms"] if where == "ends" else ["block"])


def test_columns_priced_is_every_column_per_pass_below_the_screen():
    rng = np.random.default_rng(17)
    for na in (2, 3, 4):
        cost, points, mu = _case(rng, na, "generic")
        sol = solve_envelope((cost, points), mu)
        assert sol.iterations >= 1
        assert sol.columns_priced == (sol.iterations + 1) * len(points)
        assert sol.columns_costed == len(points)


def test_screen_prices_under_a_tenth_on_a_million_point_grid():
    # fptas-a's largest benchmark rung: |A| = 2 at K = 999,999.  The
    # segment path costs under 5% of the points and prices under a tenth
    # of the columns per pivot
    rng = np.random.default_rng(23)
    table = marginals_and_conditionals(random_prior(rng, ne=3, na=2, nb=4))
    sol = fptas._envelope_lp(
        table.mu_a, _kernels.SegmentCost(999_999, table, log_score()), "grid")
    n = 1_000_000
    assert sol.status is LPStatus.OPTIMAL and sol.iterations >= 2
    assert sol.duality_gap <= 2 * FEAS_TOL
    assert sol.columns_costed < 0.05 * n
    assert sol.columns_priced < 0.1 * (sol.iterations + 1) * n


REPORT_SCRIPT = """
import sys
import numpy as np
from abasolve import fptas, instances
from abasolve.core import JointPrior
from abasolve.scoring import log_score
p = np.random.default_rng(7).dirichlet(np.ones(24)).reshape(3, 2, 4)
report = fptas.fptas_a_const(JointPrior(p), log_score(), 0.05,
                             grid_k=199_999)
sys.stdout.write(instances.emit_report(report, None))
"""


def test_segment_lp_reports_do_not_depend_on_blas_threads():
    # a 200,000-point |A| = 2 grid: a whole-row product of 3 x 200,000
    # entries would be split across two OpenBLAS threads, but the segment
    # path prices block by block
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", REPORT_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert out[0] == out[1] and '"grid_points": 200000' in out[0]
