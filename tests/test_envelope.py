"""lp.solve_envelope, fptas-a's revised simplex, against the dense tableau
assembly it replaced, scipy's HiGHS and a loop reference of its pivot
rules; its screened pricing against ``envelope_iterate_frozen``, the
kernel as it was when every pivot priced every column.

The bit-for-bit comparisons keep every product below the 4.6*10^5 entries
at which OpenBLAS splits a matrix-vector product across threads: above it
the full product's rounding at the split depends on the thread count."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from abasolve import _kernels, lp
from abasolve.core import marginals_and_conditionals
from abasolve.errors import NumericalFailure, ValidationError
from abasolve.fptas import enumerate_k_uniform
from abasolve.lp import FEAS_TOL, LPStatus, solve_envelope
from abasolve.scoring import log_score, quadratic_score

from helpers import envelope_iterate_frozen, envelope_lp_tableau, \
    envelope_simplex_loop, random_prior

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
        return _kernels._STATUS_ITERLIMIT, max_iter, None, None, None

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
    status, iters, _, _, _ = _kernels.envelope_iterate(
        ext, basis, mu.copy(), FEAS_TOL, 1, lp.DEGENERACY_LIMIT)
    assert (status, iters) == (_kernels._STATUS_ITERLIMIT, 1)


ENGAGE = _kernels._SCREEN_MIN_BLOCKS * _kernels._PRICE_BLOCK
# grid resolutions whose grids run from one pricing block to past the size
# at which the screen engages (65,536 columns), small enough that
# (|A| + 1) * 1.25 n, with a quarter of the points duplicated, stays below
# 4.6*10^5
SCREEN_K = {2: (500, 1023, 40_000, 65_535, 90_000),
            3: (43, 200, 360, 361, 380),
            4: (16, 40, 71, 72, 73)}


def _screen_case(rng, na, k, kind):
    """(ext, mu) of an envelope LP over the K-uniform grid.  Kinds: u_B
    costs of a random prior, whose reduced costs vary smoothly along the
    grid; a constant cost, where every column ties; a quarter of the points
    repeated, with costs rounded to one decimal; and vertex costs 0 beside
    a block of columns tied at the least cost, which the first pivot, at
    y = 0, prices as the cost itself."""
    points = enumerate_k_uniform(na, k)
    table = marginals_and_conditionals(random_prior(rng, ne=2, na=na, nb=2))
    score = (quadratic_score(), log_score())[int(rng.integers(2))]
    cost = _kernels.ub_grid_wa(points, table, score)
    if kind == "constant":
        cost[:] = 0.7
    elif kind == "duplicated":
        extra = rng.integers(len(points), size=len(points) // 4)
        points = np.vstack((points, points[extra]))
        cost = np.round(np.concatenate((cost, cost[extra])), 1)
    elif kind == "tied_block":
        cost = 1.0 + cost - cost.min()
        cost[(points == 1.0).any(axis=1)] = 0.0
        block = int(rng.integers(-(-len(cost) // _kernels._PRICE_BLOCK)))
        lo = block * _kernels._PRICE_BLOCK
        cost[lo:lo + _kernels._PRICE_BLOCK] = -1.0
        cost[rng.integers(len(cost), size=3)] = -1.0
    mu = rng.dirichlet(np.ones(na))
    if rng.random() < 0.5:      # zero entries make degenerate pivots
        mu[rng.permutation(na)[:na - 1]] = 0.0
        mu /= mu.sum()
    return np.ascontiguousarray(np.vstack((points.T, cost))), mu


def _run_both(ext, mu, max_iter, degen_limit):
    """(new, frozen) results of the two kernels from the vertex basis, each
    with the basis and x_b it leaves."""
    out = []
    for kernel in (_kernels.envelope_iterate, envelope_iterate_frozen):
        basis = np.argmax(ext[:-1], axis=1)
        x_b = mu.copy()
        out.append(kernel(ext, basis, x_b, FEAS_TOL, max_iter, degen_limit)
                   + (basis, x_b))
    return out


def _assert_same_run(new, frozen):
    """Status, pivots, basis, x_b, y and the least reduced cost (the entry
    np.argmin picks), bit for bit."""
    status, iters, y, least, _, basis, x_b = new
    f_status, f_iters, f_y, f_red, f_basis, f_x_b = frozen
    assert (status, iters) == (f_status, f_iters)
    assert basis.tolist() == f_basis.tolist()
    assert x_b.tobytes() == f_x_b.tobytes()
    assert y.tobytes() == f_y.tobytes()
    assert np.float64(least).tobytes() == \
        f_red[np.argmin(f_red)].tobytes()


@settings(max_examples=40, deadline=None)
@given(na=st.integers(2, 4), size=st.integers(0, 4),
       kind=st.sampled_from(("smooth", "constant", "duplicated",
                             "tied_block")),
       degen_limit=st.sampled_from((0, lp.DEGENERACY_LIMIT)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screened_pricing_matches_full_pass_bit_for_bit(na, size, kind,
                                                        degen_limit, seed):
    # degen_limit = 0 hands the LP to Bland's rule at its first degenerate
    # pivot, and Bland's rule prices in full; it can take thousands of
    # pivots here, so a run stops at 300 and is compared at that point
    rng = np.random.default_rng(seed)
    ext, mu = _screen_case(rng, na, SCREEN_K[na][size], kind)
    n = ext.shape[1]
    assert (na + 1) * n < 460_800
    new, frozen = _run_both(ext, mu, 300, degen_limit)
    _assert_same_run(new, frozen)
    if n < ENGAGE:
        assert new[4] == (new[1] + 1) * n


def test_screen_engages_and_matches_full_pass():
    # u_B costs at |A| = 2 above the engage size: the screen prices a few
    # percent of the columns and still pivots as the full pass does
    rng = np.random.default_rng(0)
    ext, mu = _screen_case(rng, 2, 90_000, "smooth")
    new, frozen = _run_both(ext, mu, 300, lp.DEGENERACY_LIMIT)
    _assert_same_run(new, frozen)
    assert new[1] >= 5
    assert new[4] < 0.1 * (new[1] + 1) * ext.shape[1]


def test_screened_reduced_costs_are_the_full_products():
    # every reduced cost the screen computes equals the full np.dot's bit
    # for bit, at the optimal duals and at duals moved off them
    rng = np.random.default_rng(31)
    for _ in range(4):
        ext, mu = _screen_case(rng, 2, 90_000, "smooth")
        ranges = _kernels._block_ranges(ext)
        y = _run_both(ext, mu, 300, lp.DEGENERACY_LIMIT)[1][2]
        for shift in (0.0, 1e-3, 1e-2):
            weights = np.append(-y - shift * rng.normal(size=2), 1.0)
            red = np.full(ext.shape[1], np.nan)
            enter, count = _kernels._screened_pricing(ext, weights, red,
                                                      *ranges)
            done = ~np.isnan(red)
            assert done.sum() == count > 0
            assert red[done].tobytes() == (weights @ ext)[done].tobytes()


def test_screened_bounds_hold_in_exact_arithmetic():
    # the proof's two steps, checked in rationals: every computed reduced
    # cost is at least L_k - g S (the dot-product error bound that np.dot
    # must meet), and the screened bound is at most that, so the margin
    # covers a bound computed without any rounding error of its own
    rng = np.random.default_rng(29)
    unit = Fraction(1, 2 ** 53)
    for trial in range(12):
        rows = 3 + trial % 3
        n = 3 * _kernels._PRICE_BLOCK + int(rng.integers(1, 900))
        ext = np.vstack((rng.dirichlet(np.ones(rows - 1), size=n).T,
                         rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)))
        weights = np.append(-rng.normal(size=rows - 1) *
                            10.0 ** rng.integers(-3, 4), 1.0)
        lohi, scale = _kernels._block_ranges(ext)
        bound = _kernels._screened_bounds(weights, lohi, scale)
        red = weights @ ext
        g = (rows * unit) / (1 - rows * unit)
        s = sum(abs(Fraction(w)) * Fraction(m)
                for w, m in zip(weights, scale))
        for k, lo in enumerate(range(0, n, _kernels._PRICE_BLOCK)):
            cols = ext[:, lo:lo + _kernels._PRICE_BLOCK]
            pick = np.where(weights < 0.0, cols.max(axis=1), cols.min(axis=1))
            floor = sum(Fraction(w) * Fraction(r)
                        for w, r in zip(weights, pick)) - g * s
            assert Fraction(bound[k]) <= floor, (trial, k)
            j = lo + int(np.argmin(red[lo:lo + _kernels._PRICE_BLOCK]))
            assert Fraction(red[j]) >= floor, (trial, k)
            exact = sum(Fraction(w) * Fraction(x)
                        for w, x in zip(weights, ext[:, j]))
            assert abs(Fraction(red[j]) - exact) <= g * s


def test_screened_bounds_refuse_non_finite_or_extreme_scales():
    ext = np.vstack((enumerate_k_uniform(2, 3000).T, np.zeros(3001)))
    lohi, scale = _kernels._block_ranges(ext)
    w = np.array([-0.5, 0.25, 1.0])
    assert _kernels._screened_bounds(w, lohi, scale) is not None
    for weights in (np.array([np.nan, 0.25, 1.0]),
                    np.array([-2.0 ** 1001, 0.25, 1.0]),
                    np.array([0.0, 0.0, 1.0])):   # S = 0: all costs are 0
        assert _kernels._screened_bounds(weights, lohi, scale) is None
    ext[2, 17] = np.nan
    lohi, scale = _kernels._block_ranges(ext)
    assert _kernels._screened_bounds(w, lohi, scale) is None


def test_screen_sizes_straddle_the_engage_size():
    for na, ks in SCREEN_K.items():
        sizes = [len(enumerate_k_uniform(na, k)) for k in ks]
        assert sizes[0] <= _kernels._PRICE_BLOCK
        assert sizes[2] < ENGAGE <= sizes[3], (na, sizes)


def test_nan_cost_gets_full_pricing():
    # a NaN cost takes the full pass at every pivot, so np.argmin enters
    # the NaN column first, as before; the run then stalls on NaN prices
    rng = np.random.default_rng(5)
    ext, mu = _screen_case(rng, 2, 90_000, "smooth")
    ext[2, 54_321] = np.nan
    new, frozen = _run_both(ext, mu, 4, lp.DEGENERACY_LIMIT)
    _assert_same_run(new, frozen)
    assert new[0] == _kernels._STATUS_ITERLIMIT
    assert new[4] == 5 * ext.shape[1]
    assert new[5].tolist().count(54_321) == 1


def test_columns_priced_is_every_column_per_pass_below_the_screen():
    rng = np.random.default_rng(17)
    for na in (2, 3, 4):
        cost, points, mu = _case(rng, na, "generic")
        sol = solve_envelope(cost, points, mu)
        assert sol.iterations >= 1
        assert sol.columns_priced == (sol.iterations + 1) * len(points)


def test_screen_prices_under_a_tenth_on_a_million_point_grid():
    # fptas-a's largest benchmark rung: |A| = 2 at K = 999,999
    rng = np.random.default_rng(23)
    points = enumerate_k_uniform(2, 999_999)
    table = marginals_and_conditionals(random_prior(rng, ne=3, na=2, nb=4))
    cost = _kernels.ub_grid_wa(points, table, log_score())
    sol = solve_envelope(cost, points, table.mu_a)
    assert sol.status is LPStatus.OPTIMAL and sol.iterations >= 2
    assert sol.duality_gap <= 2 * FEAS_TOL
    assert sol.columns_priced < 0.1 * (sol.iterations + 1) * len(points)
