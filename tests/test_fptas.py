import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from abasolve import _kernels, core, fptas, instances, lp
from abasolve.belief import (bob_utility_from_vEB, bob_utility_from_wA,
                             bob_utility_of_scheme, induced_posterior_over_A)
from abasolve.core import JointPrior, no_reveal_scheme
from abasolve.errors import (BayesPlausibilityViolated, NumericalFailure,
                             SizeCapExceeded, ValidationError)
from abasolve.fptas import (count_k_uniform, enumerate_k_uniform,
                            epsilon_for_delta, fptas_a_const, fptas_eb_const,
                            grid_size_K, sample_k_uniform,
                            scheme_from_posteriors)
from abasolve.lp import tableau_cells
from abasolve.oracle import oracle_optimal
from abasolve.scoring import (HolderParams, log_score, quadratic_score,
                              spherical_score)

from helpers import (dense_x, random_piecewise, random_prior,
                     stop_simplex_early, time_limit)


def test_epsilon_for_delta_lipschitz_branch():
    # beta = 1: second branch dropped, denominator inflated by 6*alpha
    # (the module example's 0.005 omits the inflation; see decisions ledger)
    assert epsilon_for_delta(0.12, 2, 1.0, 2.0, 1.0) == \
        pytest.approx(0.0025, abs=1e-15)


def test_epsilon_for_delta_monotone():
    last = 0.0
    for delta in (0.01, 0.05, 0.1, 0.5, 1.0):
        eps = epsilon_for_delta(delta, 2, 1.0, 2.0, 0.7)
        assert eps > last
        last = eps


def test_epsilon_for_delta_second_branch():
    # delta = 6*alpha makes the second branch exactly 1/2 * 1
    assert epsilon_for_delta(12.0, 1, 1.0, 2.0, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        epsilon_for_delta(-1.0, 2, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("delta", (math.inf, math.nan, -1.0, 0.0))
def test_non_finite_delta_is_a_validation_error(xor_prior, quad, delta):
    # a run at delta = inf would report inf delta, epsilon and guarantee,
    # which JSON cannot hold; the |A| = 1 prior is refused by the same check
    single = random_prior(np.random.default_rng(5), ne=2, na=1, nb=2)
    with pytest.raises(ValidationError, match="must be finite and positive"):
        epsilon_for_delta(delta, 2, 1.0, 1.0, 1.0)
    for prior in (xor_prior, single):
        with pytest.raises(ValidationError,
                           match="must be finite and positive"):
            fptas_a_const(prior, quad, delta)


def test_grid_size_K_examples():
    assert grid_size_K(2, 0.5) == 17
    assert grid_size_K(2, 0.1) == 738
    # halving epsilon more than quadruples K
    assert grid_size_K(2, 0.05) > 4 * grid_size_K(2, 0.1)
    with pytest.raises(ValidationError):
        grid_size_K(1, 0.5)
    with pytest.raises(ValidationError):
        grid_size_K(2, 1.5)


def test_enumerate_k_uniform_examples():
    grid = enumerate_k_uniform(2, 2)
    assert grid.tolist() == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
    assert enumerate_k_uniform(3, 2).shape == (6, 3)
    grid10 = enumerate_k_uniform(2, 10)
    assert grid10.shape == (11, 2)
    assert any(np.allclose(row, [0.3, 0.7]) for row in grid10)


def test_enumerate_k_uniform_lex_and_cap():
    grid = enumerate_k_uniform(3, 3)
    assert grid.shape[0] == count_k_uniform(3, 3) == 10
    as_tuples = [tuple(r) for r in np.round(grid * 3).astype(int)]
    assert as_tuples == sorted(as_tuples)
    assert all(abs(r.sum() - 1.0) < 1e-12 for r in grid)
    with pytest.raises(SizeCapExceeded):
        enumerate_k_uniform(4, 200, cap_points=1000)


@pytest.mark.parametrize("d", (1, 3))
def test_enumerate_k_uniform_refuses_k_below_one(d):
    # K = 0 would give the all-zero row, which is not on the simplex
    with pytest.raises(ValidationError, match=f"got d={d}, K=0"):
        enumerate_k_uniform(d, 0)
    assert enumerate_k_uniform(d, 1).sum(axis=1).tolist() == [1.0] * d


def test_scheme_from_posteriors_vertices(xor_prior):
    scheme = scheme_from_posteriors(
        xor_prior, [(0.5, np.array([1.0, 0.0])), (0.5, np.array([0.0, 1.0]))])
    assert scheme.pi == pytest.approx(np.diag([0.5, 0.5]))
    for s, expect in zip(scheme.signal_labels,
                         ([1.0, 0.0], [0.0, 1.0])):
        assert induced_posterior_over_A(scheme, s) == pytest.approx(expect,
                                                                    abs=1e-10)


def test_scheme_from_posteriors_single(xor_prior):
    scheme = scheme_from_posteriors(xor_prior, [(1.0, np.array([0.5, 0.5]))])
    assert scheme.pi == pytest.approx(np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("posteriors,bad", (
    # each mean is mu_A = (0.5, 0.5), but some posteriors have negative
    # entries, or sum to 1.1 and 0.9
    ([(0.5, [1.5, -0.5]), (0.5, [-0.5, 1.5])], 0),
    ([(0.5, [0.5, 0.5]), (0.25, [1.5, -0.5]), (0.25, [-0.5, 1.5])], 1),
    ([(0.5, [1.0, 0.1]), (0.5, [0.0, 0.9])], 0),
))
def test_scheme_from_posteriors_refuses_non_distributions(copy_prior,
                                                          posteriors, bad):
    with pytest.raises(ValidationError,
                       match=f"posterior {bad} is not a distribution"):
        scheme_from_posteriors(copy_prior, posteriors)


def test_scheme_from_posteriors_sums_within_tolerance(copy_prior):
    # each posterior sums to 1 -/+ 4e-9, within SCHEME_MARGINAL_ATOL
    scheme = scheme_from_posteriors(
        copy_prior, [(0.5, [1.0 - 4e-9, 0.0]), (0.5, [0.0, 1.0 + 4e-9])])
    assert scheme.n_signals == 2
    assert scheme.validate(copy_prior) is scheme


def test_scheme_from_posteriors_mean_mismatch(xor_prior):
    with pytest.raises(BayesPlausibilityViolated) as info:
        scheme_from_posteriors(xor_prior, [(1.0, np.array([0.9, 0.1]))])
    assert np.abs(info.value.residual).max() == pytest.approx(0.4)


def test_fptas_a_golden_instances(xor_prior, copy_prior, independent_prior,
                                  quad):
    # even K puts the prior marginal and the vertices on the grid
    for prior in (xor_prior, copy_prior, independent_prior):
        report = fptas_a_const(prior, quad, delta=0.05, grid_k=40)
        assert report.bob_utility <= 1e-9
        assert report.bob_utility >= -1e-9
        assert report.scheme.violations(prior) == []


def test_fptas_a_default_path_small_K(xor_prior, quad):
    report = fptas_a_const(xor_prior, quad, delta=2.0)
    diag = report.diagnostics
    assert diag["K"] == diag["K_target"] == grid_size_K(2, diag["epsilon"])
    assert not diag["grid_capped"]
    assert diag["guarantee"] == pytest.approx(4 * diag["L"] * diag["epsilon"]
                                              + 2.0)
    assert report.bob_utility <= report.diagnostics["lp_objective"] + 1e-9


def test_fptas_a_capped_reports_weaker_guarantee(xor_prior, quad):
    report = fptas_a_const(xor_prior, quad, delta=0.05, cap_grid_points=101)
    diag = report.diagnostics
    assert diag["grid_capped"] and diag["K"] == 100
    assert diag["guarantee"] > 4 * diag["L"] * diag["epsilon"] + 0.05
    assert diag["epsilon_effective"] > diag["epsilon"]
    assert grid_size_K(2, diag["epsilon_effective"]) <= diag["K"]


def test_fptas_a_default_cap_full_grid(xor_prior, quad):
    # delta = 0.05 mandates K ~ 1.5e7; the default point cap runs the full
    # five-million-point grid and reports the weaker achievable guarantee
    report = fptas_a_const(xor_prior, quad, delta=0.05)
    diag = report.diagnostics
    assert diag["grid_points"] == 5_000_000
    assert diag["grid_capped"] and diag["K_target"] > diag["K"]
    assert report.bob_utility <= 1e-9
    assert 0.05 < diag["guarantee"] < 1.0


@pytest.mark.parametrize("na,cap", ((2, 1000), (3, 5000), (4, 100_000)))
def test_fptas_a_point_cap_runs_capped_grid(na, cap):
    # fptas-a builds no tableau: the point cap alone sizes an automatic K,
    # to the largest K whose grid fits it
    prior = random_prior(np.random.default_rng(5), ne=2, na=na, nb=2)
    report = fptas_a_const(prior, quadratic_score(), 0.01,
                           cap_grid_points=cap)
    diag = report.diagnostics
    assert diag["grid_capped"]
    assert diag["grid_points"] == count_k_uniform(na, diag["K"]) <= cap
    assert count_k_uniform(na, diag["K"] + 1) > cap


def test_one_part_grids_size_to_k_one(quad):
    # an automatic K for |E||B| = 1 (fptas-eb) and |A| = 1 (fptas-a): a
    # 1-part grid has one point at every K, so K = 1.  The time limit makes
    # a sizing search that never ends fail here instead of hanging the suite
    with time_limit(30):
        eb = fptas_eb_const(JointPrior(np.ones((1, 2, 1)) / 2), quad, 0.5)
        a = fptas_a_const(
            JointPrior(np.arange(1.0, 5.0).reshape(2, 1, 2) / 10), quad, 0.5)
    for diag in (eb.diagnostics, a.diagnostics):
        assert diag["K"] == 1 and diag["grid_points"] == 1
        assert diag["K_target"] == 0 and not diag["grid_capped"]
        assert diag["lp_duality_gap"] <= fptas.GRID_GAP_TOL


def test_fptas_a_one_alice_outcome_runs_the_envelope_lp(quad, logsc):
    # the one grid point is mu_A: the scheme reveals nothing, and the LP
    # value carries the same certificate as at any |A|
    rng = np.random.default_rng(17)
    for score in (quad, logsc) * 3:
        prior = random_prior(rng, ne=3, na=1, nb=2)
        report = fptas_a_const(prior, score, 0.1)
        diag = report.diagnostics
        assert (diag["K"], diag["grid_points"]) == (1, 1)
        assert report.scheme.signal_labels == ("w0",)
        assert report.scheme.pi == pytest.approx(np.ones((1, 1)))
        want = bob_utility_of_scheme(prior, score, no_reveal_scheme(prior))
        assert report.bob_utility == pytest.approx(want, abs=1e-15)
        assert diag["lp_objective"] == pytest.approx(want, abs=1e-12)
        assert diag["guarantee"] == \
            pytest.approx(4 * diag["L"] * diag["epsilon"] + 0.1)


def _largest_fitting_k(d, na, k_target, cap_points, cell_cap):
    """Every K in [1, max(K_target, 1)] tried in turn; None when none fits."""
    best = None
    for k in range(1, max(k_target, 1) + 1):
        n = count_k_uniform(d, k)
        if n <= cap_points and (cell_cap is None or
                                tableau_cells(n * na, 2 * d * n, na)
                                <= cell_cap):
            best = k
    return best


@pytest.mark.parametrize("d", range(1, 7))
def test_automatic_k_is_the_largest_k_that_fits(d):
    # _resolve_grid's bisection against a scan of every K up to K_target,
    # for fptas-a (no cell cap) and fptas-eb's tableau, on caps from ones
    # that refuse K = 1 to ones that hold K_target
    with time_limit(30):
        _check_sizing(d)


def _check_sizing(d):
    prior = random_prior(np.random.default_rng(3), ne=2, na=3, nb=2)
    na, quad = prior.n_alice, quadratic_score()

    def cells(n):
        return tableau_cells(n * na, 2 * d * n, na)

    for delta in (6.0, 30.0):
        _, diag = fptas._resolve_grid(prior, quad, delta, d, None, 10 ** 30)
        k_target = diag["K_target"]
        top = count_k_uniform(d, max(k_target, 1))
        for cap_points in (1, d - 1, d, count_k_uniform(d, 3),
                           count_k_uniform(d, max(k_target // 2, 1)) + 1,
                           top, 10 ** 30):
            for cell_cap in (None, cells(d) - 1, cells(d),
                             cells(count_k_uniform(d, 4)), cells(top)):
                want = _largest_fitting_k(d, na, k_target, cap_points,
                                          cell_cap)
                args = (prior, quad, delta, d, None, cap_points, cell_cap)
                if want is None:
                    n = count_k_uniform(d, 1)
                    message = f"tableau needs {cells(n)} cells" \
                        if cell_cap is not None and cells(n) > cell_cap \
                        else f"K-uniform grid has {n} points"
                    with pytest.raises(SizeCapExceeded, match=message):
                        fptas._resolve_grid(*args)
                    continue
                k, diag = fptas._resolve_grid(*args)
                assert k == diag["K"] == want
                assert diag["grid_capped"] == (k < k_target)
                # an explicit grid_k goes through the same test, the point
                # cap first
                assert fptas._resolve_grid(prior, quad, delta, d, want,
                                           cap_points, cell_cap)[0] == want
                if want < k_target:
                    n = count_k_uniform(d, want + 1)
                    message = f"tableau needs {cells(n)} cells" \
                        if n <= cap_points else f"grid_k={want + 1} exceeds"
                    with pytest.raises(SizeCapExceeded, match=message):
                        fptas._resolve_grid(prior, quad, delta, d, want + 1,
                                            cap_points, cell_cap)


def test_automatic_k_past_int64():
    # log scores at small delta ask for K_target > 2^63, past what a
    # range-based bisection can index
    prior = random_prior(np.random.default_rng(4), ne=2, na=2, nb=2)
    k, diag = fptas._resolve_grid(prior, log_score(), 0.05, 2, None,
                                  fptas.DEFAULT_GRID_CAP)
    assert diag["K_target"] > 2 ** 63
    assert k == fptas.DEFAULT_GRID_CAP - 1
    k, diag = fptas._resolve_grid(prior, log_score(), 0.05, 4, None,
                                  fptas.DEFAULT_GRID_CAP, lp.DEFAULT_CELL_CAP)
    assert diag["K_target"] > 2 ** 63
    # K fits, and no larger K up to 2K does
    assert _largest_fitting_k(4, 2, 2 * k, fptas.DEFAULT_GRID_CAP,
                              lp.DEFAULT_CELL_CAP) == k


def _refuse_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the cap check")

    monkeypatch.setattr(fptas, "enumerate_k_uniform", refuse)
    monkeypatch.setattr(_kernels, "ub_grid_wa", refuse)
    monkeypatch.setattr(_kernels, "ub_grid_veb", refuse)


@pytest.mark.parametrize("solver,na,grid_k,cells", (
    (fptas_eb_const, 2, 6, tableau_cells(2 * 84, 2 * 4 * 84, 2)),
))
def test_explicit_grid_k_over_cell_cap_fails_before_grid(monkeypatch, solver,
                                                         na, grid_k, cells):
    _refuse_grid(monkeypatch)
    prior = random_prior(np.random.default_rng(1), ne=2, na=na, nb=2)
    monkeypatch.setattr(lp, "DEFAULT_CELL_CAP", 10_000)
    with pytest.raises(SizeCapExceeded) as err:
        solver(prior, quadratic_score(), 0.05, grid_k=grid_k)
    assert err.value.required == cells
    assert str(err.value) == f"tableau needs {cells} cells, cap is 10000"


@pytest.mark.parametrize("na,grid_k", ((2, 10_000), (4, 40)))
def test_fptas_a_explicit_grid_k_over_point_cap_fails_before_grid(
        monkeypatch, na, grid_k):
    _refuse_grid(monkeypatch)
    prior = random_prior(np.random.default_rng(1), ne=2, na=na, nb=2)
    points = count_k_uniform(na, grid_k)
    with pytest.raises(SizeCapExceeded) as err:
        fptas_a_const(prior, quadratic_score(), 0.05, grid_k=grid_k,
                      cap_grid_points=points - 1)
    assert err.value.required == points
    assert str(err.value) == f"grid_k={grid_k} exceeds the point cap"


@pytest.mark.parametrize("solver", (fptas_a_const, fptas_eb_const))
@pytest.mark.parametrize("grid_k", (0, -1))
def test_explicit_grid_k_below_one_is_a_validation_error(monkeypatch, solver,
                                                         grid_k):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built for an invalid grid_k")

    monkeypatch.setattr(fptas, "enumerate_k_uniform", refuse)
    rng = np.random.default_rng(2)
    # |A| = 1 too: its grid has one point at every K, and the same check
    # refuses it before the grid is built
    for na in (2, 1):
        prior = random_prior(rng, ne=2, na=na, nb=2)
        with pytest.raises(ValidationError,
                           match=f"grid_k={grid_k} must be"):
            solver(prior, quadratic_score(), 0.05, grid_k=grid_k)


def test_fptas_a_builds_no_tableau(monkeypatch, quad):
    def refuse(*args, **kwargs):
        raise AssertionError("fptas-a ran the dense tableau")

    for module, name in ((lp, "solve_lp"), (fptas, "solve_lp"),
                         (_kernels, "simplex_iterate"), (_kernels, "pivot")):
        monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(8)
    for na, grid_k in ((2, 60), (3, 15), (4, 8)):
        prior = random_prior(rng, ne=2, na=na, nb=2)
        report = fptas_a_const(prior, quad, 0.05, grid_k=grid_k)
        assert report.scheme.violations(prior) == []


def test_fptas_a_memory_is_grid_plus_a_few_buffers(quad):
    # on a 10^6-point |A| = 2 grid the LP may add its 3-row pricing copy of
    # the grid and three more n-length buffers.  The dense tableau it
    # replaced held 4n cells next to a 3n-cell a_eq and their copies: 17n
    # floats at the peak.
    prior = random_prior(np.random.default_rng(7), ne=2, na=2, nb=2)
    fptas_a_const(prior, quad, 0.05, grid_k=9)
    n = 1_000_000
    tracemalloc.start()
    try:
        report = fptas_a_const(prior, quad, 0.05, grid_k=n - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.diagnostics["grid_points"] == n
    grid_and_ub = 3 * n * 8
    assert peak <= grid_and_ub + 6 * n * 8


@pytest.mark.parametrize("k", (999_999, fptas.DEFAULT_GRID_CAP - 1))
def test_fptas_a_segment_lp_memory_is_per_block(k):
    # the |A| = 2 segment LP holds each block it costs in its own array and
    # no array as long as the grid: under 4 MB at the peak, where one
    # length-K row of floats takes 8 MB at K = 999,999 and 40 MB at
    # 4,999,999
    prior = random_prior(np.random.default_rng(7), ne=3, na=2, nb=4)
    fptas_a_const(prior, log_score(), 0.05, grid_k=9)
    tracemalloc.start()
    try:
        report = fptas_a_const(prior, log_score(), 0.05, grid_k=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.diagnostics["grid_points"] == k + 1
    assert peak < 4_000_000


def _feasibility_residual(sol, points, mu):
    x = dense_x(sol, len(points))
    return max(np.abs(points.T @ x - mu).max(), abs(x.sum() - 1.0),
               max(0.0, -x.min()))


def _scale_x(sol, points, mu):
    moved = dataclasses.replace(sol, x_basis=sol.x_basis * (1.0 + 1e-6))
    return dataclasses.replace(
        moved, feasibility_residual=_feasibility_residual(moved, points, mu))


def _lower_dual(sol, points, mu):
    # every point sums to 1, so y - t keeps every reduced cost >= -tol and
    # moves the dual objective y.mu by t
    y = sol.dual_eq - 1e-6
    return dataclasses.replace(sol, dual_eq=y, duality_gap=abs(
        sol.objective - float(y @ mu)))


@pytest.mark.parametrize("perturb, message", (
    (_scale_x, "grid LP feasibility residual .* exceeds 1e-09"),
    (_lower_dual, "grid LP duality gap .* exceeds 1e-07"),
), ids=["feasibility", "gap"])
def test_fptas_a_certificate_gate(monkeypatch, xor_prior, quad, perturb,
                                  message):
    solve = fptas.solve_envelope

    def perturbed(costs, mu):
        sol = solve(costs, mu)
        points = costs[1]
        assert _feasibility_residual(sol, points, mu) <= \
            fptas.GRID_FEAS_TOL and sol.duality_gap <= fptas.GRID_GAP_TOL
        return perturb(sol, points, mu)

    monkeypatch.setattr(fptas, "solve_envelope", perturbed)
    with pytest.raises(NumericalFailure, match=message):
        fptas_a_const(xor_prior, quad, 0.5, grid_k=20)


def test_fptas_a_decomposition_is_bayes_plausible():
    rng = np.random.default_rng(43)
    for _ in range(5):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=3)
        report = fptas_a_const(prior, score, delta=0.2, grid_k=25)
        assert np.abs(report.scheme.pi.sum(axis=0) -
                      prior.marginal_alice()).max() <= 1e-8
        # each signal's induced posterior is its grid point; the lp
        # objective equals the mass-weighted u_B of those posteriors
        total = 0.0
        for s in report.scheme.signal_labels:
            mass = float(report.scheme.pi[report.scheme.signal_index(s)].sum())
            w = induced_posterior_over_A(report.scheme, s)
            assert np.abs(w * 25 - np.round(w * 25)).max() <= 1e-8
            total += mass * bob_utility_from_wA(prior, score, w)
        assert total == pytest.approx(report.diagnostics["lp_objective"],
                                      abs=1e-9)


def test_fptas_a_against_oracle():
    rng = np.random.default_rng(47)
    for _ in range(4):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=3)
        delta = 0.05
        report = fptas_a_const(prior, score, delta, cap_grid_points=20_000)
        oracle_report = oracle_optimal(prior, score, 0.02, 2)
        ne = prior.n_events
        alpha, beta, _ = score.resolved_holder(ne)
        eps = epsilon_for_delta(delta, prior.n_bob, score.resolved_bound(ne),
                                alpha, beta)
        bound = oracle_report.bob_utility + delta + \
            4 * score.resolved_bound(ne) * eps
        assert report.bob_utility <= bound + 1e-9


def test_fptas_grid_monotonicity(xor_prior, copy_prior, independent_prior,
                                 quad):
    for prior in (xor_prior, copy_prior, independent_prior):
        coarse = fptas_a_const(prior, quad, delta=0.05, grid_k=10)
        fine = fptas_a_const(prior, quad, delta=0.05, grid_k=20)
        assert fine.diagnostics["lp_objective"] <= \
            coarse.diagnostics["lp_objective"] + 1e-9


def test_fptas_a_three_alice_outcomes():
    rng = np.random.default_rng(107)
    prior = random_prior(rng, ne=2, na=3, nb=2)
    score = random_piecewise(rng, ne=2, k=3)
    report = fptas_a_const(prior, score, delta=0.1, grid_k=30)
    assert report.scheme.violations(prior) == []
    oracle_report = oracle_optimal(prior, score, grid_step=0.1, max_signals=3)
    # the grid solver searches all decompositions; the 3-signal oracle is a
    # coarser restriction of the same space
    assert report.bob_utility <= oracle_report.bob_utility + 1e-6


def test_fptas_eb_three_events(quad):
    rng = np.random.default_rng(109)
    prior = random_prior(rng, ne=3, na=2, nb=2)
    report = fptas_eb_const(prior, quad, delta=1.0)
    assert report.scheme.violations(prior) == []
    assert report.bob_utility >= -1e-9
    assert report.diagnostics["grid_points"] == \
        count_k_uniform(6, report.diagnostics["K"])


def test_fptas_a_log_lp_value_is_the_schemes_u_b(xor_prior, logsc):
    # the grid LP costs its points with the log rule's own G, the one
    # belief reports: its value is the returned scheme's u_B, also where
    # grid points on Delta_A's boundary give posteriors with zero entries
    report = fptas_a_const(xor_prior, logsc, delta=0.5, grid_k=40)
    assert report.bob_utility == pytest.approx(0.0, abs=1e-7)
    assert report.diagnostics["beta"] == 0.6  # niceness-derived default
    rng = np.random.default_rng(137)
    for na in (2, 3) * 3:
        base = random_prior(rng, ne=3, na=na, nb=2)
        p = base.p.copy()
        p[rng.random(p.shape) < 0.25] = 0.0
        for prior in (base, JointPrior(p / p.sum())):
            report = fptas_a_const(prior, logsc, 0.5, grid_k=30)
            assert abs(report.diagnostics["lp_objective"] -
                       report.bob_utility) <= 1e-12


def test_fptas_a_with_null_alice_outcome(quad):
    # grid points putting weight on the null outcome can never carry mass,
    # so the LP stays feasible and the scheme's dead column is zero
    p = np.zeros((2, 3, 2))
    p[0, 0, 0] = p[1, 0, 1] = 0.25
    p[0, 1, 1] = p[1, 1, 0] = 0.25
    prior = JointPrior(p)
    report = fptas_a_const(prior, quad, delta=0.2, grid_k=10)
    assert report.scheme.violations(prior) == []
    assert report.scheme.pi[:, 2] == pytest.approx(
        np.zeros(report.scheme.n_signals))
    assert report.bob_utility >= -1e-9


def test_fptas_a_requires_holder_for_spherical(xor_prior):
    with pytest.raises(ValidationError):
        fptas_a_const(xor_prior, spherical_score(), delta=0.1)
    report = fptas_a_const(
        xor_prior, spherical_score(holder=HolderParams(1.0, 1.0, 0.5)),
        delta=0.5)
    assert report.bob_utility >= -1e-9


def test_continuity_bound_quadratic(xor_prior, quad):
    # |u_B(w) - u_B(w')| <= 3|B| eps L + 3 alpha eps^(1-beta) for pairs
    # within eps^(1/beta)/2; (alpha, beta, L) = (2, 1, 1), eps = 0.01
    rng = np.random.default_rng(53)
    eps = 0.01
    bound = 3 * 2 * eps * 1.0 + 3 * 2.0 * eps ** 0.0 + 1e-9
    for _ in range(1000):
        w = rng.dirichlet((1.0, 1.0))
        step = rng.uniform(-1.0, 1.0) * (eps / 2) / 2
        w2 = w + np.array([step, -step])
        if (w2 < 0).any() or (w2 > 1).any():
            continue
        assert abs(w2 - w).sum() <= eps / 2 + 1e-12
        gap = abs(bob_utility_from_wA(xor_prior, quad, w) -
                  bob_utility_from_wA(xor_prior, quad, w2))
        assert gap <= bound


def test_sampling_decomposition_bound():
    # empirical K-sample distributions approximate w: mean unbiased, tail
    # fraction below eps + slack
    rng = np.random.default_rng(59)
    w = np.array([0.3, 0.7])
    eps = 0.5
    k = grid_size_K(2, eps)
    draws = sample_k_uniform(w, k, 10_000, rng)
    assert draws.shape == (10_000, 2)
    assert np.abs(draws * k - np.round(draws * k)).max() <= 1e-9
    grand_mean = draws.mean(axis=0)
    stderr = math.sqrt(w[0] * w[1] / (k * 10_000))
    assert np.abs(grand_mean - w).max() <= 3 * stderr + 1e-12
    frac = float((np.abs(draws - w).sum(axis=1) >= eps).mean())
    assert frac <= eps + 0.01


def test_fptas_eb_golden_instances(xor_prior, copy_prior, independent_prior,
                                   quad):
    # K = 8 puts the uniform joint point, the correlated points, and the
    # vertices on the grid; tight eta pins exact achievability
    report = fptas_eb_const(copy_prior, quad, delta=0.1, grid_k=8,
                            consistency_eta=1e-9)
    assert report.bob_utility == pytest.approx(0.0, abs=1e-7)
    assert report.diagnostics["lp_objective"] == pytest.approx(0.0, abs=1e-9)
    report = fptas_eb_const(xor_prior, quad, delta=0.1, grid_k=8,
                            consistency_eta=1e-9)
    assert report.bob_utility == pytest.approx(0.0, abs=1e-7)
    report = fptas_eb_const(independent_prior, quad, delta=0.1, grid_k=8)
    assert report.bob_utility == pytest.approx(0.0, abs=1e-7)


def test_fptas_eb_scheme_contract_and_bayes(copy_prior, quad):
    report = fptas_eb_const(copy_prior, quad, delta=0.1, grid_k=8,
                            consistency_eta=1e-9)
    scheme = report.scheme
    assert scheme.violations(copy_prior) == []
    grid = enumerate_k_uniform(4, 8)
    eta = report.diagnostics["eta"]
    mass = scheme.signal_masses()
    joint = np.zeros(4)
    for idx, label in enumerate(scheme.signal_labels):
        joint += mass[idx] * grid[int(label[1:])]
    mu_eb = copy_prior.p.sum(axis=1).reshape(-1)
    assert np.abs(joint - mu_eb).max() <= eta + 1e-8


def test_fptas_eb_eta_retry_success():
    # mu(e,b|a) sits exactly 1/(2K) off the K=5 grid for every a, so any
    # eta below 0.1 is infeasible and one doubling from 0.06 suffices
    q = np.array([0.3, 0.2, 0.1, 0.4]).reshape(2, 2)
    p = np.stack([0.5 * q, 0.5 * q], axis=1)
    prior = JointPrior(p)
    report = fptas_eb_const(prior, quadratic_score(), delta=0.5, grid_k=5,
                            consistency_eta=0.06)
    assert report.diagnostics["eta_retries"] == 1
    assert report.diagnostics["eta"] == pytest.approx(0.12)


def test_fptas_eb_eta_retry_exhaustion():
    q = np.array([0.3, 0.2, 0.1, 0.4]).reshape(2, 2)
    p = np.stack([0.5 * q, 0.5 * q], axis=1)
    prior = JointPrior(p)
    with pytest.raises(NumericalFailure):
        fptas_eb_const(prior, quadratic_score(), delta=0.5, grid_k=5,
                       consistency_eta=1e-9)


@pytest.mark.parametrize("field, tol, message", (
    ("feasibility_residual", fptas.GRID_FEAS_TOL,
     "grid LP feasibility residual .* exceeds 1e-09"),
    ("duality_gap", fptas.GRID_GAP_TOL, "grid LP duality gap .* exceeds 1e-07"),
), ids=["feasibility", "gap"])
def test_fptas_eb_certificate_gate(monkeypatch, xor_prior, quad, field, tol,
                                   message):
    solve = fptas.solve_lp

    def solve_with(value):
        def patched(*args, **kwargs):
            sol = solve(*args, **kwargs)
            assert sol.feasibility_residual <= fptas.GRID_FEAS_TOL and \
                sol.duality_gap <= fptas.GRID_GAP_TOL
            return dataclasses.replace(sol, **{field: value})
        monkeypatch.setattr(fptas, "solve_lp", patched)

    solve_with(tol)
    fptas_eb_const(xor_prior, quad, 0.5, grid_k=4)
    solve_with(2 * tol)
    with pytest.raises(NumericalFailure, match=message):
        fptas_eb_const(xor_prior, quad, 0.5, grid_k=4)


def test_fptas_eb_raises_when_phase_2_stops_early(monkeypatch, quad):
    # seed 1: the basis phase 1 leaves is not optimal for phase 2
    prior = random_prior(np.random.default_rng(1), ne=2, na=2, nb=2)
    assert fptas_eb_const(prior, quad, 0.5, grid_k=4).diagnostics[
        "lp_duality_gap"] <= fptas.GRID_GAP_TOL
    stop_simplex_early(monkeypatch, full_calls=1, pivots=0)
    with pytest.raises(NumericalFailure, match="grid LP duality gap"):
        fptas_eb_const(prior, quad, 0.5, grid_k=4)


@pytest.mark.parametrize("score", (quadratic_score(), log_score()),
                         ids=["beta-1", "beta-0.6"])
def test_continuity_modulus_diagnostics(score):
    # both diagnostics come from fptas._continuity_modulus; the formulas
    # are written out here in their original operation order
    prior = random_prior(np.random.default_rng(11), ne=2, na=2, nb=2)
    alpha, beta, _ = score.resolved_holder(2)
    L = score.resolved_bound(2)
    step_l1 = 2 * 0.1
    modulus = 3 * 2 * L * step_l1 + 3 * alpha * step_l1 ** (1.0 - beta) \
        if beta < 1.0 else (3 * 2 * L + 3 * alpha) * step_l1
    assert oracle_optimal(prior, score, 0.1).diagnostics["grid_modulus"] == \
        modulus
    report = fptas_eb_const(prior, score, 0.5, grid_k=3)
    slack = report.diagnostics["eta"] * 4
    if beta == 1.0:
        eta_term = (3 * 2 * L + 3 * alpha) * slack
    else:
        eta_term = 3 * 2 * L * slack + 3 * alpha * slack ** (1.0 - beta)
    _, grid_diag = fptas._resolve_grid(prior, score, 0.5, 4, 3,
                                       fptas.DEFAULT_GRID_CAP)
    assert report.diagnostics["guarantee"] == \
        grid_diag["guarantee"] + eta_term


def test_fptas_eb_default_eta(copy_prior, quad):
    report = fptas_eb_const(copy_prior, quad, delta=0.5, grid_k=8)
    assert report.diagnostics["eta"] == pytest.approx(0.25)
    assert report.bob_utility >= -1e-9


def test_fptas_eb_default_grid_path(xor_prior, quad):
    # no grid_k: K comes from the delta formula, capped by the LP cell cap
    report = fptas_eb_const(xor_prior, quad, delta=0.5)
    diag = report.diagnostics
    assert diag["grid_capped"]
    assert diag["eta"] == pytest.approx(2.0 / diag["K"])
    assert count_k_uniform(4, diag["K"]) == diag["grid_points"]
    assert report.bob_utility == pytest.approx(0.0, abs=1e-7)


def test_continuity_bound_veb_parameterization(quad):
    # the u_B(v) analog of the posterior-perturbation bound: pairs within
    # eps^(1/beta)/2 in l1 stay within 3|B| eps L + 3 alpha eps^(1-beta)
    rng = np.random.default_rng(97)
    eps = 0.01
    nb = 2
    bound = 3 * nb * eps * 1.0 + 3 * 2.0 * eps ** 0.0 + 1e-9
    checked = 0
    while checked < 1000:
        v = rng.dirichlet(np.ones(4))
        direction = rng.normal(size=4)
        direction -= direction.mean()
        norm = np.abs(direction).sum()
        v2 = v + direction / norm * rng.uniform(0, eps / 2)
        if (v2 < 0).any():
            continue
        gap = abs(bob_utility_from_vEB(quad, v.reshape(2, 2)) -
                  bob_utility_from_vEB(quad, v2.reshape(2, 2)))
        assert gap <= bound
        checked += 1


def test_support_cut_reads_zero_signal_mass_at_call_time(monkeypatch,
                                                        quad):
    # below every weight, fptas-eb's cut keeps each grid point as a signal
    # and fptas-a's each basic column, the LP's support: on a prior whose
    # mu_A is a vertex, one of the two carries weight 0
    prior = random_prior(np.random.default_rng(5), 2, 2, 2)
    p = prior.p.copy()
    p[:, 1, :] = 0.0
    vertex = JointPrior(p / p.sum())
    assert fptas_a_const(vertex, quad, 0.5, grid_k=20).scheme.n_signals == 1
    monkeypatch.setattr(core, "ZERO_SIGNAL_MASS", -1.0)
    assert fptas_a_const(vertex, quad, 0.5, grid_k=20).scheme.n_signals == 2
    report = fptas_eb_const(prior, quad, 0.5, grid_k=2)
    assert report.scheme.pi.shape[0] == report.diagnostics["grid_points"]


def test_bob_utility_from_vEB_flat_vector(quad):
    # v is taken as a matrix [e, b] only: its flat e-major form is refused
    corr = np.array([0.5, 0.0, 0.0, 0.5])
    assert bob_utility_from_vEB(quad, corr.reshape(2, 2)) == \
        pytest.approx(0.5)
    with pytest.raises(ValidationError, match="matrix"):
        bob_utility_from_vEB(quad, corr)


XOR_PRIOR = instances.xor_instance()[1]
EPS_RANGE = r"need L, alpha > 0, beta in \(0,1\], \|B\| >= 1"
FPTAS_REFUSALS = {
    "delta-zero": (lambda: epsilon_for_delta(0.0, 2, 1.0, 2.0, 1.0),
                   ValidationError, "delta=0.0 must be finite and positive"),
    "L-zero": (lambda: epsilon_for_delta(0.1, 2, 0.0, 2.0, 1.0),
               ValidationError, EPS_RANGE),
    "alpha-negative": (lambda: epsilon_for_delta(0.1, 2, 1.0, -2.0, 1.0),
                       ValidationError, EPS_RANGE),
    "beta-above-one": (lambda: epsilon_for_delta(0.1, 2, 1.0, 2.0, 1.5),
                       ValidationError, EPS_RANGE),
    "no-bob-outcome": (lambda: epsilon_for_delta(0.1, 0, 1.0, 2.0, 1.0),
                       ValidationError, EPS_RANGE),
    "no-posteriors": (lambda: scheme_from_posteriors(XOR_PRIOR, []),
                      ValidationError,
                      "need posteriors over A with matching dimension"),
    "posterior-width": (
        lambda: scheme_from_posteriors(XOR_PRIOR, [(1.0, [0.5, 0.25, 0.25])]),
        ValidationError, "need posteriors over A with matching dimension"),
    "ragged-posteriors": (
        lambda: scheme_from_posteriors(XOR_PRIOR, [(0.5, [1, 0]),
                                                   (0.5, [0, 1, 0])]),
        ValidationError, "need posteriors over A with matching dimension: "
        r"posterior 1 has shape \(3,\), not \(2,\)"),
    "weight-not-a-number": (
        lambda: scheme_from_posteriors(XOR_PRIOR, [("x", [1, 0]),
                                                   (0.5, [0, 1])]),
        ValidationError, r"posterior 0 is not a \(weight, posterior over A\) "
        "pair"),
    "scalar-posteriors": (
        lambda: scheme_from_posteriors(XOR_PRIOR, [(0.5, 1.0), (0.5, 0.0)]),
        ValidationError, "need posteriors over A with matching dimension: "
        r"posterior 0 has shape \(\), not \(2,\)"),
    "weights-sum": (
        lambda: scheme_from_posteriors(XOR_PRIOR, [(0.5, [1.0, 0.0]),
                                                   (0.4, [0.0, 1.0])]),
        BayesPlausibilityViolated, "weights sum to 0.9, not 1"),
    "negative-weight": (
        lambda: scheme_from_posteriors(XOR_PRIOR, [(1.5, [0.5, 0.5]),
                                                   (-0.5, [0.5, 0.5])]),
        BayesPlausibilityViolated, "weights sum to 1.0, not 1"),
}


@pytest.mark.parametrize("case", FPTAS_REFUSALS)
def test_fptas_refusals(case):
    make, error, match = FPTAS_REFUSALS[case]
    with pytest.raises(error, match=f"^{match}"):
        make()
