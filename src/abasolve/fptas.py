"""Delta-optimal solvers over K-uniform posterior grids.

Two regimes: a grid over the simplex of posteriors on A (practical when
|A| is small) and a grid over the joint simplex on E x B (practical when
|E| and |B| are small).  Both pick epsilon from the target suboptimality
delta via the u_B continuity bound, size the grid so an empirical K-sample
approximation of any posterior stays within epsilon with probability
1 - epsilon, and solve one LP over the grid weights.

fptas-a's LP is the concavification LP over the grid, |A| rows wide.  It
goes through ``_envelope_lp``, the pipeline it shares with the exact
solver's LP over arrangement vertices: u_B at each point by
``_kernels.ub_grid_wa``, ``lp.solve_envelope``'s revised simplex, then the
status check and the certificate.  At |A| = 2 every posterior lies on one
segment; from ``_SEGMENT_MIN_POINTS`` points on no grid is built, and the
LP gets a ``_kernels.SegmentCost`` defined by K, whose points ascend along
the segment by construction.  It computes u_B only in the blocks that a
convexity bound cannot rule out (the proof is in
``_kernels._segment_tables``), with the same pivots and answer, and holds
no array as long as the grid.
fptas-eb's LP, with its per-grid-point achievability rows, runs on the
dense tableau of ``lp.solve_lp``.  Every
answer must pass a feasibility-residual and a duality-gap certificate.
The envelope LP costs its points with the score's own G, the G ``belief``
reports, so its value is the u_B of the scheme it returns; fptas-a and the
exact solver also check that, through ``_certified_bob``.

``_resolve_grid`` sizes both grids by one fit test: the point cap and, for
fptas-eb, the cell cap of the tableau it builds.  When the delta-mandated K
does not fit, the solver runs at the largest K that does and reports the
achievable (weaker) guarantee in diagnostics instead of refusing.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels, belief, core, lp
from .core import Classification, JointPrior, Method, SignalingScheme, \
    SolveReport, marginals_and_conditionals, total_value
from .errors import BayesPlausibilityViolated, NumericalFailure, \
    SizeCapExceeded, ValidationError, check_count
from .lp import LinearProgram, LPSolution, LPStatus, check_cell_cap, \
    solve_envelope, solve_lp, tableau_cells
from .scoring import ScoreSpec

DEFAULT_GRID_CAP = 5_000_000
EPS_CEILING = 0.49  # grid_size_K needs eps < 1; beyond this the grid is tiny anyway
# certificate bounds on the solutions of both grid LPs and of the exact
# solver's vertex LP: feasibility residual (see lp.solve_envelope and
# lp.solve_lp) and duality gap
GRID_FEAS_TOL = 1e-9
GRID_GAP_TOL = 1e-7
# fptas-a's |A| = 2 grids of at least this many points go to the LP as a
# ``_kernels.SegmentCost``.  On one BLAS thread, u_B plus the LP took 1.7x
# as long as costing every point at 8,000 points, 1.2x at 16,000, 0.97x
# at 24,000, 0.82x at 32,000 and 0.65x at 49,000
_SEGMENT_MIN_POINTS = 32 * 1024


def _check_args(delta: float, grid_k: int | None = None,
                cap_grid_points: int | None = None) -> None:
    if not 0 < delta < math.inf:
        raise ValidationError(f"delta={delta!r} must be finite and positive")
    if grid_k is not None:
        check_count("grid_k", grid_k)
    if cap_grid_points is not None:
        check_count("cap_grid_points", cap_grid_points)


def epsilon_for_delta(delta: float, n_bob: int, L: float, alpha: float,
                      beta: float) -> float:
    """Posterior-perturbation radius that keeps u_B within delta.

    beta < 1: min of the two branch values 0.5*(delta/(6|B|L))^(1/beta) and
    0.5*(delta/(6 alpha))^(1/(beta(1-beta))).  At beta = 1 the second
    exponent diverges; the branch is dropped and its alpha term absorbed by
    inflating the first denominator to 6|B|L + 6 alpha, which re-derives
    the same continuity bound for Lipschitz G.
    """
    _check_args(delta)
    if L <= 0 or alpha <= 0 or not (0 < beta <= 1) or n_bob < 1:
        raise ValidationError("need L, alpha > 0, beta in (0,1], |B| >= 1")
    if beta == 1.0:
        return 0.5 * delta / (6.0 * n_bob * L + 6.0 * alpha)
    first = 0.5 * (delta / (6.0 * n_bob * L)) ** (1.0 / beta)
    second = 0.5 * (delta / (6.0 * alpha)) ** (1.0 / (beta * (1.0 - beta)))
    return min(first, second)


def grid_size_K(d: int, epsilon: float) -> int:
    """K >= log(2d/eps) d^2 / (2 eps^2), the K-sample approximation bound."""
    if d < 2:
        raise ValidationError("grid dimension must be at least 2")
    if not (0 < epsilon < 1):
        raise ValidationError("epsilon must lie in (0, 1)")
    return int(math.ceil(math.log(2.0 * d / epsilon) * d * d /
                         (2.0 * epsilon * epsilon)))


def count_k_uniform(d: int, k: int) -> int:
    return math.comb(k + d - 1, d - 1)


def enumerate_k_uniform(d: int, k: int,
                        cap_points: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """All K-uniform points of the (d-1)-simplex, lexicographic, as rows."""
    if d < 1 or k < 1:
        raise ValidationError(f"need d >= 1 and K >= 1, got d={d}, K={k}")
    count = count_k_uniform(d, k)
    if count > cap_points:
        raise SizeCapExceeded(
            f"K-uniform grid has {count} points, cap is {cap_points}",
            required=count)
    return _kernels.compositions(k, d).astype(float) / k


def sample_k_uniform(w: np.ndarray, k: int, n_samples: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Empirical distributions of K draws from w (each row is K-uniform)."""
    w = np.asarray(w, dtype=float)
    return rng.multinomial(k, w, size=n_samples) / k


def _epsilon_for_grid(d: int, k: int) -> float:
    """Smallest epsilon whose grid_size_K fits within k (bisection).

    grid_size_K is decreasing in epsilon, so the achievable set is an
    up-interval; its left endpoint is the best guarantee k supports.
    """
    lo, hi = 1e-9, EPS_CEILING
    if grid_size_K(d, hi) > k:
        return hi  # even the coarsest grid is out of reach
    if grid_size_K(d, lo) <= k:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if grid_size_K(d, mid) <= k:
            hi = mid
        else:
            lo = mid
    return hi


def _delta_for_epsilon(eps: float, n_bob: int, L: float, alpha: float,
                       beta: float) -> float:
    """Smallest delta whose epsilon_for_delta reaches eps (inverse formula)."""
    if beta == 1.0:
        return 2.0 * eps * (6.0 * n_bob * L + 6.0 * alpha)
    return max(6.0 * n_bob * L * (2.0 * eps) ** beta,
               6.0 * alpha * (2.0 * eps) ** (beta * (1.0 - beta)))


def _continuity_modulus(n_bob: int, L: float, alpha: float, beta: float,
                        x: float) -> float:
    """3|B|L x + 3 alpha x^(1-beta): how far u_B can move when the
    posteriors move by x in l1 (for beta = 1 the two terms share x)."""
    if beta == 1.0:
        return (3 * n_bob * L + 3 * alpha) * x
    return 3 * n_bob * L * x + 3 * alpha * x ** (1.0 - beta)


def _resolve_grid(prior: JointPrior, score: ScoreSpec, delta: float, d: int,
                  grid_k: int | None, cap_points: int,
                  cell_cap: int | None = None) -> tuple[int, dict]:
    """Pick K and the guarantee it supports; return (K, diagnostics).

    K fits when its n grid points are within ``cap_points`` and, given a
    ``cell_cap``, so is fptas-eb's tableau ``tableau_cells(n |A|, 2dn, |A|)``.
    An automatic K is the largest in [1, K_target] that fits (K_target can
    pass 2^63).  An explicit ``grid_k`` (at least 1, as ``_check_args``
    checks) that does not fit raises SizeCapExceeded, before the grid is
    built; so does K = 1 when it does not."""
    ne, na = prior.n_events, prior.n_alice
    alpha, beta, _ = score.resolved_holder(ne)
    L = score.resolved_bound(ne)
    eps = epsilon_for_delta(delta, prior.n_bob, L, alpha, beta)
    eps_used = min(eps, EPS_CEILING)
    k_target = grid_size_K(d, eps_used) if d >= 2 else 0

    def sizes(k):  # grid points, and the cells of fptas-eb's tableau
        n = count_k_uniform(d, k)
        return n, tableau_cells(n * na, 2 * d * n, na)

    def fits(k):
        n, cells = sizes(k)
        return n <= cap_points and (cell_cap is None or cells <= cell_cap)

    k, hi = (1, max(k_target, 1)) if grid_k is None else (grid_k, grid_k)
    while k < hi:  # fits is monotone: bisect over Python ints
        mid = (k + hi + 1) // 2
        if fits(mid):
            k = mid
        else:
            hi = mid - 1
    if not fits(k):
        n, cells = sizes(k)
        if grid_k is not None and n > cap_points:
            raise SizeCapExceeded(f"grid_k={k} exceeds the point cap",
                                  required=n)
        if cell_cap is not None:
            check_cell_cap(cells, cell_cap)
        raise SizeCapExceeded(
            f"K-uniform grid has {n} points, cap is {cap_points}", required=n)
    capped = k < k_target
    eps_eff = _epsilon_for_grid(d, k) if capped else eps_used
    guarantee = 4.0 * L * eps_eff + \
        (_delta_for_epsilon(eps_eff, prior.n_bob, L, alpha, beta)
         if capped else delta)
    diag = {
        "delta": delta,
        "epsilon": eps,
        "epsilon_effective": eps_eff,
        "K": k,
        "K_target": k_target,
        "grid_capped": capped,
        "guarantee": guarantee,
        "alpha": alpha,
        "beta": beta,
        "L": L,
    }
    return k, diag


def scheme_from_posteriors(prior: JointPrior, posteriors) -> SignalingScheme:
    """Turn a Bayes-plausible posterior decomposition into a scheme.

    ``posteriors`` is a sequence of (weight, posterior-over-A) pairs with
    weights summing to 1 and weighted posteriors averaging to mu(a);
    pi(s_j, a) = weight_j * w_j[a].  Each posterior must be nonnegative and
    sum to 1, and both sums and the mean to within SCHEME_MARGINAL_ATOL.
    """
    atol = core.SCHEME_MARGINAL_ATOL
    lams = np.array([float(p[0]) for p in posteriors])
    ws = np.array([np.asarray(getattr(p[1], "weights", p[1]), dtype=float)
                   for p in posteriors])
    if lams.size == 0 or ws.shape[1] != prior.n_alice:
        raise ValidationError("need posteriors over A with matching dimension")
    bad = (ws < 0.0).any(axis=1) | (np.abs(ws.sum(axis=1) - 1.0) > atol)
    if bad.any():
        raise ValidationError(f"posterior {int(np.argmax(bad))} is not a "
                              "distribution over A")
    if (lams < -1e-12).any() or abs(float(lams.sum()) - 1.0) > atol:
        raise BayesPlausibilityViolated(
            f"weights sum to {float(lams.sum())!r}, not 1",
            residual=np.array([float(lams.sum()) - 1.0]))
    resid = lams @ ws - prior.marginal_alice()
    if np.abs(resid).max() > atol:
        raise BayesPlausibilityViolated(
            f"posterior mean misses the prior marginal by "
            f"{float(np.abs(resid).max())!r}", residual=resid)
    labels = tuple(f"w{j}" for j in range(lams.size))
    return SignalingScheme(labels, lams[:, None] * ws)


def _certify_lp(sol: LPSolution, name: str) -> None:
    """Raise NumericalFailure unless an optimal LP solution's feasibility
    residual and duality gap are within GRID_FEAS_TOL and GRID_GAP_TOL."""
    if not sol.feasibility_residual <= GRID_FEAS_TOL:
        raise NumericalFailure(
            f"{name} LP feasibility residual {sol.feasibility_residual!r} "
            f"exceeds {GRID_FEAS_TOL!r}")
    if not sol.duality_gap <= GRID_GAP_TOL:
        raise NumericalFailure(f"{name} LP duality gap {sol.duality_gap!r} "
                               f"exceeds {GRID_GAP_TOL!r}")


def _envelope_lp(mu: np.ndarray, costs, name: str) -> LPSolution:
    """``solve_envelope(costs, mu)``, checked optimal and certified;
    ``name`` labels the LP in the NumericalFailure messages."""
    sol = solve_envelope(costs, mu)
    if sol.status is not LPStatus.OPTIMAL:
        raise NumericalFailure(f"{name} LP reported {sol.status.value}; the "
                               f"prior marginal always lies in the {name} "
                               "hull")
    _certify_lp(sol, name)
    return sol


def _certified_bob(prior: JointPrior, score: ScoreSpec,
                   scheme: SignalingScheme, sol: LPSolution,
                   name: str) -> float:
    """u_B of ``scheme`` by ``belief``, the scheme read off the envelope LP
    solution ``sol``.  Both cost a posterior with the score's own G, so the
    LP value is the scheme's u_B; raise NumericalFailure when the two
    differ by more than GRID_GAP_TOL."""
    bob = belief.bob_utility_of_scheme(prior, score, scheme)
    if not abs(sol.objective - bob) <= GRID_GAP_TOL:
        raise NumericalFailure(
            f"{name} LP value {-sol.objective!r} and the scheme's sender "
            f"objective {-bob!r} differ by more than {GRID_GAP_TOL!r}")
    return bob


def fptas_a_const(prior: JointPrior, score: ScoreSpec, delta: float,
                  grid_k: int | None = None,
                  cap_grid_points: int = DEFAULT_GRID_CAP) -> SolveReport:
    """Minimize Bob's utility over schemes with K-uniform posteriors on A.

    The grid LP -- weights on the grid points averaging to mu(a), at least
    cost in u_B -- goes to ``lp.solve_envelope``; a feasibility residual
    above GRID_FEAS_TOL, a duality gap above GRID_GAP_TOL, or an LP value
    more than GRID_GAP_TOL from the returned scheme's u_B raises
    NumericalFailure.  It builds no tableau, so ``cap_grid_points`` alone
    sizes and refuses K, also at |A| = 1 (one grid point, mu_A, at K = 1).
    At |A| = 2 from ``_SEGMENT_MIN_POINTS`` points on it builds no grid
    either: the memory is O(K / 1,024) plus the blocks the LP costs, and
    the cap bounds K and the time.  The scheme's signals are the basic
    columns of weight above ``core.ZERO_SIGNAL_MASS``, ascending.
    """
    _check_args(delta, grid_k, cap_grid_points)
    na = prior.n_alice
    k, diag = _resolve_grid(prior, score, delta, na, grid_k, cap_grid_points)
    table = marginals_and_conditionals(prior)
    segment = na == 2 and k + 1 >= _SEGMENT_MIN_POINTS
    if segment:
        costs = _kernels.SegmentCost(k, table, score)
    else:
        grid = enumerate_k_uniform(na, k, cap_grid_points)
        costs = (_kernels.ub_grid_wa(grid, table, score), grid)
    sol = _envelope_lp(table.mu_a, costs, "grid")

    support, weights = sol.support(core.ZERO_SIGNAL_MASS)
    rows = _kernels.segment_rows(k, support) if segment else grid[support]
    scheme = scheme_from_posteriors(prior, list(zip(weights, rows)))
    bob = _certified_bob(prior, score, scheme, sol, "grid")
    diag.update({
        "grid_points": count_k_uniform(na, k),
        "lp_objective": sol.objective,
        "lp_iterations": sol.iterations,
        "lp_duality_gap": sol.duality_gap,
    })
    return SolveReport(scheme, bob, total_value(prior, score),
                       Classification.UNCLASSIFIED, Method.FPTAS_A, diag)


def fptas_eb_const(prior: JointPrior, score: ScoreSpec, delta: float,
                   consistency_eta: float | None = None,
                   grid_k: int | None = None,
                   cap_grid_points: int = DEFAULT_GRID_CAP) -> SolveReport:
    """Minimize Bob's utility over K-uniform joint posteriors on E x B.

    Variables pi(v, a) >= 0 carry marginal constraints sum_v pi(v,a) = mu(a)
    and eta-relaxed per-grid-point achievability constraints
    |sum_a (mu(e,b|a) - v_eb) pi(v,a)| <= eta * sum_a pi(v,a): Alice can only
    induce posteriors in the convex hull of {mu(.,.|a)}_a, which the plain
    Bayes constraint does not enforce.  Infeasibility (possible only for
    user-supplied eta below the rounding slack) retries with eta doubled,
    up to 4 times.  A feasibility residual above GRID_FEAS_TOL or a duality
    gap above GRID_GAP_TOL raises NumericalFailure.  An automatic K fits
    ``cap_grid_points`` and, in tableau cells, ``lp.DEFAULT_CELL_CAP``; an
    explicit ``grid_k`` over either is refused before the grid is built.
    """
    if consistency_eta is not None and not 0 < consistency_eta < math.inf:
        raise ValidationError(f"consistency_eta={consistency_eta!r} must be "
                              "finite and positive")
    _check_args(delta, grid_k, cap_grid_points)
    ne, na, nb = prior.n_events, prior.n_alice, prior.n_bob
    d = ne * nb
    table = marginals_and_conditionals(prior)
    k, diag = _resolve_grid(prior, score, delta, d, grid_k, cap_grid_points,
                            lp.DEFAULT_CELL_CAP)
    grid = enumerate_k_uniform(d, k, cap_grid_points)
    n = grid.shape[0]
    ub = _kernels.ub_grid_veb(grid, ne, nb, score)

    # mu(e,b|a) flattened e-major to match grid columns
    meb_a = np.transpose(table.eb_given_a, (1, 2, 0)).reshape(d, na)
    n_vars = n * na
    objective = np.repeat(-ub, na)
    a_eq = np.zeros((na, n_vars))
    for a in range(na):
        a_eq[a, a::na] = 1.0

    dev = meb_a[None, :, :] - grid[:, :, None]      # (n, d, na)
    eta = consistency_eta if consistency_eta is not None else 2.0 / k
    retries = 0
    while True:
        # grid point v owns rows [2dv, 2d(v+1)) and columns [v na, (v+1) na)
        a_ub = np.zeros((2 * d * n, n_vars))
        blocks = a_ub.reshape(n, 2 * d, n, na)
        v = np.arange(n)
        blocks[v, :, v, :] = np.concatenate((dev - eta, -dev - eta), axis=1)
        sol = solve_lp(LinearProgram(objective, a_eq, table.mu_a, a_ub,
                                     np.zeros(2 * d * n)))
        if sol.status is LPStatus.OPTIMAL:
            break
        if retries >= 4:
            raise NumericalFailure(
                f"achievability LP stayed {sol.status.value} after "
                f"{retries} eta doublings")
        eta *= 2.0
        retries += 1

    _certify_lp(sol, "grid")

    x = sol.x.reshape(n, na)
    mass = x.sum(axis=1)
    keep = np.nonzero(mass > core.ZERO_SIGNAL_MASS)[0]
    scheme = SignalingScheme(tuple(f"v{int(j)}" for j in keep), x[keep])
    bob = belief.bob_utility_of_scheme(prior, score, scheme)
    alpha, beta, L = diag["alpha"], diag["beta"], diag["L"]
    eta_term = _continuity_modulus(nb, L, alpha, beta, eta * d)
    diag.update({
        "grid_points": n,
        "eta": eta,
        "eta_retries": retries,
        "lp_objective": -sol.objective,
        "lp_iterations": sol.iterations,
        "lp_duality_gap": sol.duality_gap,
        "guarantee": diag["guarantee"] + eta_term,
    })
    return SolveReport(scheme, bob, total_value(prior, score),
                       Classification.UNCLASSIFIED, Method.FPTAS_EB, diag)
