"""Brute-force oracle and cross-belief market simulator.

The oracle exhaustively searches schemes whose columns split mu(a) in
fixed fractions of a step grid, giving an independent check of the LP
solvers at small sizes.  The simulator evaluates the market when Bob's
model of Alice's scheme differs from what she actually plays, and verifies
the deviation inequality chain that makes the commitment optimum an
equilibrium of the underlying market.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, belief, scoring
from .core import CheckReport, Classification, ConditionalTable, JointPrior, \
    Method, SignalingScheme, SolveReport, _value_terms, \
    marginals_and_conditionals, total_value
from .errors import PreconditionViolated, SizeCapExceeded, ValidationError, \
    check_count
from .fptas import _continuity_modulus
from .scoring import ScoreKind, ScoreSpec

DEFAULT_CANDIDATE_CAP = 10_000_000
DEVIATION_TOL = 1e-9


def oracle_optimal(prior: JointPrior, score: ScoreSpec, grid_step: float = 0.02,
                   max_signals: int = 2) -> SolveReport:
    """Exhaustive search over step-quantized schemes.

    Columns are pi(s, a) = f[s, a] * mu(a) with each fraction column f[:, a]
    a composition of 1 in multiples of grid_step.  The best scheme found is
    within the continuity modulus of one grid step of the true optimum
    (reported in diagnostics).  More than DEFAULT_CANDIDATE_CAP candidates
    raise SizeCapExceeded before the scan.
    """
    na, nb, ne = prior.n_alice, prior.n_bob, prior.n_events
    if not 0 < grid_step <= 1:
        raise ValidationError(f"grid_step={grid_step!r} must lie in (0, 1]")
    check_count("max_signals", max_signals)
    if na > 3 or max_signals > 3 or round(1.0 / grid_step) > 100:
        raise SizeCapExceeded(
            "oracle limits: |A| <= 3, max_signals <= 3, 1/grid_step <= 100")
    den = int(round(1.0 / grid_step))
    if abs(den * grid_step - 1.0) > 1e-9:
        raise ValidationError("grid_step must be the reciprocal of an integer")
    comps = _kernels.compositions(den, max_signals).astype(float) / den
    n_cand = comps.shape[0] ** na
    if n_cand > DEFAULT_CANDIDATE_CAP:
        raise SizeCapExceeded(f"oracle would scan {n_cand} candidates, cap "
                              f"is {DEFAULT_CANDIDATE_CAP}", required=n_cand)

    best_val, best_idx = _kernels.oracle_scan(
        comps, na, 0, n_cand, marginals_and_conditionals(prior), score)

    # candidate c gives alice outcome a the row (c // P**a) % P of comps
    digits = np.unravel_index(best_idx, (comps.shape[0],) * na)[::-1]
    frac = comps[list(digits)].T                            # (max_signals, na)
    pi = frac * prior.marginal_alice()[None, :]
    labels = tuple(f"s{j}" for j in range(max_signals))
    scheme = SignalingScheme(labels, pi).prune_zero_signals()

    bob = belief.bob_utility_of_scheme(prior, score, scheme)
    alpha, beta, _ = score.resolved_holder(ne)
    L = score.resolved_bound(ne)
    return SolveReport(
        scheme=scheme,
        bob_utility=bob,
        total_value_V=total_value(prior, score),
        classification=Classification.UNCLASSIFIED,
        method=Method.ORACLE,
        diagnostics={
            "candidates": n_cand,
            "grid_step": grid_step,
            "max_signals": max_signals,
            "scan_objective": best_val,
            "grid_modulus": _continuity_modulus(nb, L, alpha, beta,
                                                na * grid_step),
        },
    )


@dataclass(frozen=True)
class CrossBeliefPayoff:
    """Payoffs when Bob best-responds to a scheme Alice may not be using."""

    believed_scheme: SignalingScheme
    actual_scheme: SignalingScheme
    bob_utility: float
    alice_utility: float
    off_path_mass: float
    divergence_mass: float  # probability that Bob's report misses the truth


def _bob_reports(believed: SignalingScheme, labels,
                 table: ConditionalTable) -> tuple[np.ndarray, np.ndarray]:
    """Bob's reports (len(labels), |B|, |E|) and off-path flags: the believed
    Pr(e|s,b) on path, else Pr(e|b), the Pr(e|s,b) of the row mu(a)."""
    # row -2 is never sent (labels Bob does not know); row -1 sends mu(a)
    pi = np.vstack((believed.pi, np.zeros(believed.n_alice), table.mu_a))
    # a label given twice names its first row
    index = {s: i for i, s in reversed(tuple(
        enumerate(believed.signal_labels)))}
    rows = [index.get(s, -2) for s in labels]
    _, _, mass_b, numer_b = belief._posterior_terms(pi[rows + [-1]], table)
    posts = numer_b / np.where(mass_b > 0.0, mass_b, np.nan)[..., None]
    off = ~(mass_b[:-1] > 0.0)
    return np.where(off[..., None], posts[-1], posts[:-1]), off


def bob_report(prior: JointPrior, believed: SignalingScheme, s: str, b: int
               ) -> tuple[belief.PosteriorDistribution, bool]:
    """Bob's round-2 report on seeing (s, b) under his believed scheme.

    On-path pairs Bayes-update the believed scheme; off-path signals fall
    back to the prior marginal over A, i.e. the report becomes Pr(e|b).
    Returns (posterior, off_path_flag).
    """
    if not 0 <= b < prior.n_bob:
        raise ValidationError(
            f"bob outcome b={b} is out of range [0, {prior.n_bob})")
    t = marginals_and_conditionals(prior)
    reports, off = _bob_reports(believed, (s,), t)
    if off[0, b] and t.mu_b[b] <= 0.0:
        raise ValidationError(f"bob outcome {b} has zero prior probability")
    return (belief.PosteriorDistribution(belief.SupportKind.OVER_E,
                                         reports[0, b]), bool(off[0, b]))


def cross_belief_utilities(prior: JointPrior, score: ScoreSpec,
                           believed: SignalingScheme,
                           actual: SignalingScheme) -> CrossBeliefPayoff:
    """Expected utilities when Alice draws from ``actual`` while Bob
    Bayes-updates against ``believed``.

    Alice predicts the true posterior of her realized signal at round 1 and
    p_{A,B} at round 3 (she learns Bob's outcome after his report).
    """
    t = marginals_and_conditionals(prior)
    believed.validate(prior)
    e_s_term = belief._scheme_terms(prior, score, actual)[0]
    _, _, mass_b, numer_b = belief._posterior_terms(actual.pi, t)
    reports, off = _bob_reports(believed, actual.signal_labels, t)
    sent = mass_b > 0.0
    pair_mass = mass_b[sent]
    truth = numer_b[sent] / pair_mass[:, None]
    report = reports[sent]
    bob = float((pair_mass * scoring.expected_report_score(
        score, report, truth)).sum()) - e_s_term
    off_mass = float(pair_mass[off[sent]].sum())
    diverged = float(pair_mass[abs(report - truth).sum(axis=1) > 1e-9].sum())

    e_ab, g_prior = _value_terms(prior, score)
    # alice = [R(p_S) - R(p)] + [R(p_AB) - R(w_SB)]
    alice = (e_s_term - g_prior) + (e_ab - (bob + e_s_term))
    return CrossBeliefPayoff(believed, actual, bob, alice, off_mass, diverged)


def deviation_check(prior: JointPrior, score: ScoreSpec,
                    pi: SignalingScheme,
                    pi_star: SignalingScheme) -> CheckReport:
    """Verify u_B(pi; pi*) <= u_B(pi*; pi*) <= u_B(pi; pi), each to within
    DEVIATION_TOL.

    For strictly proper scores the first inequality must be strict whenever
    Bob's cross-belief reports differ from the true posteriors on a set of
    mass > 1e-6.  A piecewise-linear G is only weakly proper: a report in
    the truth's linear piece scores as well as the truth, so divergent
    reports may cost Bob nothing and the chain may hold with equality.
    Requires pi_star to be weakly better than pi for Alice.
    """
    if belief.sender_objective(prior, score, pi_star) < \
            belief.sender_objective(prior, score, pi) - 1e-12:
        raise PreconditionViolated(
            "pi_star must be weakly better than pi for Alice")
    cross = cross_belief_utilities(prior, score, pi, pi_star)
    star = cross_belief_utilities(prior, score, pi_star, pi_star)
    own = cross_belief_utilities(prior, score, pi, pi)
    chain = (cross.bob_utility <= star.bob_utility + DEVIATION_TOL and
             star.bob_utility <= own.bob_utility + DEVIATION_TOL)
    strict_needed = score.kind is not ScoreKind.PIECEWISE and \
        cross.divergence_mass > 1e-6
    strict_ok = (not strict_needed) or \
        (cross.bob_utility < star.bob_utility)
    details = {
        "u_b_cross": cross.bob_utility,
        "u_b_star": star.bob_utility,
        "u_b_own": own.bob_utility,
        "divergence_mass": cross.divergence_mass,
        "off_path_mass": cross.off_path_mass,
        "strict_required": strict_needed,
        "total_value_V": total_value(prior, score),
    }
    return CheckReport(passed=chain and strict_ok, details=details)
