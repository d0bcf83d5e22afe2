"""Exact optimal-commitment solver for piecewise-linear G.

The revelation principle bounds the signal set: one signal per
recommendation profile (i_0, {i_b}_b), k^(|B|+1) signals in all.  The
obedience LP maximizes Alice's objective subject to every recommendation
being a best response, with marginal constraints tying pi to the prior.

For |A| = 2 each signal's obedience rows collapse exactly to an interval
for the induced posterior over A (every row is linear in one ratio), so
signals with empty intervals are dropped and only the two binding rows per
surviving signal are kept before pivoting.  This is lossless: discarded
rows are implied by the kept ones, and discarded signals are forced to
zero in every feasible point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import belief, scoring
from .core import Classification, JointPrior, Method, SignalingScheme, \
    SolveReport, marginals_and_conditionals, total_value, \
    full_reveal_scheme, no_reveal_scheme
from .errors import SizeCapExceeded, ValidationError
from .lp import DEFAULT_CELL_CAP, LinearProgram, LPStatus, check_cell_cap, \
    solve_lp, tableau_cells
from .scoring import DecisionProblem, ScoreKind, ScoreSpec

DEFAULT_LP_VAR_CAP = 2_000_000
CLASSIFY_TOL = 1e-7


@dataclass(frozen=True)
class RecommendationSignal:
    """A revelation-principle signal: action i0 up front, i_b once Bob
    reveals outcome b."""

    i0: int
    ib: tuple[int, ...]

    def label(self) -> str:
        return "-".join(str(i) for i in (self.i0, *self.ib))


def build_revelation_signals(k: int, bob_outcomes: int,
                             cap: int = DEFAULT_LP_VAR_CAP
                             ) -> list[RecommendationSignal]:
    """All k^(|B|+1) recommendation profiles in lexicographic order."""
    if k < 1 or bob_outcomes < 1:
        raise ValidationError("need k >= 1 actions and |B| >= 1 outcomes")
    count = k ** (bob_outcomes + 1)
    if count > cap:
        raise SizeCapExceeded(
            f"revelation signal set has {count} profiles, cap is {cap}",
            required=count)
    return [RecommendationSignal(prof[0], prof[1:])
            for prof in itertools.product(range(k), repeat=bob_outcomes + 1)]


def _obedience_blocks(prior: JointPrior, decision: DecisionProblem):
    """Per-alice-outcome coefficient tensors shared by LP rows and objective.

    unc[i, j, a] weights pi(s, a) in the row 'recommended i beats j' before
    Bob reveals; con[i, j, a, b] after Bob reveals b.  ue_a and ue_ab carry
    the objective weights.
    """
    t = marginals_and_conditionals(prior).zero_filled()
    u = decision.utilities                       # (k, ne)
    k = u.shape[0]
    ue_a = np.einsum("ie,ae->ia", u, t.e_given_a)           # (k, na)
    ue_ab = np.einsum("ie,abe,ab->iab", u, t.e_given_ab, t.b_given_a)
    unc = ue_a[:, None, :] - ue_a[None, :, :]               # (k, k, na)
    con = ue_ab[:, None, :, :] - ue_ab[None, :, :, :]       # (k, k, na, nb)
    return t, ue_a, ue_ab, unc, con


def build_obedience_lp(prior: JointPrior, decision: DecisionProblem,
                       signals: list[RecommendationSignal] | None = None,
                       cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                       keep_rows: list[np.ndarray] | None = None,
                       cell_cap: int = DEFAULT_CELL_CAP) -> LinearProgram:
    """Assemble the obedience LP over pi(s, a) for the given signal set.

    Row layout: k unconditional obedience rows per signal, then k*|B|
    conditional rows per signal (as >= 0, stored negated as <= 0), then the
    |A| marginal equalities.  ``keep_rows`` optionally restricts each
    signal's obedience rows to the given indices (used by the exact
    |A| = 2 reduction).
    """
    k = decision.n_actions
    na = prior.n_alice
    nb = prior.n_bob
    if signals is None:
        signals = build_revelation_signals(k, nb, cap_lp_vars)
    n_vars = len(signals) * na
    if n_vars > cap_lp_vars:
        raise SizeCapExceeded(
            f"obedience LP needs {n_vars} variables, cap is {cap_lp_vars}",
            required=n_vars)
    n_rows = len(signals) * (k + k * nb) if keep_rows is None else \
        sum(len(kr) for kr in keep_rows)
    # refuse before allocating: the solver's tableau is the largest array
    check_cell_cap(tableau_cells(n_vars, n_rows, na), cell_cap)
    t, ue_a, ue_ab, unc, con = _obedience_blocks(prior, decision)

    objective = np.empty(n_vars)
    blocks = []
    for si, sig in enumerate(signals):
        sig_rows = np.empty((k + k * nb, na))
        sig_rows[:k] = -unc[sig.i0]                      # -(rec - other) <= 0
        for b in range(nb):
            sig_rows[k + b * k:k + (b + 1) * k] = -con[sig.ib[b], :, :, b]
        if keep_rows is not None:
            sig_rows = sig_rows[keep_rows[si]]
        blocks.append(sig_rows)
        objective[si * na:(si + 1) * na] = \
            ue_a[sig.i0] - sum(ue_ab[sig.ib[b], :, b] for b in range(nb))

    total_rows = sum(b.shape[0] for b in blocks)
    a_ub = np.zeros((total_rows, n_vars))
    r = 0
    for si, block in enumerate(blocks):
        a_ub[r:r + block.shape[0], si * na:(si + 1) * na] = block
        r += block.shape[0]
    a_eq = np.zeros((na, n_vars))
    for a in range(na):
        a_eq[a, a::na] = 1.0
    return LinearProgram(objective, a_eq, t.mu_a, a_ub, np.zeros(total_rows))


def _feasible_intervals(signals: list[RecommendationSignal],
                        decision: DecisionProblem, unc, con,
                        tol: float = 1e-12):
    """For |A| = 2: per-signal posterior interval [lo, hi] over t = Pr(a0|s)
    plus the row indices attaining the bounds (k + k*|B| rows per signal,
    ordered as in build_obedience_lp)."""
    k = decision.n_actions
    nb = con.shape[3]
    out = []
    for sig in signals:
        rows = np.vstack([unc[sig.i0]] +
                         [con[sig.ib[b], :, :, b] for b in range(nb)])
        # row j: v0*t + v1*(1-t) >= 0 for t in [0, 1]
        v0 = rows[:, 0]
        v1 = rows[:, 1]
        slope = v0 - v1
        lo, lo_row, hi, hi_row = 0.0, -1, 1.0, -1
        empty = False
        for j in range(rows.shape[0]):
            if slope[j] > tol:
                bound = -v1[j] / slope[j]
                if bound > lo:
                    lo, lo_row = bound, j
            elif slope[j] < -tol:
                bound = -v1[j] / slope[j]
                if bound < hi:
                    hi, hi_row = bound, j
            elif v1[j] < -tol:
                empty = True
                break
        if empty or lo > hi + 1e-9:
            out.append(None)
        else:
            keep = [j for j in (lo_row, hi_row) if j >= 0]
            out.append((lo, hi, np.array(sorted(set(keep)), dtype=int)))
    return out


def solve_exact(prior: JointPrior, score: ScoreSpec,
                cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                cell_cap: int = DEFAULT_CELL_CAP) -> SolveReport:
    """Optimal commitment for piecewise-linear G via the obedience LP."""
    if score.kind is not ScoreKind.PIECEWISE:
        raise ValidationError(
            "solve_exact needs a piecewise-linear score; linearize first")
    decision = scoring.decision_problem_from_G(score)
    k = decision.n_actions
    na = prior.n_alice
    nb = prior.n_bob
    signals = build_revelation_signals(k, nb, max(cap_lp_vars // max(na, 1), 1))

    pruned = 0
    keep_rows = None
    if na == 2:
        _, _, _, unc, con = _obedience_blocks(prior, decision)
        intervals = _feasible_intervals(signals, decision, unc, con)
        kept = [s for s, iv in zip(signals, intervals) if iv is not None]
        keep_rows = [iv[2] for iv in intervals if iv is not None]
        pruned = len(signals) - len(kept)
        signals = kept
    lp = build_obedience_lp(prior, decision, signals, cap_lp_vars, keep_rows,
                            cell_cap)
    sol = solve_lp(lp, cell_cap)
    if sol.status is not LPStatus.OPTIMAL:
        raise ValidationError(f"obedience LP reported {sol.status.value}; "
                              "marginal constraints should always admit a scheme")

    pi = sol.x.reshape(len(signals), na)
    labels = [sig.label() for sig in signals]
    mass = pi.sum(axis=1)
    keep = mass > 1e-10
    scheme = SignalingScheme(tuple(l for l, m in zip(labels, keep) if m),
                             pi[keep])
    recs = [r for r, m in zip(signals, keep) if m]
    scheme, recs = merge_equivalent_signals(scheme, recs)

    bob = belief.bob_utility_of_scheme(prior, score, scheme)
    return SolveReport(
        scheme=scheme,
        sender_objective=-bob,
        bob_utility=bob,
        total_value_V=total_value(prior, score),
        classification=_classify_against_benchmarks(prior, score,
                                                    sol.objective),
        method=Method.EXACT,
        diagnostics={
            "lp_objective": sol.objective,
            "lp_vars": lp.n_vars,
            "lp_rows": lp.n_rows,
            "lp_iterations": sol.iterations,
            "lp_duality_gap": sol.duality_gap,
            "signals_pruned": pruned,
            "signals_kept": scheme.n_signals,
            "pieces": k,
            "max_obedience_violation": certify_obedience(
                prior, decision, scheme, recs),
        },
    )


def merge_equivalent_signals(scheme: SignalingScheme,
                             recommendations: list[RecommendationSignal]
                             ) -> tuple[SignalingScheme,
                                        list[RecommendationSignal]]:
    """Sum the columns of signals carrying identical recommendation profiles."""
    groups: dict[tuple, int] = {}
    rows = []
    labels = []
    recs = []
    for idx, rec in enumerate(recommendations):
        key = (rec.i0, rec.ib)
        if key in groups:
            rows[groups[key]] = rows[groups[key]] + scheme.pi[idx]
        else:
            groups[key] = len(rows)
            rows.append(scheme.pi[idx].copy())
            labels.append(scheme.signal_labels[idx])
            recs.append(rec)
    return SignalingScheme(tuple(labels), np.array(rows)), recs


def certify_obedience(prior: JointPrior, decision: DecisionProblem,
                      scheme: SignalingScheme,
                      recommendations: list[RecommendationSignal] | None = None,
                      mass_threshold: float = 1e-10) -> float:
    """Largest normalized obedience violation over positive-mass signals.

    For each signal the recommended action must maximize the expected
    utility under Pr(e|s), and each i_b under Pr(e|s,b).  When
    recommendations are not supplied, signal labels are decoded.
    """
    table = marginals_and_conditionals(prior)
    u = decision.utilities
    worst = 0.0
    for idx, label in enumerate(scheme.signal_labels):
        if scheme.pi[idx].sum() <= mass_threshold:
            continue
        if recommendations is not None:
            rec = recommendations[idx]
        else:
            parts = [int(x) for x in label.split("-")]
            rec = RecommendationSignal(parts[0], tuple(parts[1:]))
        p_s = belief.posterior_e_given_s(prior, scheme, label, table).weights
        vals = u @ p_s
        worst = max(worst, float(vals.max() - vals[rec.i0]))
        for b in range(prior.n_bob):
            row = scheme.pi[idx]
            if float(row @ np.nan_to_num(table.b_given_a[:, b])) <= mass_threshold:
                continue
            p_sb = belief.posterior_e_given_sb(prior, scheme, label, b,
                                               table).weights
            vals = u @ p_sb
            worst = max(worst, float(vals.max() - vals[rec.ib[b]]))
    return worst


def _classify_against_benchmarks(prior: JointPrior, score: ScoreSpec,
                                 optimum: float,
                                 tol: float = CLASSIFY_TOL) -> Classification:
    full = belief.sender_objective(prior, score, full_reveal_scheme(prior))
    none = belief.sender_objective(prior, score, no_reveal_scheme(prior))
    full_opt = abs(optimum - full) <= tol
    none_opt = abs(optimum - none) <= tol
    if full_opt and none_opt:
        return Classification.INDIFFERENT
    if full_opt:
        return Classification.SUBSTITUTES
    if none_opt:
        return Classification.COMPLEMENTS
    return Classification.NEITHER


def classify_substitutes(prior: JointPrior, score: ScoreSpec,
                         tangent_k: int = 20,
                         cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                         cell_cap: int = DEFAULT_CELL_CAP) -> SolveReport:
    """Classify the (A, B) signal pair; smooth scores are linearized first."""
    linearized = False
    if score.kind is not ScoreKind.PIECEWISE:
        grid = scoring.default_tangent_grid(score, prior.n_events, tangent_k)
        score = scoring.linearize_smooth(score, grid)
        linearized = True
    report = solve_exact(prior, score, cap_lp_vars, cell_cap)
    if linearized:
        report.diagnostics["linearized"] = True
        report.diagnostics["tangent_k"] = tangent_k
    return report
