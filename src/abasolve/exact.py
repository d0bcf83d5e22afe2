"""Exact optimal-commitment solver for piecewise-linear G.

The revelation principle bounds the signal set: one signal per
recommendation profile (i_0, i_1, ..., i_|B|), the action recommended
before Bob reveals and the one recommended after he reveals each b.  The
profiles are enumerated once, as the rows of a (k^(|B|+1), 1+|B|) int
array, and then filtered; that array is the signal set from the LP to the
scheme's labels.  The obedience LP maximizes Alice's objective subject to
every recommendation being a best response, with marginal constraints
tying pi to the prior.

For |A| = 2 each obedience row is linear in the induced posterior
t = Pr(a0|s), so it bounds t from one side, and a signal's feasible t form
an interval.  A signal's rows come in |B|+1 components: the rows of its
recommendation i_0 before Bob reveals, then those of i_b after he reveals
b.  Each component's interval is computed once per recommended action,
and each profile's interval is their intersection, looked up by the
profile's columns.  Only profiles with nonempty intervals are kept, and
only the (at most two) rows binding each one's interval go to the LP.
This is lossless: discarded rows are implied by the kept ones, and
discarded signals are forced to zero in every feasible point.

Every result certifies itself: an LP duality gap above ``LP_GAP_TOL`` or
an obedience residual above ``OBEDIENCE_TOL`` raises ``NumericalFailure``
instead of returning the report.
"""

from __future__ import annotations

import numpy as np

from . import belief, scoring
from .core import Classification, ConditionalTable, JointPrior, Method, \
    SignalingScheme, SolveReport, marginals_and_conditionals, total_value, \
    full_reveal_scheme, no_reveal_scheme
from .errors import NumericalFailure, SizeCapExceeded, ValidationError
from .lp import DEFAULT_CELL_CAP, LinearProgram, LPStatus, check_cell_cap, \
    solve_lp, tableau_cells
from .scoring import DecisionProblem, ScoreKind, ScoreSpec

DEFAULT_LP_VAR_CAP = 2_000_000
CLASSIFY_TOL = 1e-7
LP_GAP_TOL = 1e-7
OBEDIENCE_TOL = 1e-7


def build_revelation_signals(k: int, bob_outcomes: int,
                             cap: int = DEFAULT_LP_VAR_CAP) -> np.ndarray:
    """All k^(|B|+1) recommendation profiles as the rows of an int array,
    in lexicographic order; refused above ``cap`` before any is built."""
    if k < 1 or bob_outcomes < 1:
        raise ValidationError("need k >= 1 actions and |B| >= 1 outcomes")
    count = k ** (bob_outcomes + 1)
    if count > cap:
        raise SizeCapExceeded(
            f"revelation signal set has {count} profiles, cap is {cap}",
            required=count)
    return np.indices((k,) * (bob_outcomes + 1)).reshape(bob_outcomes + 1,
                                                         count).T


def _obedience_blocks(table: ConditionalTable, decision: DecisionProblem):
    """Per-alice-outcome coefficient tensors shared by LP rows and objective.

    unc[i, j, a] weights pi(s, a) in the row 'recommended i beats j' before
    Bob reveals; con[i, j, a, b] after Bob reveals b.  ue_a and ue_ab carry
    the objective weights.
    """
    t = table.zero_filled()
    u = decision.utilities                       # (k, ne)
    k = u.shape[0]
    ue_a = np.einsum("ie,ae->ia", u, t.e_given_a)           # (k, na)
    ue_ab = np.einsum("ie,abe,ab->iab", u, t.e_given_ab, t.b_given_a)
    unc = ue_a[:, None, :] - ue_a[None, :, :]               # (k, k, na)
    con = ue_ab[:, None, :, :] - ue_ab[None, :, :, :]       # (k, k, na, nb)
    return ue_a, ue_ab, unc, con


def _components(unc: np.ndarray, con: np.ndarray) -> np.ndarray:
    """unc and con stacked by profile column: (1+|B|, k, k, |A|), component
    0 before Bob reveals, component 1+b after he reveals b."""
    return np.concatenate((unc[None], np.moveaxis(con, 3, 0)))


def build_obedience_lp(prior: JointPrior, decision: DecisionProblem,
                       signals: np.ndarray | None = None,
                       cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                       keep_rows: np.ndarray | None = None,
                       cell_cap: int = DEFAULT_CELL_CAP, *,
                       _blocks: tuple | None = None) -> LinearProgram:
    """Assemble the obedience LP over pi(s, a) for the given profile rows.

    Row layout: per signal, the k obedience rows of its component 0, then
    the k rows of each component 1+b (as >= 0, stored negated as <= 0);
    then the |A| marginal equalities.  ``keep_rows``, a boolean
    (signals, k(1+|B|)) mask, optionally restricts each signal's obedience
    rows (used by the exact |A| = 2 reduction).  ``_blocks`` takes
    ``_obedience_blocks(table, decision)`` from a caller that already has
    them (``solve_exact`` at |A| = 2), so they are not computed twice.
    """
    k = decision.n_actions
    na = prior.n_alice
    nb = prior.n_bob
    if signals is None:
        signals = build_revelation_signals(k, nb, cap_lp_vars)
    n_signals = signals.shape[0]
    n_vars = n_signals * na
    if n_vars > cap_lp_vars:
        raise SizeCapExceeded(
            f"obedience LP needs {n_vars} variables, cap is {cap_lp_vars}",
            required=n_vars)
    n_rows = n_signals * (k + k * nb) if keep_rows is None else \
        int(np.count_nonzero(keep_rows))
    # refuse before allocating: the solver's tableau is the largest array
    check_cell_cap(tableau_cells(n_vars, n_rows, na), cell_cap)
    table = marginals_and_conditionals(prior)
    if _blocks is None:
        _blocks = _obedience_blocks(table, decision)
    ue_a, ue_ab, unc, con = _blocks

    objective = (ue_a[signals[:, 0]] - sum(ue_ab[signals[:, 1 + b], :, b]
                                           for b in range(nb))).ravel()
    if keep_rows is None:
        keep_rows = np.ones((n_signals, k + k * nb), dtype=bool)
    sig, row = np.nonzero(keep_rows)
    comp, j = np.divmod(row, k)
    a_ub = np.zeros((n_rows, n_vars))
    a_ub[np.arange(n_rows)[:, None], sig[:, None] * na + np.arange(na)] = \
        -_components(unc, con)[comp, signals[sig, comp], j]
    return LinearProgram(objective, np.tile(np.eye(na), n_signals),
                         table.mu_a, a_ub, np.zeros(n_rows))


def _feasible_signals(unc: np.ndarray, con: np.ndarray, profiles: np.ndarray,
                      tol: float = 1e-12):
    """For |A| = 2: the profiles whose posterior interval is nonempty.

    Row j of a signal's component c is numbered c*k + j, as in
    build_obedience_lp: component 0 holds unc[i_0], component 1+b holds
    con[i_b, :, :, b].  A row v0*t + v1*(1-t) >= 0 bounds t = Pr(a0|s)
    from below when its slope v0 - v1 exceeds tol, from above when the
    slope is below -tol, and excludes every t when it is flat with
    v1 < -tol.  Each component's tightest bounds (first row on ties) are
    found once per recommended action; a scan over the components then
    keeps, per profile, the first bound that is strictly tighter than
    [0, 1] and than the earlier components'.

    Returns the indices of the surviving profiles, their interval ends
    ``lo`` and ``hi``, and a boolean (survivors, k(1+|B|)) mask of the
    rows attaining them.
    """
    k = unc.shape[0]
    comps = _components(unc, con)                          # (C, k, k, 2)
    n_comp = comps.shape[0]
    v0, v1 = comps[..., 0], comps[..., 1]
    slope = v0 - v1
    rises, falls = slope > tol, slope < -tol
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -v1 / slope
    lo_cand = np.where(rises, bound, -np.inf)
    hi_cand = np.where(falls, bound, np.inf)
    first_row = np.arange(n_comp)[:, None] * k
    per_action = (lo_cand.max(axis=2), hi_cand.min(axis=2),      # (C, k)
                  first_row + lo_cand.argmax(axis=2),
                  first_row + hi_cand.argmin(axis=2),
                  (~rises & ~falls & (v1 < -tol)).any(axis=2))

    n = profiles.shape[0]
    lo, hi = np.zeros(n), np.ones(n)
    lo_row, hi_row = np.full(n, -1), np.full(n, -1)
    empty = np.zeros(n, dtype=bool)
    for c in range(n_comp):
        c_lo, c_hi, c_lo_row, c_hi_row, c_flat = (
            x[c, profiles[:, c]] for x in per_action)
        tighter = c_lo > lo
        lo = np.where(tighter, c_lo, lo)
        lo_row = np.where(tighter, c_lo_row, lo_row)
        tighter = c_hi < hi
        hi = np.where(tighter, c_hi, hi)
        hi_row = np.where(tighter, c_hi_row, hi_row)
        empty |= c_flat
    keep = np.flatnonzero(~(empty | (lo > hi + 1e-9)))

    # an end no row attains (-1) marks the spare last column, dropped below
    mask = np.zeros((keep.size, n_comp * k + 1), dtype=bool)
    mask[np.arange(keep.size)[:, None],
         np.stack((lo_row[keep], hi_row[keep]), axis=1)] = True
    return keep, lo[keep], hi[keep], mask[:, :-1]


def solve_exact(prior: JointPrior, score: ScoreSpec,
                cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                cell_cap: int = DEFAULT_CELL_CAP) -> SolveReport:
    """Optimal commitment for piecewise-linear G via the obedience LP.

    Raises NumericalFailure when the LP duality gap exceeds LP_GAP_TOL or
    the scheme's obedience residual exceeds OBEDIENCE_TOL.
    """
    if score.kind is not ScoreKind.PIECEWISE:
        raise ValidationError(
            "solve_exact needs a piecewise-linear score; linearize first")
    decision = scoring.decision_problem_from_G(score)
    k = decision.n_actions
    na = prior.n_alice
    nb = prior.n_bob
    profiles = build_revelation_signals(k, nb,
                                        max(cap_lp_vars // max(na, 1), 1))
    n_profiles = len(profiles)

    keep_rows = blocks = None
    if na == 2:
        blocks = _obedience_blocks(marginals_and_conditionals(prior),
                                   decision)
        kept, _, _, keep_rows = _feasible_signals(blocks[2], blocks[3],
                                                  profiles)
        profiles = profiles[kept]
    lp = build_obedience_lp(prior, decision, profiles, cap_lp_vars,
                            keep_rows, cell_cap, _blocks=blocks)
    sol = solve_lp(lp, cell_cap)
    if sol.status is not LPStatus.OPTIMAL:
        raise NumericalFailure(f"obedience LP reported {sol.status.value}; "
                               "marginal constraints should always admit a "
                               "scheme")
    if not sol.duality_gap <= LP_GAP_TOL:
        raise NumericalFailure(f"obedience LP duality gap {sol.duality_gap!r}"
                               f" exceeds {LP_GAP_TOL!r}")

    pi = sol.x.reshape(len(profiles), na)
    live = pi.sum(axis=1) > 1e-10
    scheme = SignalingScheme(
        tuple("-".join(map(str, p)) for p in profiles[live].tolist()),
        pi[live])
    violation = certify_obedience(prior, decision, scheme)
    if not violation <= OBEDIENCE_TOL:
        raise NumericalFailure(f"scheme violates obedience by {violation!r}, "
                               f"above {OBEDIENCE_TOL!r}")

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
            "signals_pruned": n_profiles - len(profiles),
            "signals_kept": scheme.n_signals,
            "pieces": k,
            "max_obedience_violation": violation,
        },
    )


def certify_obedience(prior: JointPrior, decision: DecisionProblem,
                      scheme: SignalingScheme,
                      mass_threshold: float = 1e-10) -> float:
    """Largest normalized obedience violation over positive-mass signals.

    Each signal's label is its recommendation profile "i0-i1-...-i|B|", as
    ``solve_exact`` writes it.  The recommended action i_0 must maximize
    the expected utility under Pr(e|s), and each i_b under Pr(e|s,b).
    """
    live = np.flatnonzero(scheme.pi.sum(axis=1) > mass_threshold)
    rec = np.array([scheme.signal_labels[i].split("-") for i in live],
                   dtype=int).reshape(live.size, 1 + prior.n_bob)
    mass, numer, mass_b, numer_b = belief._posterior_terms(
        scheme.pi[live], marginals_and_conditionals(prior))
    # column 0: Pr(e|s) before Bob reveals; column 1 + b: Pr(e|s, b)
    masses = np.column_stack((mass, mass_b))
    on = masses > mass_threshold
    vals = np.concatenate((numer[:, None], numer_b), axis=1) \
        @ decision.utilities.T / np.where(on, masses, 1.0)[..., None]
    gap = vals.max(axis=2) - np.take_along_axis(vals, rec[..., None],
                                                axis=2)[..., 0]
    return float(np.max(gap[on], initial=0.0))


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
