"""Exact optimal-commitment solver for piecewise-linear G.

Alice's optimum is the lower convex envelope of u_B over the posteriors
w in Delta_A, taken at mu_A (Kamenica & Gentzkow 2011).  With
G(p) = max_i u_i . p,

    u_B(w) = sum_b max_i ue_ab[i, :, b] . w  -  max_i ue_a[i] . w,

that is u_B = f - g with f(w) = sum_b max_i ue_ab[i, :, b] . w and
g(w) = max_i ue_a[i] . w, both convex.  Only f's arrangement matters: the
hyperplanes through the origin with normals ue_ab[i, :, b] -
ue_ab[j, :, b], one family per b.  On each closed cell of that
arrangement, cut with Delta_A, f is linear, so u_B is concave there (-g
is concave everywhere).  Every point of Delta_A lies in the relative
interior of one face of these cut cells.  A point w inside a face of
dimension >= 1 is the midpoint of two points w1, w2 of that face, and
concavity gives u_B(w) >= (u_B(w1) + u_B(w2)) / 2: (w, u_B(w)) is not an
extreme point of the convex hull of u_B's graph.  The lower convex envelope
at mu_A is a convex combination of such extreme points (the hull is
compact), so the 0-dimensional faces suffice: the points that meet
|A| - 1 independent normals of f or facets w_a = 0.  Each is their
generalised cross product, scaled onto Delta_A, and the envelope LP over
them is exact at every |A|.  ``solve_exact`` builds every candidate, costs
them with the exact u_B and solves the LP with ``lp.solve_envelope``, in
fptas-a's pipeline.

The answer is a revelation scheme: each vertex with LP mass is labelled
with its lowest-index argmax recommendation profile (i_0, i_1, ..., i_|B|),
and vertices that share a profile merge into one signal, pi rows summed.
This is lossless: a profile that is an argmax at every merged vertex is
one at their mixture, by linearity, so objective and obedience carry over.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import belief, scoring
from .core import Classification, ConditionalTable, JointPrior, Method, \
    SignalingScheme, SolveReport, marginals_and_conditionals, total_value, \
    full_reveal_scheme, no_reveal_scheme
from .errors import NumericalFailure, SizeCapExceeded, ValidationError
from .fptas import _certified_bob, _envelope_lp
from .lp import DEFAULT_CELL_CAP, LinearProgram, LPStatus, check_cell_cap, \
    solve_lp, tableau_cells
from .scoring import ScoreKind, ScoreSpec

DEFAULT_LP_VAR_CAP = 2_000_000
CLASSIFY_TOL = 1e-7
OBEDIENCE_TOL = 1e-7
_POINT_CHUNK = 65_536


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


def _obedience_blocks(table: ConditionalTable, score: ScoreSpec):
    """Per-alice-outcome utility weights, shared by LP rows and objective,
    as a (1+|B|, k, |A|) array ue by profile column.

    ue[0, i, a] is action i's expected utility under mu(.|a), before Bob
    reveals; ue[1+b, i, a] under mu(.|a, b), weighted by mu(b|a), after he
    reveals b.  An undefined conditional reads 0.0, so an alice outcome with
    mu(a) = 0, or a pair with mu(a, b) = 0, adds zero weight.
    """
    u = score.utilities                          # (k, ne)
    ue_a = np.einsum("ie,ae->ia", u, table.e_given_a)       # (k, na)
    ue_ab = np.einsum("ie,abe,ab->iab", u, table.e_given_ab, table.b_given_a)
    return np.concatenate((ue_a[None], np.moveaxis(ue_ab, 2, 0)))


def _components(ue: np.ndarray) -> np.ndarray:
    """(1+|B|, k, k, |A|): entry [c, i, j, a] weights pi(s, a) in profile
    column c's row 'recommended i beats j'."""
    return ue[:, :, None, :] - ue[:, None, :, :]


def build_obedience_lp(prior: JointPrior, score: ScoreSpec,
                       signals: np.ndarray | None = None,
                       cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                       cell_cap: int = DEFAULT_CELL_CAP) -> LinearProgram:
    """Assemble the obedience LP over pi(s, a) for the given profile rows.

    Row layout: per signal, the k obedience rows of its component 0, then
    the k rows of each component 1+b (as >= 0, stored negated as <= 0);
    then the |A| marginal equalities.  The actions are the pieces of a
    piecewise score; a smooth score raises ValidationError.
    """
    k = score.utilities.shape[0]
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
    n_rows = n_signals * (k + k * nb)
    # refuse before allocating: the solver's tableau is the largest array
    check_cell_cap(tableau_cells(n_vars, n_rows, na), cell_cap)
    table = marginals_and_conditionals(prior)
    ue = _obedience_blocks(table, score)

    objective = (ue[0, signals[:, 0]] - sum(ue[1 + b, signals[:, 1 + b]]
                                            for b in range(nb))).ravel()
    sig, row = np.divmod(np.arange(n_rows), k + k * nb)
    comp, j = np.divmod(row, k)
    a_ub = np.zeros((n_rows, n_vars))
    a_ub[np.arange(n_rows)[:, None], sig[:, None] * na + np.arange(na)] = \
        -_components(ue)[comp, signals[sig, comp], j]
    return LinearProgram(objective, np.tile(np.eye(na), n_signals),
                         table.mu_a, a_ub, np.zeros(n_rows))


def _cross(sub: np.ndarray) -> np.ndarray:
    """Generalised cross products of a stack of (n-1) x n matrices: their
    signed (n-1)-minors, by Laplace expansion along the first row, so a
    minor whose terms all vanish is exactly zero."""
    n = sub.shape[-1]
    if n == 1:
        return np.ones(sub.shape[:-2] + (1,))
    return np.stack([(-1) ** a * (np.delete(sub[..., 0, :], a, axis=-1) *
                                  _cross(np.delete(sub[..., 1:, :], a,
                                                   axis=-1))).sum(axis=-1)
                     for a in range(n)], axis=-1)


def _arrangement_points(ue: np.ndarray) -> np.ndarray:
    """Delta_A's vertices, then every candidate vertex of u_B's arrangement
    on Delta_A, as the rows of an (n, |A|) array.

    For |A| = 1, Delta_A is the one point e_0 and nothing else is built.
    Otherwise each (|A|-1)-subset of the rows (the nonzero after-reveal
    normals ue[1+b, i] - ue[1+b, j] of ``_obedience_blocks``' weights for
    i < j, then the facets e_a) gives its generalised cross product v, the
    signed minors, kept when its entries share one sign and scaled to sum
    1.  A vertex on a face of Delta_A is also the cross product of a subset
    that holds the face's facets, and ``_cross`` computes its entries off
    the face as exact zeros, so rounding does not drop it.

    Subsets go in chunks of ``_POINT_CHUNK``.  Peak memory (tracemalloc,
    |A| = 3) is about 10 MB of chunk temporaries plus 16|A| B per kept
    point: at the default cap of 2,000,000 candidates, at most about
    110 MB.
    """
    _, k, na = ue.shape
    if na == 1:
        return np.eye(1)
    i, j = np.triu_indices(k, 1)
    # the pre-reveal normals ue[0, i] - ue[0, j] are left out: u_B is
    # concave across them, so no envelope vertex needs one (module doc)
    normals = (ue[1:, i] - ue[1:, j]).reshape(-1, na)
    rows = np.concatenate((normals[np.abs(normals).max(axis=1) > 0.0],
                           np.eye(na)))
    points = [np.eye(na)]
    subsets = itertools.combinations(range(rows.shape[0]), na - 1)
    while (flat := np.fromiter(itertools.chain.from_iterable(
            itertools.islice(subsets, _POINT_CHUNK)), dtype=np.intp)).size:
        v = _cross(rows[flat.reshape(-1, na - 1)])
        v *= np.where(v.sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
        v = v[(v >= 0.0).all(axis=1) & (v > 0.0).any(axis=1)]
        points.append(v / v.sum(axis=1, keepdims=True))
    return np.concatenate(points)


def solve_exact(prior: JointPrior, score: ScoreSpec,
                cap_lp_vars: int = DEFAULT_LP_VAR_CAP) -> SolveReport:
    """Optimal commitment for piecewise-linear G, as a revelation scheme.

    ``cap_lp_vars`` caps the candidate points, C(C(k,2)|B| + |A|, |A|-1)
    for k pieces (C(k,2)|B| after-reveal normals and |A| facets, taken
    |A|-1 at a time), counted before anything is built.  Raises
    NumericalFailure when the LP fails its certificate, when its value and
    the scheme's sender objective differ by more than GRID_GAP_TOL, or
    when the obedience residual exceeds OBEDIENCE_TOL.
    """
    if cap_lp_vars < 1:
        raise ValidationError(f"cap_lp_vars={cap_lp_vars} must be at least 1")
    if score.kind is not ScoreKind.PIECEWISE:
        raise ValidationError(
            "solve_exact needs a piecewise-linear score; linearize first")
    k, na, nb = score.k_pieces, prior.n_alice, prior.n_bob
    count = math.comb(math.comb(k, 2) * nb + na, na - 1)
    if count > cap_lp_vars:
        raise SizeCapExceeded(f"arrangement has {count} candidate points, "
                              f"cap is {cap_lp_vars}", required=count)
    ue = _obedience_blocks(marginals_and_conditionals(prior), score)
    points = _arrangement_points(ue)
    sol = _envelope_lp(prior, score, points, "vertex")

    # merge the support points by lowest-index argmax profile (lossless)
    support = np.flatnonzero(sol.x > 1e-10)
    w = points[support]
    profile = np.einsum("va,cia->vci", w, ue).argmax(axis=2)
    profiles, group = np.unique(profile, axis=0, return_inverse=True)
    pi = np.zeros((profiles.shape[0], na))
    np.add.at(pi, group.ravel(), sol.x[support, None] * w)
    scheme = SignalingScheme(
        tuple("-".join(map(str, p)) for p in profiles.tolist()), pi)
    violation = certify_obedience(prior, score, scheme)
    if not violation <= OBEDIENCE_TOL:
        raise NumericalFailure(f"scheme violates obedience by {violation!r}, "
                               f"above {OBEDIENCE_TOL!r}")

    bob = _certified_bob(prior, score, scheme, sol, "vertex")
    optimum = -sol.objective
    return SolveReport(
        scheme, bob, total_value(prior, score),
        _classify_against_benchmarks(prior, score, optimum), Method.EXACT,
        {"lp_objective": optimum, "lp_vars": points.shape[0], "lp_rows": na,
         "lp_iterations": sol.iterations, "lp_duality_gap": sol.duality_gap,
         "signals_kept": scheme.n_signals, "pieces": k,
         "max_obedience_violation": violation})


def obedience_lp_optimum(prior: JointPrior, score: ScoreSpec,
                         cap_lp_vars: int = DEFAULT_LP_VAR_CAP,
                         cell_cap: int = DEFAULT_CELL_CAP) -> float:
    """Alice's optimum by the obedience LP over all k^(|B|+1) profiles on
    the dense tableau: the reference ``solve_exact`` is tested against."""
    profiles = build_revelation_signals(score.utilities.shape[0], prior.n_bob,
                                        max(cap_lp_vars // prior.n_alice, 1))
    sol = solve_lp(build_obedience_lp(prior, score, profiles, cap_lp_vars,
                                      cell_cap), cell_cap)
    if sol.status is not LPStatus.OPTIMAL:
        raise NumericalFailure(f"obedience LP reported {sol.status.value}")
    return sol.objective


def _is_profile(label: str, n_rec: int, n_act: int) -> bool:
    ids = label.split("-")
    return len(ids) == n_rec and all(i.isdecimal() and int(i) < n_act
                                     for i in ids)


def certify_obedience(prior: JointPrior, score: ScoreSpec,
                      scheme: SignalingScheme,
                      mass_threshold: float = 1e-10) -> float:
    """Largest normalized obedience violation over positive-mass signals.

    Each signal's label is its recommendation profile "i0-i1-...-i|B|", as
    ``solve_exact`` writes it.  The recommended action i_0 must maximize
    the expected utility under Pr(e|s), and each i_b under Pr(e|s,b), with
    the utilities ``score.utilities``.  A positive-mass label that is not
    such a profile, or a smooth score, raises ValidationError.
    """
    u = score.utilities
    live = np.flatnonzero(scheme.pi.sum(axis=1) > mass_threshold)
    labels = [scheme.signal_labels[i] for i in live]
    n_rec, n_act = 1 + prior.n_bob, u.shape[0]
    try:
        rec = np.array([s.split("-") for s in labels],
                       dtype=int).reshape(live.size, n_rec)
    except ValueError:
        rec = None
    if rec is None or rec.max(initial=0) >= n_act:
        bad = next(s for s in labels if not _is_profile(s, n_rec, n_act))
        raise ValidationError(f"signal label {bad!r} is not a profile of "
                              f"{n_rec} action indices below {n_act}")
    mass, numer, mass_b, numer_b = belief._posterior_terms(
        scheme.pi[live], marginals_and_conditionals(prior))
    # column 0: Pr(e|s) before Bob reveals; column 1 + b: Pr(e|s, b)
    masses = np.column_stack((mass, mass_b))
    on = masses > mass_threshold
    vals = np.concatenate((numer[:, None], numer_b), axis=1) \
        @ u.T / np.where(on, masses, 1.0)[..., None]
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
                         cap_lp_vars: int = DEFAULT_LP_VAR_CAP) -> SolveReport:
    """Classify the (A, B) signal pair; smooth scores are linearized first."""
    linearized = False
    if score.kind is not ScoreKind.PIECEWISE:
        grid = scoring.default_tangent_grid(score, prior.n_events, tangent_k)
        score = scoring.linearize_smooth(score, grid)
        linearized = True
    report = solve_exact(prior, score, cap_lp_vars)
    if linearized:
        report.diagnostics["linearized"] = True
        report.diagnostics["tangent_k"] = tangent_k
    return report
