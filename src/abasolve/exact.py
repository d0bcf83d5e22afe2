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

A classify solve is small: from 7 to a few hundred candidates and an LP
of |A| rows.  Its time is the fixed cost of its numpy calls, so each stage
makes few: ``_cross`` forms each minor once, a level at a time; one
``ub_grid_wa`` call costs the candidates and both benchmarks (the LP's
first |A| points are the vertices e_a, which full revelation uses, and
one row more holds mu_A / M for no revelation); the merge groups at most
|A| support points as Python tuples; and the obedience certificate and
the u_B check share the scheme's posterior terms.  The tests hold each
stage to a frozen straightforward form of it, bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _kernels, belief, lp, scoring
from .core import Classification, ConditionalTable, JointPrior, Method, \
    SignalingScheme, SolveReport, marginals_and_conditionals, total_value
from .errors import NumericalFailure, SizeCapExceeded, ValidationError, \
    check_count
from .fptas import _certified_bob, _envelope_lp
from .lp import LinearProgram, LPStatus, check_cell_cap, solve_lp, \
    tableau_cells
from .scoring import ScoreKind, ScoreSpec

DEFAULT_LP_VAR_CAP = 2_000_000
CLASSIFY_TOL = 1e-7
OBEDIENCE_TOL = 1e-7
SUPPORT_MASS = 1e-10  # LP weight or signal mass at most this counts as 0
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
    return np.concatenate((ue_a[None], ue_ab.transpose(2, 0, 1)))


def _components(ue: np.ndarray) -> np.ndarray:
    """(1+|B|, k, k, |A|): entry [c, i, j, a] weights pi(s, a) in profile
    column c's row 'recommended i beats j'."""
    return ue[:, :, None, :] - ue[:, None, :, :]


def build_obedience_lp(prior: JointPrior, score: ScoreSpec,
                       signals: np.ndarray | None = None,
                       cap_lp_vars: int = DEFAULT_LP_VAR_CAP) -> LinearProgram:
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
    check_cell_cap(tableau_cells(n_vars, n_rows, na), lp.DEFAULT_CELL_CAP)
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
    """Generalised cross products of a stack of (n-1) x n matrices, n >= 2:
    their signed (n-1)-minors, by Laplace expansion along the first row,
    so a minor whose terms all vanish is exactly zero.

    Entry a is (-1)^a s(S - a), S the n columns, where s(T) for a column
    set T of size k expands the last k rows along their first: s(T) =
    sum_j sub[n-1-k, T_j] ((-1)^j s(T - T_j)), T ascending, and s of the
    empty set is 1.  s(T) depends on T alone, so each is computed once, a
    level of all C(n, k) sets at a time from the level below.  A
    recursion one minor at a time computes n! / 2 of them at the deepest
    level, and even at n = 2 and 3 it makes more numpy calls: over
    classify-ladder's pool it takes the arrangement stage about 1.4 times
    as long.
    Each level's products are laid out C-contiguous, so numpy sums them
    over their contiguous last axis, as that recursion sums them; a sum
    of one term is numpy's 0.0 + term."""
    n = sub.shape[-1]
    s = sub[..., -1, :] + 0.0           # s({c}) = 0.0 + sub[-1, c] s({})
    index = {(c,): c for c in range(n)}
    for k in range(2, n):
        sets = list(itertools.combinations(range(n), k))
        below = [[index[t[:j] + t[j + 1:]] for j in range(k)] for t in sets]
        terms = np.multiply(sub[..., n - 1 - k, sets], s[..., below],
                            order="C")
        terms *= (-1.0) ** np.arange(k)     # exact, as on either factor
        s = terms.sum(axis=-1)
        index = {t: i for i, t in enumerate(sets)}
    # the sets of size n - 1 come in the order S - (n-1), ..., S - 0
    return s[..., ::-1] * (-1.0) ** np.arange(n)


def _arrangement_points(ue: np.ndarray) -> np.ndarray:
    """Delta_A's vertices, then every candidate vertex of u_B's arrangement
    on Delta_A, as the rows of an (n, |A|) array.

    For |A| = 1, Delta_A is the one point e_0 and nothing else is built.
    Otherwise each (|A|-1)-subset of the rows (the nonzero after-reveal
    normals ue[1+b, i] - ue[1+b, j] of ``_obedience_blocks``' weights for
    i < j, in ``itertools.combinations`` order, then the facets e_a) gives
    its generalised cross product v, the signed minors, kept when its
    entries share one sign and scaled to sum 1.  A vertex on a face of
    Delta_A is also the cross product of a subset that holds the face's
    facets, and ``_cross`` computes its entries off the face as exact
    zeros, so rounding does not drop it.

    Subsets go in chunks.  ``_cross``'s widest level holds C(|A|, j) j
    entries per subset, 6 at |A| = 3, so a chunk holds ``_POINT_CHUNK``
    subsets at |A| <= 3 and proportionally fewer above: its temporaries
    stay near |A| = 3's at every |A|.  Peak memory (tracemalloc, 80,000
    to 280,000 subsets keeping 14,000 to 20,000 points) is 15-19 MB at
    |A| = 3 to 6.  Each kept point adds 16|A| B: at |A| = 3 and the
    default cap of 2,000,000 candidates, at most about 110 MB.
    """
    _, k, na = ue.shape
    if na == 1:
        return np.eye(1)
    width = max([6] + [math.comb(na, j) * j for j in range(2, na)])
    chunk = _POINT_CHUNK * 6 // width
    i, j = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
    # the pre-reveal normals ue[0, i] - ue[0, j] are left out: u_B is
    # concave across them, so no envelope vertex needs one (module doc)
    normals = (ue[1:, i] - ue[1:, j]).reshape(-1, na)
    rows = np.concatenate((normals[np.abs(normals).max(axis=1) > 0.0],
                           np.eye(na)))
    points = [np.eye(na)]
    subsets = itertools.combinations(range(rows.shape[0]), na - 1)
    for _ in range(0, math.comb(rows.shape[0], na - 1), chunk):
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(subsets, chunk)), dtype=np.intp)
        v = _cross(rows[flat.reshape(-1, na - 1)])
        v *= np.where(v.sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
        v = v[(v >= 0.0).all(axis=1) & (v > 0.0).any(axis=1)]
        points.append(v / v.sum(axis=1, keepdims=True))
    return np.concatenate(points)


def _merge_profiles(w: np.ndarray, weights: np.ndarray, ue: np.ndarray):
    """The revelation scheme of the support points ``w`` (rows, with LP
    weights ``weights``): (labels, pi).

    Each point is labelled with its lowest-index argmax profile under
    ``ue``, and points that share a profile merge into one signal (see the
    module docstring).  Signals go in ascending profile order, and each
    pi row adds its points' ``weight * w`` to 0.0 in support order, as
    np.unique(axis=0) and np.add.at do; the support has at most |A|
    points, so the groups are formed over Python tuples."""
    profiles = np.einsum("va,cia->vci", w, ue).argmax(axis=2).tolist()
    rows = weights[:, None] * w
    groups: dict[tuple, list[int]] = {}
    for v, profile in enumerate(profiles):
        groups.setdefault(tuple(profile), []).append(v)
    keys = sorted(groups)
    pi = np.zeros((len(keys), w.shape[1]))
    for s, key in enumerate(keys):
        for v in groups[key]:
            pi[s] += rows[v]
    return tuple("-".join(map(str, key)) for key in keys), pi


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
    check_count("cap_lp_vars", cap_lp_vars)
    if score.kind is not ScoreKind.PIECEWISE:
        raise ValidationError(
            "solve_exact needs a piecewise-linear score; linearize first")
    k, na, nb = score.k_pieces, prior.n_alice, prior.n_bob
    count = math.comb(math.comb(k, 2) * nb + na, na - 1)
    if count > cap_lp_vars:
        raise SizeCapExceeded(f"arrangement has {count} candidate points, "
                              f"cap is {cap_lp_vars}", required=count)
    table = marginals_and_conditionals(prior)
    ue = _obedience_blocks(table, score)
    points = _arrangement_points(ue)
    mu = table.mu_a
    # u_B at the candidates, then at mu_A / M for the no-reveal benchmark;
    # each row's value depends on that row alone (``ub_grid_wa``)
    u = _kernels.ub_grid_wa(np.vstack((points, mu / mu.sum())), table, score)
    sol = _envelope_lp(mu, (u[:-1], points), "vertex")

    support, weights = sol.support(SUPPORT_MASS)
    scheme = SignalingScheme(*_merge_profiles(points[support], weights, ue))
    violation = certify_obedience(prior, score, scheme)
    if not violation <= OBEDIENCE_TOL:
        raise NumericalFailure(f"scheme violates obedience by {violation!r}, "
                               f"above {OBEDIENCE_TOL!r}")

    bob = _certified_bob(prior, score, scheme, sol, "vertex")
    optimum = -sol.objective
    return SolveReport(
        scheme, bob, total_value(prior, score),
        _classify_against_benchmarks(
            optimum, *_benchmark_objectives(mu, u[:na], u[-1])), Method.EXACT,
        {"lp_objective": optimum, "lp_vars": points.shape[0], "lp_rows": na,
         "lp_iterations": sol.iterations, "lp_duality_gap": sol.duality_gap,
         "signals_kept": scheme.n_signals, "pieces": k,
         "max_obedience_violation": violation})


def obedience_lp_optimum(prior: JointPrior, score: ScoreSpec,
                         cap_lp_vars: int = DEFAULT_LP_VAR_CAP) -> float:
    """Alice's optimum by the obedience LP over all k^(|B|+1) profiles on
    the dense tableau: the reference ``solve_exact`` is tested against."""
    profiles = build_revelation_signals(score.utilities.shape[0], prior.n_bob,
                                        max(cap_lp_vars // prior.n_alice, 1))
    sol = solve_lp(build_obedience_lp(prior, score, profiles, cap_lp_vars))
    if sol.status is not LPStatus.OPTIMAL:
        raise NumericalFailure(f"obedience LP reported {sol.status.value}")
    return sol.objective


def _is_profile(label: str, n_rec: int, n_act: int) -> bool:
    ids = label.split("-")
    return len(ids) == n_rec and all(i.isdecimal() and int(i) < n_act
                                     for i in ids)


def certify_obedience(prior: JointPrior, score: ScoreSpec,
                      scheme: SignalingScheme) -> float:
    """Largest normalized obedience violation over the signals, and the
    (signal, bob outcome) pairs, of mass above SUPPORT_MASS.

    Each signal's label is its recommendation profile "i0-i1-...-i|B|", as
    ``solve_exact`` writes it.  The recommended action i_0 must maximize
    the expected utility under Pr(e|s), and each i_b under Pr(e|s,b), with
    the utilities ``score.utilities``.  A positive-mass label that is not
    such a profile, or a smooth score, raises ValidationError.
    """
    u = score.utilities
    live = np.flatnonzero(scheme.pi.sum(axis=1) > SUPPORT_MASS)
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
    if live.size == scheme.n_signals:
        mass, numer, mass_b, numer_b = belief._scheme_posteriors(prior,
                                                                 scheme)
    else:
        mass, numer, mass_b, numer_b = belief._posterior_terms(
            scheme.pi[live], marginals_and_conditionals(prior))
    # column 0: Pr(e|s) before Bob reveals; column 1 + b: Pr(e|s, b)
    masses = np.concatenate((mass[:, None], mass_b), axis=1)
    on = masses > SUPPORT_MASS
    vals = np.concatenate((numer[:, None], numer_b), axis=1) \
        @ u.T / np.where(on, masses, 1.0)[..., None]
    gap = vals.max(axis=2) - vals[np.arange(live.size)[:, None],
                                  np.arange(n_rec), rec]
    return float(np.max(gap[on], initial=0.0))


def _benchmark_objectives(mu: np.ndarray, u_vertices: np.ndarray,
                          u_mean: float) -> tuple[float, float]:
    """Alice's objective under full and under no revelation, from u_B at
    the vertices e_a (``u_vertices``) and at mu_A / M (``u_mean``), where
    M = sum_a mu(a).

    Full revelation sends mass mu(a) to the posterior e_a, so its u_B is
    sum_a mu(a) u_B(e_a); an outcome with mu(a) = 0 adds 0, as its dropped
    signal does in ``belief``.  No revelation sends mass M to mu_A / M, so
    its u_B is M u_B(mu_A / M).  Both agree with ``belief.sender_objective``
    of ``core.full_reveal_scheme`` and ``core.no_reveal_scheme`` up to
    rounding, without building either scheme.  They are not those values
    bit for bit (the tests hold them within 1e-12), so an instance whose
    |optimum - benchmark| lies within about 1e-12 of CLASSIFY_TOL can be
    classified differently than through the two schemes."""
    return -float(mu @ u_vertices), -float(mu.sum() * u_mean)


def _classify_against_benchmarks(optimum: float, full: float,
                                 none: float) -> Classification:
    """Classify by which benchmark objectives, ``full`` (full revelation)
    and ``none`` (no revelation), Alice's ``optimum`` attains to
    CLASSIFY_TOL: both Indifferent, full Substitutes, none Complements,
    neither Neither."""
    full_opt = abs(optimum - full) <= CLASSIFY_TOL
    none_opt = abs(optimum - none) <= CLASSIFY_TOL
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
