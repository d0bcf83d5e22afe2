"""Shared generators and micro-oracles for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import signal

import numpy as np

from abasolve import _kernels
from abasolve.core import JointPrior, SignalingScheme, full_reveal_scheme, \
    marginals_and_conditionals
from abasolve.errors import ValidationError, ZeroProbabilityPair, \
    ZeroProbabilitySignal
from abasolve.scoring import ScoreKind, ScoreSpec, eval_G, log_score, \
    piecewise_score, quadratic_score, spherical_score


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time
    have passed, so a search that never ends fails its test instead of
    hanging the suite.  Uses SIGALRM: main thread, POSIX only."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_prior(rng: np.random.Generator, ne: int = 2, na: int = 2,
                 nb: int = 2) -> JointPrior:
    p = rng.gamma(1.0, size=(ne, na, nb))
    return JointPrior(p / p.sum())


def random_scheme(rng: np.random.Generator, prior: JointPrior,
                  n_signals: int = 2) -> SignalingScheme:
    raw = rng.gamma(1.0, size=(n_signals, prior.n_alice)) + 1e-9
    pi = raw / raw.sum(axis=0) * prior.marginal_alice()[None, :]
    return SignalingScheme(tuple(f"s{i}" for i in range(n_signals)), pi)


def random_piecewise(rng: np.random.Generator, ne: int = 2,
                     k: int = 3) -> ScoreSpec:
    pieces = [(rng.uniform(-1.0, 1.0, size=ne), rng.uniform(-1.0, 1.0))
              for _ in range(k)]
    return piecewise_score(pieces)


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def stop_simplex_early(monkeypatch, full_calls: int, pivots: int) -> None:
    """Patch ``_kernels.simplex_iterate``: its first ``full_calls`` calls
    run as usual (phase 1, when the LP has one), every later call stops
    after ``pivots`` pivots and reports the basis optimal."""
    real = _kernels.simplex_iterate
    calls = []

    def early(t, basis, allowed, tol, max_iter, degen_limit):
        calls.append(None)
        if len(calls) <= full_calls:
            return real(t, basis, allowed, tol, max_iter, degen_limit)
        return 0, real(t, basis, allowed, tol, pivots, degen_limit)[1]

    monkeypatch.setattr(_kernels, "simplex_iterate", early)


def lp_vertex_oracle(c, a_eq, b_eq, a_ub, b_ub, tol: float = 1e-9):
    """Brute-force LP optimum by enumerating basic feasible points.

    Converts to slack form and tries every basis subset; intended for tiny
    LPs only.  Returns the best objective, or None when infeasible.
    """
    c = np.asarray(c, dtype=float)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, c.size)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, c.size)
    b = np.concatenate((np.asarray(b_eq, dtype=float).ravel(),
                        np.asarray(b_ub, dtype=float).ravel()))
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    a_full = np.zeros((m, c.size + m_ub))
    a_full[:m_eq, :c.size] = a_eq
    a_full[m_eq:, :c.size] = a_ub
    a_full[m_eq:, c.size:] = np.eye(m_ub)
    best = None
    for cols in itertools.combinations(range(a_full.shape[1]), m):
        sub = a_full[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if (x_b < -tol).any():
            continue
        x = np.zeros(a_full.shape[1])
        x[list(cols)] = x_b
        val = float(c @ x[:c.size])
        if best is None or val > best:
            best = val
    return best


def conditional_table_frozen(prior: JointPrior) -> dict[str, np.ndarray]:
    """The arrays of ``marginals_and_conditionals(prior)`` as they were
    computed when undefined conditionals were NaN, after the NaNs were
    replaced by 0.0: the reference for the table that writes 0.0 itself."""
    p = prior.p  # [e, a, b]
    mu_a = p.sum(axis=(0, 2))
    mu_b = p.sum(axis=(0, 1))
    mu_e = p.sum(axis=(1, 2))
    mu_eb = p.sum(axis=1)                    # [e, b]
    mu_ab = p.sum(axis=0)                    # [a, b]
    defined_a = mu_a > 0.0
    defined_ab = mu_ab > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        b_given_a = np.where(defined_a[:, None], mu_ab / mu_a[:, None], np.nan)
        e_given_a = np.where(defined_a[None, :], p.sum(axis=2) / mu_a[None, :],
                             np.nan).T                     # [a, e]
        pab = np.transpose(p, (1, 2, 0))                   # [a, b, e]
        e_given_ab = np.where(defined_ab[:, :, None], pab / mu_ab[:, :, None],
                              np.nan)
        eb_given_a = np.where(defined_a[None, :, None],
                              p / mu_a[None, :, None], np.nan)
        eb_given_a = np.transpose(eb_given_a, (1, 0, 2))   # [a, e, b]

    def z(x):
        return np.where(np.isnan(x), 0.0, x)
    return {"mu_a": mu_a, "mu_b": mu_b, "mu_e": mu_e, "mu_eb": mu_eb,
            "mu_ab": mu_ab, "b_given_a": z(b_given_a),
            "e_given_a": z(e_given_a), "e_given_ab": z(e_given_ab),
            "eb_given_a": z(eb_given_a), "defined_a": defined_a,
            "defined_ab": defined_ab}


def sender_objective_decision_form(prior: JointPrior, score: ScoreSpec,
                                   scheme: SignalingScheme) -> float:
    """Sender objective evaluated through the decision-problem max-affine
    form, independent of the G-based code path."""
    from abasolve.core import marginals_and_conditionals

    u = score.pieces_r + score.pieces_b[:, None]
    t = marginals_and_conditionals(prior)
    total = 0.0
    for idx in range(scheme.n_signals):
        row = scheme.pi[idx]
        mass = float(row.sum())
        if mass <= 0.0:
            continue
        active = row > 0.0
        p_s = row[active] @ t.e_given_a[active] / mass
        total += mass * float((u @ p_s).max())
        for b in range(prior.n_bob):
            w = row * t.b_given_a[:, b]
            pm = float(w.sum())
            if pm <= 0.0:
                continue
            act = w > 0.0
            p_sb = w[act] @ t.e_given_ab[act, b] / pm
            total -= pm * float((u @ p_sb).max())
    return total


SCORES = {
    "quadratic": lambda rng, ne: quadratic_score(),
    "log": lambda rng, ne: log_score(),
    "spherical": lambda rng, ne: spherical_score(),
    "piecewise": lambda rng, ne: random_piecewise(rng, ne, k=4),
}


def degenerate_cases(rng, ne, na, nb):
    """(prior, scheme) pairs: plain, a zero-mass A outcome, a zero-mass B
    outcome, a never-sent signal, and posteriors on the simplex boundary."""
    prior = random_prior(rng, ne, na, nb)
    yield prior, random_scheme(rng, prior, 3)
    for axis in (1, 2):
        if prior.p.shape[axis] < 2:
            continue
        p = prior.p.copy()
        np.moveaxis(p, axis, 0)[0] = 0.0
        thin = JointPrior(p / p.sum())
        yield thin, random_scheme(rng, thin, 3)
    scheme = random_scheme(rng, prior, 2)
    yield prior, SignalingScheme(("s0", "never", "s1"),
                                 np.insert(scheme.pi, 1, 0.0, axis=0))
    p = prior.p.copy()
    p[rng.random(p.shape) < 0.4] = 0.0
    p[0, :, :] = 0.0
    p[1, 0, :] = 1.0
    sparse = JointPrior(p / p.sum())
    yield sparse, full_reveal_scheme(sparse)
    yield sparse, random_scheme(rng, sparse, 2)


# -- per-signal reference implementations -----------------------------------
#
# Each posterior, certificate and report below is computed one signal, one
# Bob outcome and one point at a time, as the library did before it formed
# every posterior of a scheme in one batched evaluation.  They call nothing
# of the library's posterior or scoring code beyond eval_G.


def posterior_e_given_s_ref(prior, scheme, s, t) -> np.ndarray:
    row = scheme.pi[scheme.signal_index(s)]
    mass = float(row.sum())
    if mass <= 0.0:
        raise ZeroProbabilitySignal(f"signal {s!r} is never sent")
    active = row > 0.0
    return row[active] @ t.e_given_a[active] / mass


def posterior_e_given_sb_ref(prior, scheme, s, b, t) -> np.ndarray:
    row = scheme.pi[scheme.signal_index(s)]
    weights = row * t.b_given_a[:, b]
    mass = float(weights.sum())
    if mass <= 0.0:
        raise ZeroProbabilityPair(f"pair (s={s!r}, b={b}) has zero probability")
    active = weights > 0.0
    return weights[active] @ t.e_given_ab[active, b] / mass


def prob_b_given_s_ref(prior, scheme, s, t) -> np.ndarray:
    row = scheme.pi[scheme.signal_index(s)]
    mass = float(row.sum())
    if mass <= 0.0:
        raise ZeroProbabilitySignal(f"signal {s!r} is never sent")
    active = row > 0.0
    return (row[active] / mass) @ t.b_given_a[active]


def induced_posterior_over_EB_ref(prior, scheme, s, t) -> np.ndarray:
    row = scheme.pi[scheme.signal_index(s)]
    mass = float(row.sum())
    if mass <= 0.0:
        raise ZeroProbabilitySignal(f"signal {s!r} is never sent")
    active = row > 0.0
    v = np.einsum("a,aeb->eb", row[active], t.eb_given_a[active])
    return v / mass


def scheme_terms_loop(prior: JointPrior, score: ScoreSpec,
                      scheme: SignalingScheme) -> tuple[float, float, float]:
    """(E_s G(p_s), E_{s,b} G(p_{s,b}), E_{A,B} G(p_{A,B})) by explicit
    loops over signals, Bob outcomes and (a, b) pairs, one posterior and one
    G evaluation at a time; zero-probability terms are skipped."""
    t = marginals_and_conditionals(prior)
    e_s = 0.0
    e_sb = 0.0
    for idx, label in enumerate(scheme.signal_labels):
        row = scheme.pi[idx]
        mass = float(row.sum())
        if mass <= 0.0:
            continue
        e_s += mass * eval_G(score, posterior_e_given_s_ref(prior, scheme,
                                                            label, t))
        for b in range(prior.n_bob):
            pair_mass = float(row @ t.b_given_a[:, b])
            if pair_mass <= 0.0:
                continue
            p_sb = posterior_e_given_sb_ref(prior, scheme, label, b, t)
            e_sb += pair_mass * eval_G(score, p_sb)
    e_ab = 0.0
    for a in range(prior.n_alice):
        for b in range(prior.n_bob):
            if t.mu_ab[a, b] > 0.0:
                e_ab += t.mu_ab[a, b] * eval_G(score, t.e_given_ab[a, b])
    return e_s, e_sb, e_ab


def certify_obedience_loop(prior, score, scheme, recommendations=None,
                           mass_threshold: float = 1e-10) -> float:
    """``exact.certify_obedience`` one signal and one Bob outcome at a time;
    recommendations are (i0, (i_b, ...)) pairs or decoded from labels."""
    t = marginals_and_conditionals(prior)
    u = score.utilities
    worst = 0.0
    for idx, label in enumerate(scheme.signal_labels):
        row = scheme.pi[idx]
        if row.sum() <= mass_threshold:
            continue
        if recommendations is not None:
            i0, ib = recommendations[idx]
        else:
            parts = [int(x) for x in label.split("-")]
            i0, ib = parts[0], parts[1:]
        vals = u @ posterior_e_given_s_ref(prior, scheme, label, t)
        worst = max(worst, float(vals.max() - vals[i0]))
        for b in range(prior.n_bob):
            if float(row @ t.b_given_a[:, b]) <= \
                    mass_threshold:
                continue
            vals = u @ posterior_e_given_sb_ref(prior, scheme, label, b, t)
            worst = max(worst, float(vals.max() - vals[ib[b]]))
    return worst


def grad_G_ref(score: ScoreSpec, w: np.ndarray) -> np.ndarray:
    if score.kind is ScoreKind.QUADRATIC:
        return 2.0 * w
    if score.kind is ScoreKind.LOG:
        with np.errstate(divide="ignore"):
            return np.log(w) + 1.0
    if score.kind is ScoreKind.SPHERICAL:
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            raise ValidationError("spherical gradient undefined at the origin")
        return w / nrm
    i = int(np.argmax(score.pieces_r @ w + score.pieces_b))
    return score.pieces_r[i].copy()


def expected_report_score_ref(score: ScoreSpec, w, q) -> float:
    """E_{e~q} R(w, e) for one report w and one belief q."""
    w = np.asarray(w, dtype=float)
    q = np.asarray(q, dtype=float)
    if score.kind is ScoreKind.LOG:
        if np.any((q > 0.0) & (w <= 0.0)):
            return float("-inf")
        mask = q > 0.0
        return float(np.sum(q[mask] * np.log(w[mask])))
    return float(eval_G(score, w) + grad_G_ref(score, w) @ (q - w))


def linearize_smooth_loop(score: ScoreSpec, points):
    """Tangent-plane slopes and offsets, one point at a time."""
    slopes, offsets = [], []
    for w in points:
        g = grad_G_ref(score, w)
        slopes.append(g)
        offsets.append(eval_G(score, w) - float(g @ w))
    return np.array(slopes), np.array(offsets)


def bob_report_ref(prior, believed, s, b, t) -> tuple[np.ndarray, bool]:
    if s in believed.signal_labels:
        row = believed.pi[believed.signal_index(s)]
        if float(row @ t.b_given_a[:, b]) > 0.0:
            return posterior_e_given_sb_ref(prior, believed, s, b, t), False
    if t.mu_b[b] <= 0.0:
        raise ValidationError(f"bob outcome {b} has zero prior probability")
    return t.mu_eb[:, b] / t.mu_b[b], True


def cross_belief_loop(prior, score, believed, actual):
    """(bob, alice, off_path_mass, divergence_mass) of
    ``oracle.cross_belief_utilities``, one (s, b) pair at a time."""
    t = marginals_and_conditionals(prior)
    e_s_term = 0.0
    bob = off_mass = diverged = 0.0
    for s in actual.signal_labels:
        row = actual.pi[actual.signal_index(s)]
        if row.sum() > 0.0:
            e_s_term += float(row.sum()) * eval_G(
                score, posterior_e_given_s_ref(prior, actual, s, t))
        for b in range(prior.n_bob):
            pair_mass = float(row @ t.b_given_a[:, b])
            if pair_mass <= 0.0:
                continue
            truth = posterior_e_given_sb_ref(prior, actual, s, b, t)
            report, off = bob_report_ref(prior, believed, s, b, t)
            if off:
                off_mass += pair_mass
            if float(np.abs(report - truth).sum()) > 1e-9:
                diverged += pair_mass
            bob += pair_mass * expected_report_score_ref(score, report, truth)
    bob -= e_s_term
    _, _, e_ab = scheme_terms_loop(prior, score, actual)
    alice = (e_s_term - eval_G(score, t.mu_e)) + (e_ab - (bob + e_s_term))
    return bob, alice, off_mass, diverged


def obedience_lp_loop(prior, score, profiles):
    """``exact.build_obedience_lp`` assembled one signal at a time, kept as
    its reference: (objective, a_eq, a_ub, b_ub)."""
    from abasolve.exact import _obedience_blocks

    k = score.k_pieces
    na, nb = prior.n_alice, prior.n_bob
    ue = _obedience_blocks(marginals_and_conditionals(prior), score)
    ue_a, ue_ab = ue[0], np.moveaxis(ue[1:], 0, 2)
    unc = ue_a[:, None, :] - ue_a[None, :, :]               # (k, k, na)
    con = ue_ab[:, None, :, :] - ue_ab[None, :, :, :]       # (k, k, na, nb)
    signals = np.asarray(profiles).tolist()
    n_vars = len(signals) * na
    objective = np.empty(n_vars)
    blocks = []
    for si, (i0, *ib) in enumerate(signals):
        sig_rows = np.empty((k + k * nb, na))
        sig_rows[:k] = -unc[i0]                          # -(rec - other) <= 0
        for b in range(nb):
            sig_rows[k + b * k:k + (b + 1) * k] = -con[ib[b], :, :, b]
        blocks.append(sig_rows)
        objective[si * na:(si + 1) * na] = \
            ue_a[i0] - sum(ue_ab[ib[b], :, b] for b in range(nb))
    total_rows = sum(b.shape[0] for b in blocks)
    a_ub = np.zeros((total_rows, n_vars))
    r = 0
    for si, block in enumerate(blocks):
        a_ub[r:r + block.shape[0], si * na:(si + 1) * na] = block
        r += block.shape[0]
    a_eq = np.zeros((na, n_vars))
    for a in range(na):
        a_eq[a, a::na] = 1.0
    return objective, a_eq, a_ub, np.zeros(total_rows)


def compact_lp_highs(prior, score) -> float:
    """Alice's optimum for piecewise G by the compact LP, solved by scipy's
    HiGHS: one unnormalised posterior z_j on A per pre-reveal action j,
    since merging the posteriors that share their pre-reveal argmax j
    cannot raise Bob's utility.  With ``_obedience_blocks``' weights ue,
    Bob's least utility is min sum_j (sum_b t_jb - ue[0, j] . z_j) subject
    to t_jb >= ue[1+b, i] . z_j for every i, sum_j z_j = mu_A and z >= 0:
    k (|A| + |B|) variables and k^2 |B| + |A| rows.  Alice's optimum is
    its negative."""
    from scipy.optimize import linprog

    from abasolve.exact import _obedience_blocks

    table = marginals_and_conditionals(prior)
    ue = _obedience_blocks(table, score)
    k, na, nb = ue.shape[1], prior.n_alice, prior.n_bob
    # variables: z (k, na) row-major, then t (k, nb); rows (j, b, i)
    a_ub = np.zeros((k, nb, k, k * na + k * nb))
    for j, b in itertools.product(range(k), range(nb)):
        a_ub[j, b, :, j * na:(j + 1) * na] = ue[1 + b]
        a_ub[j, b, :, k * na + j * nb + b] = -1.0
    res = linprog(np.concatenate((-ue[0].ravel(), np.ones(k * nb))),
                  A_ub=a_ub.reshape(k * nb * k, -1), b_ub=np.zeros(k * nb * k),
                  A_eq=np.hstack((np.tile(np.eye(na), k),
                                  np.zeros((na, k * nb)))),
                  b_eq=table.mu_a,
                  bounds=[(0.0, None)] * (k * na) + [(None, None)] * (k * nb),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun


def envelope_lp_tableau(cost, points, mu):
    """fptas-a's grid LP assembled for the dense tableau, kept as a
    reference for ``lp.solve_envelope``: maximize -cost.x over the |A|
    marginal rows plus the redundant sum(x) = 1 row.  Returns the minimum
    of cost.x."""
    from abasolve.lp import LinearProgram, LPStatus, solve_lp

    n, na = points.shape
    a_eq = np.empty((na + 1, n))
    a_eq[:na] = points.T
    a_eq[na] = 1.0
    b_eq = np.concatenate((mu, [1.0]))
    sol = solve_lp(LinearProgram(-np.asarray(cost), a_eq, b_eq,
                                 np.zeros((0, n)), np.zeros(0)))
    assert sol.status is LPStatus.OPTIMAL
    return -sol.objective


def dense_x(sol, n: int) -> np.ndarray:
    """The x of n columns that an envelope LP solution's basis gives: its
    basic values at its basic columns, 0 elsewhere."""
    x = np.zeros(n)
    x[sol.basis] = sol.x_basis
    return x


def envelope_simplex_loop(cost, points, mu, degen_limit: int,
                          tol: float = 1e-9):
    """``lp.solve_envelope``'s pivot rules written out one column at a time,
    kept as its reference: start at the vertex basis; enter the first
    column of least reduced cost (Dantzig), or the first column with a
    reduced cost below -tol once more than ``degen_limit`` degenerate pivots
    ran in a row (Bland); among tied ratio-test rows, the smallest basic
    column leaves.  Returns (x, y, pivots)."""
    n, m = points.shape
    basis = [next(j for j in range(n) if points[j, a] == 1.0)
             for a in range(m)]
    x_b = np.array(mu, dtype=float)
    pivots = degen = 0
    bland = False
    while True:
        b = points[basis].T
        y = np.linalg.solve(b.T, cost[basis])
        red = [cost[j] - sum(y[a] * points[j, a] for a in range(m))
               for j in range(n)]
        if bland:
            enter = next((j for j in range(n) if red[j] < -tol), None)
        else:
            enter = min(range(n), key=lambda j: (red[j], j))
            if red[enter] >= -tol:
                enter = None
        if enter is None:
            x = np.zeros(n)
            x[basis] = x_b
            return x, y, pivots
        d = np.linalg.solve(b, points[enter])
        ratios = [x_b[i] / d[i] if d[i] > tol else np.inf for i in range(m)]
        rmin = min(ratios)
        leave = min((i for i in range(m) if ratios[i] <= rmin + 1e-12),
                    key=lambda i: basis[i])
        degen = degen + 1 if rmin <= 1e-12 else 0
        bland = bland or degen > degen_limit
        x_b = x_b - rmin * d
        x_b[leave] = rmin
        basis[leave] = enter
        pivots += 1


def duplicate_piece_indices_loop(score: ScoreSpec) -> list[tuple[int, int]]:
    """``ScoreSpec.duplicate_piece_indices`` by comparing every pair of
    pieces with ``==``."""
    if score.kind is not ScoreKind.PIECEWISE:
        return []
    k = score.k_pieces
    return [(i, j) for i in range(k) for j in range(i + 1, k)
            if (score.pieces_r[i] == score.pieces_r[j]).all()
            and score.pieces_b[i] == score.pieces_b[j]]


def envelope_iterate_frozen(ext, basis, x_b, tol, max_iter, degen_limit):
    """``_kernels.envelope_iterate`` as it was before screened pricing,
    kept verbatim as its reference: every pivot prices every column in one
    np.dot.  Returns (status, iterations, y, red) with y and red from the
    last pricing pass."""
    m = ext.shape[0] - 1
    red = np.empty(ext.shape[1])
    weights = np.ones(m + 1)
    iters = 0
    degen = 0
    bland = False
    while True:
        b = ext[:m, basis]
        y = np.linalg.solve(b.T, ext[m, basis])
        weights[:m] = -y
        np.dot(weights, ext, out=red)
        enter = int(np.argmax(red < -tol)) if bland else int(np.argmin(red))
        if red[enter] >= -tol:
            return _kernels._STATUS_OPTIMAL, iters, y, red
        if iters >= max_iter:
            return _kernels._STATUS_ITERLIMIT, iters, y, red
        d = np.linalg.solve(b, ext[:m, enter])
        pos = d > tol
        if not pos.any():
            return _kernels._STATUS_UNBOUNDED, iters, y, red
        ratios = np.where(pos, x_b / np.where(pos, d, 1.0), np.inf)
        rmin = ratios.min()
        cand = np.nonzero(ratios <= rmin + 1e-12)[0]
        leave = int(cand[np.argmin(basis[cand])])
        if rmin <= 1e-12:
            degen += 1
            if degen > degen_limit:
                bland = True
        else:
            degen = 0
        x_b -= rmin * d
        x_b[leave] = rmin
        basis[leave] = enter
        iters += 1


# -- frozen copies of the exact solver's small-solve stages, as they were
# before their constant costs were cut; the bit-for-bit tests in
# test_exact.py compare the solver against them

def cross_frozen(sub: np.ndarray) -> np.ndarray:
    """``exact._cross`` by Laplace recursion with np.delete."""
    n = sub.shape[-1]
    if n == 1:
        return np.ones(sub.shape[:-2] + (1,))
    return np.stack([(-1) ** a * (np.delete(sub[..., 0, :], a, axis=-1) *
                                  cross_frozen(np.delete(sub[..., 1:, :], a,
                                                         axis=-1))).sum(axis=-1)
                     for a in range(n)], axis=-1)


def arrangement_points_frozen(ue: np.ndarray,
                              chunk: int = 65_536) -> np.ndarray:
    """``exact._arrangement_points`` with np.triu_indices and
    ``cross_frozen``."""
    _, k, na = ue.shape
    if na == 1:
        return np.eye(1)
    i, j = np.triu_indices(k, 1)
    normals = (ue[1:, i] - ue[1:, j]).reshape(-1, na)
    rows = np.concatenate((normals[np.abs(normals).max(axis=1) > 0.0],
                           np.eye(na)))
    points = [np.eye(na)]
    subsets = itertools.combinations(range(rows.shape[0]), na - 1)
    while (flat := np.fromiter(itertools.chain.from_iterable(
            itertools.islice(subsets, chunk)), dtype=np.intp)).size:
        v = cross_frozen(rows[flat.reshape(-1, na - 1)])
        v *= np.where(v.sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
        v = v[(v >= 0.0).all(axis=1) & (v > 0.0).any(axis=1)]
        points.append(v / v.sum(axis=1, keepdims=True))
    return np.concatenate(points)


def merge_profiles_frozen(w: np.ndarray, weights: np.ndarray,
                          ue: np.ndarray):
    """``solve_exact``'s merge of its support points by lowest-index argmax
    profile, with np.unique(axis=0) and np.add.at: (labels, pi)."""
    profile = np.einsum("va,cia->vci", w, ue).argmax(axis=2)
    profiles, group = np.unique(profile, axis=0, return_inverse=True)
    pi = np.zeros((profiles.shape[0], w.shape[1]))
    np.add.at(pi, group.ravel(), weights[:, None] * w)
    return tuple("-".join(map(str, p)) for p in profiles.tolist()), pi


def classify_against_benchmarks_frozen(prior: JointPrior, score: ScoreSpec,
                                       optimum: float):
    """``exact._classify_against_benchmarks`` through the two benchmark
    schemes' sender objectives: (classification, full-reveal objective,
    no-reveal objective)."""
    from abasolve import belief
    from abasolve.core import Classification, no_reveal_scheme
    from abasolve.exact import CLASSIFY_TOL

    full = belief.sender_objective(prior, score, full_reveal_scheme(prior))
    none = belief.sender_objective(prior, score, no_reveal_scheme(prior))
    full_opt = abs(optimum - full) <= CLASSIFY_TOL
    none_opt = abs(optimum - none) <= CLASSIFY_TOL
    if full_opt and none_opt:
        label = Classification.INDIFFERENT
    elif full_opt:
        label = Classification.SUBSTITUTES
    elif none_opt:
        label = Classification.COMPLEMENTS
    else:
        label = Classification.NEITHER
    return label, full, none
