"""Shared generators and micro-oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from abasolve.belief import posterior_e_given_s, posterior_e_given_sb
from abasolve.core import JointPrior, SignalingScheme, \
    marginals_and_conditionals
from abasolve.scoring import ScoreSpec, eval_G, piecewise_score


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
        p_s = row[active] @ np.nan_to_num(t.e_given_a[active]) / mass
        total += mass * float((u @ p_s).max())
        for b in range(prior.n_bob):
            w = row * np.nan_to_num(t.b_given_a[:, b])
            pm = float(w.sum())
            if pm <= 0.0:
                continue
            act = w > 0.0
            p_sb = w[act] @ t.e_given_ab[act, b] / pm
            total -= pm * float((u @ p_sb).max())
    return total


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
        e_s += mass * eval_G(score, posterior_e_given_s(prior, scheme, label,
                                                        t))
        for b in range(prior.n_bob):
            pair_mass = float(row @ np.nan_to_num(t.b_given_a[:, b]))
            if pair_mass <= 0.0:
                continue
            p_sb = posterior_e_given_sb(prior, scheme, label, b, t)
            e_sb += pair_mass * eval_G(score, p_sb)
    e_ab = 0.0
    for a in range(prior.n_alice):
        for b in range(prior.n_bob):
            if t.mu_ab[a, b] > 0.0:
                e_ab += t.mu_ab[a, b] * eval_G(score, t.e_given_ab[a, b])
    return e_s, e_sb, e_ab


def feasible_intervals_loop(signals, unc, con, tol: float = 1e-12):
    """The |A| = 2 interval pruning as a loop over signals and rows, kept
    as the reference for ``exact._feasible_signals``: per signal,
    (lo, hi, rows attaining the bounds) or None when the interval is
    empty."""
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
