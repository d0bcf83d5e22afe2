"""Hot numeric kernels, in vectorized numpy.

``weighted_g`` is the one place G meets a posterior: it takes unnormalised
posteriors over E with their masses and returns mass * G(posterior).  The
u_B functionals in ``belief``, ``core`` and ``oracle``, the point and
tangent evaluations in ``scoring`` and the grid kernels here call it.
``pivot`` is shared by ``simplex_iterate`` and the LP driver's
artificial drive-out.  ``envelope_iterate`` is the pivot loop of the
revised simplex: it keeps no tableau, only an m x m basis.

``ub_grid_wa`` keeps the grid index as the fastest axis: its numerator is
one BLAS matmul of a precomputed (|B||E|, |A|) matrix with a chunk of the
grid transposed, and every later elementwise pass and length-|E| reduction
runs over contiguous grid rows rather than over the |E| = 2..4 axis.

``oracle_scan`` costs each point of the oracle's fraction lattice once
with ``ub_grid_wa``, not each candidate scheme: a signal's mass and
posterior on A depend on a candidate only through the fractions it gives
each alice outcome.  The candidates are the entries of a (P,)^|A| tensor,
and a signal's terms are that table indexed along every axis by the
signal's fraction codes, so the scan gathers whole trailing axes with
``np.take`` and decodes only the leading digits of each chunk's rows.

Every kernel that evaluates G takes the ``scoring.ScoreSpec`` itself, and
every one evaluates the score's own G: the solvers cost their points with
the G that ``belief`` reports and the certificates check.  This module
imports nothing else from the package, so ``ScoreKind``, the enum its
dispatch reads, is defined here and re-exported by ``scoring``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .core import ConditionalTable
    from .scoring import ScoreSpec


class ScoreKind(str, enum.Enum):
    QUADRATIC = "quadratic"
    LOG = "log"
    SPHERICAL = "spherical"
    PIECEWISE = "piecewise"


_STATUS_OPTIMAL = 0
_STATUS_UNBOUNDED = 1
_STATUS_ITERLIMIT = 2

_CHUNK = 131072  # fixed chunk size keeps results deterministic
# ub_grid_wa's chunk: 32,768 rows keep its (nb*ne, c) temporaries in cache;
# 131,072 ran 1.5x slower on a 10^6-row grid (one BLAS thread)
_WA_CHUNK = 32768
_LOG_FLOOR = np.finfo(float).smallest_subnormal


def g_rows_np(p: np.ndarray, score: ScoreSpec) -> np.ndarray:
    """Evaluate G row-wise on an (N, n) array of simplex points."""
    p = np.atleast_2d(p)
    kind = score.kind
    if kind is ScoreKind.QUADRATIC:
        return np.einsum("ij,ij->i", p, p)
    if kind is ScoreKind.LOG:
        # every positive float passes the floor unchanged, and a zero entry
        # contributes 0 * log(_LOG_FLOOR) = -0.0: p log p with 0 log 0 = 0
        return (p * np.log(np.maximum(p, _LOG_FLOOR))).sum(axis=1)
    if kind is ScoreKind.SPHERICAL:
        return np.sqrt(np.einsum("ij,ij->i", p, p))
    return (p @ score.pieces_r.T + score.pieces_b[None, :]).max(axis=1)


def weighted_g(numer: np.ndarray, mass: np.ndarray,
               score: ScoreSpec) -> np.ndarray:
    """mass * G(numer / mass) for each posterior, shaped like ``mass``.

    ``numer`` holds unnormalised posteriors over E along its last axis and
    ``mass`` their totals (leading axes alike).  Terms with mass <= 0 are
    dropped: their mass reads 0, and G is finite at any finite numerator.
    """
    safe = np.where(mass > 0.0, mass, 1.0)
    g = g_rows_np((numer / safe[..., None]).reshape(-1, numer.shape[-1]),
                  score).reshape(mass.shape)
    return np.where(mass > 0.0, mass, 0.0) * g


def ub_grid_wa(w: np.ndarray, table: ConditionalTable,
               score: ScoreSpec) -> np.ndarray:
    """Bob's utility u_B(w) at each row of ``w`` (posteriors over A).

    The coefficients mu(b|a), mu(e|a,b) and mu(e|a) come from the prior's
    ``table``, whose undefined conditionals read 0.0: they sit on a row
    that can never carry mass.

    The grid index is the fastest axis throughout.  mu(b|a) mu(e|a,b) is
    precomputed once as an (nb*ne, na) matrix ``m``, so for a chunk of rows
    ``wt = w[lo:hi].T`` (a view) the unnormalised posteriors after Bob's
    report are the one matmul ``m @ wt`` (nb*ne, c), Bob's report masses are
    ``mu(b|a).T @ wt`` and the posteriors before it ``mu(e|a).T @ wt``.  Each
    b's (c, ne) slice goes to ``weighted_g`` as a transposed view, with no
    copy.  Rows go in chunks of ``_WA_CHUNK``, so that the chunk's
    temporaries stay in cache.
    """
    bga, ega = table.b_given_a, table.e_given_a
    na, nb, ne = table.e_given_ab.shape
    m = (bga[:, :, None] * table.e_given_ab).reshape(na, nb * ne).T
    n = w.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _WA_CHUNK):
        hi = min(lo + _WA_CHUNK, n)
        wt = w[lo:hi].T
        numer = m @ wt                                     # (nb*ne, c)
        lam = bga.T @ wt                                   # (nb, c)
        first = weighted_g(numer[:ne].T, lam[0], score)
        for b in range(1, nb):
            first += weighted_g(numer[b * ne:(b + 1) * ne].T, lam[b], score)
        second = weighted_g((ega.T @ wt).T, np.ones(hi - lo), score)
        out[lo:hi] = first - second
    return out


def ub_grid_veb(v: np.ndarray, ne: int, nb: int,
                score: ScoreSpec) -> np.ndarray:
    """Bob's utility u_B(v) at each row of ``v`` (posteriors over E x B).

    Rows are joint weights flattened e-major: v[:, e * nb + b].
    """
    n = v.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        vc = v[lo:hi].reshape(hi - lo, ne, nb)
        first = weighted_g(np.swapaxes(vc, 1, 2), vc.sum(axis=1),
                           score).sum(axis=1)
        second = weighted_g(vc.sum(axis=2), np.ones(hi - lo), score)
        out[lo:hi] = first - second
    return out


def compositions(k: int, d: int) -> np.ndarray:
    """All compositions of k into d nonnegative parts, lexicographic.

    Built one part at a time: each prefix is repeated once for every value
    0..rest of the next part, where rest is what the prefix leaves of k.
    """
    cols = []
    rest = np.array([k], dtype=np.int64)
    for _ in range(d - 1):
        counts = rest + 1
        part = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
        cols = [np.repeat(c, counts) for c in cols] + [part]
        rest = np.repeat(rest, counts) - part
    return np.column_stack(cols + [rest])


def pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot tableau ``t`` on entry (row, col) in place; col enters the basis.

    Only rows with a nonzero entry in the entering column change, so each
    is updated on its own: no full-tableau temporary and no gathered copy
    of the touched rows.  The touched rows get the same values as a dense
    rank-one update.
    """
    prow = t[row]
    prow /= prow[col]
    for i in np.flatnonzero(t[:, col]):
        if i != row:
            t[i] -= t[i, col] * prow
    basis[row] = col


def simplex_iterate(t: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                    tol: float, max_iter: int, degen_limit: int):
    """Run primal simplex pivots on tableau ``t`` in place.

    Last row holds reduced costs (z_j - c_j) and the objective value in the
    rhs column; optimality for maximization is all reduced costs >= -tol.
    Returns (status, iterations).
    """
    m = t.shape[0] - 1
    n = t.shape[1] - 1
    red = t[m, :n]
    iters = 0
    degen = 0
    bland = False
    barred = ~allowed
    while True:
        if iters >= max_iter:
            return _STATUS_ITERLIMIT, iters
        if bland:
            neg = np.nonzero(allowed & (red < -tol))[0]
            if neg.size == 0:
                return _STATUS_OPTIMAL, iters
            enter = int(neg[0])
        else:
            priced = np.where(barred, np.inf, red)
            enter = int(np.argmin(priced))
            if priced[enter] >= -tol:
                return _STATUS_OPTIMAL, iters
        col = t[:m, enter]
        pos = col > tol
        if not pos.any():
            return _STATUS_UNBOUNDED, iters
        ratios = np.where(pos, t[:m, n] / np.where(pos, col, 1.0), np.inf)
        rmin = ratios.min()
        cand = np.nonzero(ratios <= rmin + 1e-12)[0]
        leave = int(cand[np.argmin(basis[cand])])
        if rmin <= 1e-12:
            degen += 1
            if degen > degen_limit:
                bland = True
        else:
            degen = 0
        pivot(t, basis, leave, enter)
        iters += 1


def envelope_iterate(ext: np.ndarray, basis: np.ndarray, x_b: np.ndarray,
                     tol: float, max_iter: int, degen_limit: int):
    """Run revised-simplex pivots for min c.x s.t. P^T x = mu, x >= 0.

    ``ext`` is the (m+1, n) row-major stack of P^T over the cost row c;
    ``basis`` holds the m basic columns and ``x_b`` their values, both
    updated in place.  Each pivot solves B^T y = c_B and prices every column
    in one matrix-vector product, red = [-y, 1] @ ext = c - y P^T, written
    into one preallocated buffer; optimality is all reduced costs >= -tol.
    Pricing and the ratio test follow ``simplex_iterate``.  Returns
    (status, iterations, y, red) with y and red from the last pricing pass.
    """
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
            return _STATUS_OPTIMAL, iters, y, red
        if iters >= max_iter:
            return _STATUS_ITERLIMIT, iters, y, red
        d = np.linalg.solve(b, ext[:m, enter])
        pos = d > tol
        if not pos.any():
            return _STATUS_UNBOUNDED, iters, y, red
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


def oracle_scan(comps: np.ndarray, n_alice: int, start: int, stop: int,
                table: ConditionalTable, score: ScoreSpec):
    """Scan candidate schemes [start, stop) and return (best value, index).

    ``comps`` holds the P per-outcome signal-fraction rows (P, m); candidate
    c assigns row (c // P**a) % P to alice outcome a, so signal s carries
    pi(s, a) = comps[d_a(c), s] mu(a).  The sender objective is
    -sum_s mass_s u_B(w_s), over the signals' masses and posteriors on A.
    Ties keep the lowest candidate index.

    A signal's term depends on the candidate only through its fraction
    vector q = (comps[d_a(c), s])_a, a point of the lattice V^na, where V
    holds the distinct fractions in ``comps``.  So the kernel tabulates
    -mass u_B(w) once per lattice point with ``ub_grid_wa`` (0 where the
    mass is 0), as a (V,)^na tensor t whose axis na - 1 - a is alice
    outcome a.  Candidate c = sum_a d_a P^a is entry (d_na-1, ..., d_0) of
    a (P,)^na tensor, and signal s's term there is t indexed along every
    axis by code[:, s], the lattice digit of each comps row's fraction s.

    The scan takes that tensor in chunks of whole blocks: j is the largest
    j <= na - 1 with P^j <= ``_CHUNK``, each leading index (d_na-1, ...,
    d_j) spans a block of P^j candidates whose j trailing axes are gathered
    whole with ``np.take``, and only the leading digits are decoded, for
    at most ``_CHUNK`` / P^j leading indices per chunk.  A chunk thus holds
    at most ``_CHUNK`` candidates (P <= ``_CHUNK``: the oracle's P is at
    most 5,151).  The terms are added as 0.0 + t_0 + t_1 + ..., in signal
    order, which is how the per-candidate sum rounds, signed zeros
    included.

    Size: the table holds V^na floats.  The oracle's ``comps`` are the
    compositions of den into m parts, over den, so V <= den + 1 and V <= P:
    the table has no more entries than there are candidates, and the
    oracle's limits (|A| <= 3, 1/grid_step <= 100) keep it within 101^3
    floats, 8.2 MB.
    """
    p_count, m = comps.shape
    vals, code = np.unique(comps, return_inverse=True)
    code = code.reshape(p_count, m)
    n_vals = vals.shape[0]
    # pi = q * mu(a) at lattice point sum_a digit_a V^a, digit a on axis
    # na - 1 - a, so no index arrays are built
    w = np.empty((n_vals,) * n_alice + (n_alice,))
    for a in range(n_alice):
        shape = [1] * n_alice
        shape[n_alice - 1 - a] = n_vals
        w[..., a] = (vals * table.mu_a[a]).reshape(shape)
    w = w.reshape(-1, n_alice)
    mass = w.sum(axis=1)
    w /= np.where(mass > 0.0, mass, 1.0)[:, None]
    cost = ub_grid_wa(w, table, score)
    del w                                       # freed before the scan
    cost *= -mass           # u_B is finite at w = 0: zero mass costs 0
    t = cost.reshape((n_vals,) * n_alice)

    j = n_alice - 1
    while p_count ** j > _CHUNK:
        j -= 1
    block = p_count ** j                    # candidates per leading index
    per_chunk = _CHUNK // block
    lead_shape = (p_count,) * (n_alice - j)
    best_val = -np.inf
    best_idx = -1
    lo, stop = int(start), int(stop)
    while lo < stop:
        r0 = lo // block
        r1 = min(r0 + per_chunk, p_count ** (n_alice - j))
        hi = min(stop, r1 * block)
        lead = np.unravel_index(np.arange(r0, r1), lead_shape)
        obj = np.zeros(hi - lo)
        for s in range(m):
            ts = t[tuple(code[d, s] for d in lead)]
            for ax in range(1, j + 1):
                ts = np.take(ts, code[:, s], axis=ax)
            obj += ts.reshape(-1)[lo - r0 * block:hi - r0 * block]
        chunk_best = int(np.argmax(obj))
        if obj[chunk_best] > best_val:
            best_val = float(obj[chunk_best])
            best_idx = lo + chunk_best
        lo = hi
    return best_val, best_idx
