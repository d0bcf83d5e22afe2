"""Hot numeric kernels, in vectorized numpy.

``weighted_g`` is the one place G meets a posterior with its mass: it
takes unnormalised posteriors over E with their masses and returns
mass * G(posterior), with G itself from ``g_rows_np``.  The u_B
functionals in ``belief``, ``core`` and ``oracle``, the point and tangent
evaluations in ``scoring`` and the grid kernels here call it; the grid
kernels cost their before-report posteriors, whose mass is 1, with
``g_rows_np`` directly.  Both skip their guard passes on rows that need
none.  ``pivot`` is shared by ``simplex_iterate`` and the LP driver's
artificial drive-out.  ``envelope_iterate`` is the pivot loop of the
revised simplex: it keeps no tableau, only an m x m basis, and on wide
LPs it prices only the column blocks whose bounds leave them a chance to
enter, with the full pass's pivots bit for bit.

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
# ub_grid_wa's chunk: 8,192 rows keep its (nb*ne, c) temporaries in cache
# and confine the guarded passes to the chunks that hold a zero; on one
# BLAS thread it ran as fast as 32,768 on a 10^6-row grid and 1.5-2x faster
# on 5*10^4 and 8*10^4 rows, and 131,072 ran 1.5x slower on 10^6 rows
_WA_CHUNK = 8192
_LOG_FLOOR = np.finfo(float).smallest_subnormal
# envelope_iterate's screened pricing: blocks of 1,024 columns (a multiple
# of 64, see there); it screens LPs of at least 64 blocks, and an LP prices
# in full from the first pivot where more than a quarter of them survive
_PRICE_BLOCK = 1024
_SCREEN_MIN_BLOCKS = 64
_SCREEN_MAX_SHARE = 0.25
_UNIT_ROUNDOFF = 2.0 ** -53


def g_rows_np(p: np.ndarray, score: ScoreSpec) -> np.ndarray:
    """Evaluate G row-wise on an (N, n) array of simplex points."""
    p = np.atleast_2d(p)
    kind = score.kind
    if kind is ScoreKind.QUADRATIC:
        return np.einsum("ij,ij->i", p, p)
    if kind is ScoreKind.LOG:
        # every positive float passes the floor unchanged, and a zero entry
        # contributes 0 * log(_LOG_FLOOR) = -0.0: p log p with 0 log 0 = 0;
        # so the floor pass runs only when some entry is not positive
        floored = p if p.min(initial=np.inf) > 0.0 else \
            np.maximum(p, _LOG_FLOOR)
        return (p * np.log(floored)).sum(axis=1)
    if kind is ScoreKind.SPHERICAL:
        return np.sqrt(np.einsum("ij,ij->i", p, p))
    return (p @ score.pieces_r.T + score.pieces_b[None, :]).max(axis=1)


def weighted_g(numer: np.ndarray, mass: np.ndarray,
               score: ScoreSpec) -> np.ndarray:
    """mass * G(numer / mass) for each posterior, shaped like ``mass``.

    ``numer`` holds unnormalised posteriors over E along its last axis and
    ``mass`` their totals (leading axes alike).  Terms with mass <= 0 are
    dropped: their mass reads 0, and G is finite at any finite numerator.
    When every mass is positive neither guard changes a value, so both
    passes are skipped.
    """
    if np.all(mass > 0.0):
        safe = weight = mass
    else:
        safe = np.where(mass > 0.0, mass, 1.0)
        weight = np.where(mass > 0.0, mass, 0.0)
    g = g_rows_np((numer / safe[..., None]).reshape(-1, numer.shape[-1]),
                  score).reshape(mass.shape)
    return weight * g


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
    copy; the posteriors before the report have mass 1 and go to
    ``g_rows_np`` directly.  Rows go in chunks of ``_WA_CHUNK``, so that the
    chunk's temporaries stay in cache and only the chunks that hold a
    zero mass or a zero posterior entry take the guarded passes.
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
        out[lo:hi] = first - g_rows_np((ega.T @ wt).T, score)
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
        out[lo:hi] = first - g_rows_np(vc.sum(axis=2), score)
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


def _block_ranges(ext: np.ndarray):
    """(lohi, scale) for screened pricing: lohi[0] and lohi[1] hold each
    ``ext`` row's minimum and maximum over each block of ``_PRICE_BLOCK``
    columns, and scale each row's largest magnitude."""
    rows, n = ext.shape
    whole = n - n % _PRICE_BLOCK
    blocks = ext[:, :whole].reshape(rows, -1, _PRICE_BLOCK)
    lohi = np.empty((2, rows, -(-n // _PRICE_BLOCK)))
    lohi[0, :, :blocks.shape[1]] = blocks.min(axis=2)
    lohi[1, :, :blocks.shape[1]] = blocks.max(axis=2)
    if whole < n:
        lohi[0, :, -1] = ext[:, whole:].min(axis=1)
        lohi[1, :, -1] = ext[:, whole:].max(axis=1)
    return lohi, np.abs(lohi).max(axis=(0, 2))


def _screened_bounds(weights: np.ndarray, lohi: np.ndarray,
                     scale: np.ndarray):
    """A lower bound on the computed reduced costs of each pricing block,
    or None when the bound may not hold and the pivot must price in full.

    Let w = ``weights`` = [-y, 1], M_i = ``scale[i]``,
    S = sum_i |w_i| M_i, u = 2^-53 and g = (m+1)u / (1 - (m+1)u).  In
    block k every column j has red_j = sum_i w_i ext_ij >= L_k =
    sum_i w_i r_ik, where r_ik is the row's block minimum when w_i >= 0
    and its maximum otherwise.  Both are sums of m+1 products whose
    magnitudes add up to at most S, and such a sum, added in any order
    with or without fused multiply-adds, is computed to within g S as
    long as no product underflows (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1).  So the computed values satisfy
    red'_j >= red_j - g S >= L_k - g S >= L'_k - 2 g S.  The screen
    subtracts d = fl(8(m+2) u S'), with S' >= (1 - g) S the computed S,
    and the subtraction rounds up by at most u(|L'_k| + d), where
    |L'_k| <= (1 + g) S.  The screened bound is thus at most
    L'_k - d (1 - u) + u (1 + g) S, which is at most L'_k - 2 g S, and so
    at most every red'_j, when d (1 - u) >= (2 g + u (1 + g)) S.  For any
    m below 2^40 the left side is at least 7(m+2) u S and the right side
    at most 3(m+2) u S.  The difference, 4(m+2) u S, also absorbs
    underflow, which adds at most 2^-1075 per product, 2(m+1) 2^-1075 in
    all: the screen runs only for 2^-1000 <= S' <= 2^1000, which also
    keeps every sum far from overflow.  Outside that range, and when S'
    is NaN (a NaN or infinite entry), the pivot prices in full, so a NaN
    cost is entered by np.argmin as before.
    """
    rows = weights.shape[0]
    s = float(np.abs(weights) @ scale)
    if not 2.0 ** -1000 <= s <= 2.0 ** 1000:
        return None
    bound = weights @ lohi[(weights < 0.0).astype(np.intp), np.arange(rows)]
    bound -= 8 * (rows + 1) * _UNIT_ROUNDOFF * s
    return bound


def _screened_pricing(ext: np.ndarray, weights: np.ndarray, red: np.ndarray,
                      lohi: np.ndarray, scale: np.ndarray):
    """Dantzig's entering column, priced only in the blocks that can hold
    it (``_screened_bounds``), and the count of reduced costs computed.
    The column is -1 when the pivot must price in full instead.

    The block of least bound is priced first, with np.dot on the aligned
    slice; its least reduced cost v bounds the entering one from above,
    and a block whose bound exceeds v holds only columns above v.  The
    blocks whose bound is at most v are priced and searched in ascending
    order, keeping the first strict minimum, which makes the column
    np.argmin's over the whole row.  When more than ``_SCREEN_MAX_SHARE``
    of the blocks survive, the pivot prices in full.
    """
    bound = _screened_bounds(weights, lohi, scale)
    if bound is None:
        return -1, 0
    n = ext.shape[1]
    first = int(np.argmin(bound))
    lo = first * _PRICE_BLOCK
    hi = min(lo + _PRICE_BLOCK, n)
    np.dot(weights, ext[:, lo:hi], out=red[lo:hi])
    priced = hi - lo
    keep = np.flatnonzero(bound <= red[lo:hi].min())
    if keep.size > _SCREEN_MAX_SHARE * bound.size:
        return -1, priced
    runs = []                   # [first, last + 1] of consecutive blocks
    for k in keep.tolist():
        if runs and runs[-1][1] == k:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
        if k != first:
            a = k * _PRICE_BLOCK
            b = min(a + _PRICE_BLOCK, n)
            np.dot(weights, ext[:, a:b], out=red[a:b])
            priced += b - a
    enter, best = -1, np.inf
    for k0, k1 in runs:         # each run searched in one argmin
        a = k0 * _PRICE_BLOCK
        j = a + int(red[a:min(k1 * _PRICE_BLOCK, n)].argmin())
        if red[j] < best:
            enter, best = j, red[j]
    return enter, priced


def envelope_iterate(ext: np.ndarray, basis: np.ndarray, x_b: np.ndarray,
                     tol: float, max_iter: int, degen_limit: int):
    """Run revised-simplex pivots for min c.x s.t. P^T x = mu, x >= 0.

    ``ext`` is the (m+1, n) row-major stack of P^T over the cost row c;
    ``basis`` holds the m basic columns and ``x_b`` their values, both
    updated in place.  Each pivot solves B^T y = c_B and prices the
    columns, red = [-y, 1] @ ext = c - y P^T, into one preallocated
    buffer; optimality is all reduced costs >= -tol.  Pricing and the
    ratio test follow ``simplex_iterate``.  Returns (status, iterations,
    y, least, priced): y and the least reduced cost (np.argmin's entry)
    from the last pricing pass, and the count of reduced costs computed
    over the run.

    Screened pricing (after the partial pricing of Dantzig and
    Orchard-Hays 1954).  When n spans at least ``_SCREEN_MIN_BLOCKS``
    blocks of ``_PRICE_BLOCK`` columns, each row's range over each block
    is recorded once, and a Dantzig pivot prices only the blocks whose
    lower bound on the reduced costs can hold the entering column
    (``_screened_pricing``).  Bland's rule, smaller LPs and a pivot at
    which too many blocks survive price every column in one np.dot.  A
    block's reduced costs are the full product's bit for bit: its np.dot
    runs on the slice ext[:, lo:hi] with lo a multiple of 64, where the
    BLAS vector loop is in step with the full product's, and a block is
    too small for BLAS to split across threads.  (OpenBLAS splits a
    product of more than about 4.6*10^5 entries across threads; the
    columns at its split round differently, so there the full product
    itself depends on the thread count.  With one BLAS thread, the pivots
    are the full pass's.)
    """
    m = ext.shape[0] - 1
    n = ext.shape[1]
    red = np.empty(n)
    weights = np.ones(m + 1)
    screen = _block_ranges(ext) \
        if n >= _SCREEN_MIN_BLOCKS * _PRICE_BLOCK else None
    iters = degen = priced = 0
    bland = False
    while True:
        b = ext[:m, basis]
        y = np.linalg.solve(b.T, ext[m, basis])
        weights[:m] = -y
        enter = -1
        if screen is not None and not bland:
            enter, count = _screened_pricing(ext, weights, red, *screen)
            priced += count
            if enter < 0 and count:     # too many blocks survived
                screen = None
        if enter < 0:
            np.dot(weights, ext, out=red)
            priced += n
            enter = int(np.argmax(red < -tol)) if bland \
                else int(np.argmin(red))
        status = None
        if red[enter] >= -tol:
            status = _STATUS_OPTIMAL
        elif iters >= max_iter:
            status = _STATUS_ITERLIMIT
        else:
            d = np.linalg.solve(b, ext[:m, enter])
            pos = d > tol
            if not pos.any():
                status = _STATUS_UNBOUNDED
        if status is not None:
            least = red[int(np.argmin(red))] if bland else red[enter]
            return status, iters, y, float(least), priced
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
    outcome a.  The lattice's pi is built as an (na, V^na) array, lattice
    point fastest: its masses are a sum over the leading axis, which adds
    the na terms in order from 0.0 as a row sum of the (V^na, na) layout
    would, and ``ub_grid_wa`` gets its transpose, whose chunks it reads
    back as contiguous (na, c) slices.

    Candidate c = sum_a d_a P^a is entry (d_na-1, ..., d_0) of a (P,)^na
    tensor, and signal s's term there is t indexed along every axis by
    code[:, s], the lattice digit of each comps row's fraction s.

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
    # na - 1 - a, so no index arrays are built; the lattice point is the
    # fastest axis of w, as in ub_grid_wa
    w = np.empty((n_alice,) + (n_vals,) * n_alice)
    for a in range(n_alice):
        shape = [1] * n_alice
        shape[n_alice - 1 - a] = n_vals
        w[a] = (vals * table.mu_a[a]).reshape(shape)
    w = w.reshape(n_alice, -1)
    mass = w.sum(axis=0)
    w /= np.where(mass > 0.0, mass, 1.0)
    cost = ub_grid_wa(w.T, table, score)
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
