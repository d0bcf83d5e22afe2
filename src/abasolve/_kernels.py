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
revised simplex: it keeps no tableau, only an m x m basis, and reads the
columns it needs from a ``_CostVector`` or a ``_SegmentCosts``.  On
fptas-a's |A| = 2 grid, a ``SegmentCost`` defined by K, it computes u_B
only in the column blocks that a convexity bound on u_B cannot rule out,
and prices only those, with the full pass's pivots bit for bit
(``_segment_tables``); each such block gets its own small array, and no
array is as long as the grid.

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
import math
from typing import TYPE_CHECKING, NamedTuple

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
_STATUS_NONFINITE = 3

_CHUNK = 131072  # fixed chunk size keeps results deterministic
# ub_grid_wa's chunk: 8,192 rows keep its (nb*ne, c) temporaries in cache
# and confine the guarded passes to the chunks that hold a zero; on one
# BLAS thread it ran as fast as 32,768 on a 10^6-row grid and 1.5-2x faster
# on 5*10^4 and 8*10^4 rows, and 131,072 ran 1.5x slower on 10^6 rows
_WA_CHUNK = 8192
_LOG_FLOOR = np.finfo(float).smallest_subnormal
# envelope_iterate's segment pricing: blocks of 1,024 columns (a multiple
# of 64, see there), and the margin of their bound (``_segment_tables``)
_PRICE_BLOCK = 1024
_SEGMENT_MARGIN = 2.0 ** -30


def g_rows_np(p: np.ndarray, score: ScoreSpec) -> np.ndarray:
    """Evaluate G row-wise on an (N, n) array of simplex points."""
    if getattr(p, "ndim", 0) != 2:
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
    if (mass > 0.0).all():
        safe = weight = mass
    else:
        safe = np.where(mass > 0.0, mass, 1.0)
        weight = np.where(mass > 0.0, mass, 0.0)
    g = g_rows_np((numer / safe[..., None]).reshape(-1, numer.shape[-1]),
                  score).reshape(mass.shape)
    return weight * g


def _wa_matrix(table: ConditionalTable) -> np.ndarray:
    """mu(b|a) mu(e|a,b) as the (nb*ne, na) matrix of ``ub_grid_wa``."""
    na, nb, ne = table.e_given_ab.shape
    return (table.b_given_a[:, :, None] *
            table.e_given_ab).reshape(na, nb * ne).T


def _ub_terms(wt: np.ndarray, m: np.ndarray, table: ConditionalTable,
              score: ScoreSpec):
    """(g, h) at the columns of ``wt`` (posteriors over A, one per column):
    g = sum_b m_b G(n_b / m_b) after Bob's report and h = G(p) before it,
    so that u_B = g - h.  ``m`` is ``_wa_matrix(table)``.  Each column's
    values depend on that column alone, not on the others in ``wt``: numpy
    sends a one-column matmul to BLAS's matrix-vector product, which rounds
    differently from the matrix product that two or more columns take, so a
    single column is costed as a pair."""
    if wt.shape[1] == 1:
        g, h = _ub_terms(np.repeat(wt, 2, axis=1), m, table, score)
        return g[:1], h[:1]
    ne = table.e_given_ab.shape[2]
    numer = m @ wt                                     # (nb*ne, c)
    lam = table.b_given_a.T @ wt                       # (nb, c)
    g = weighted_g(numer[:ne].T, lam[0], score)
    for b in range(1, lam.shape[0]):
        g += weighted_g(numer[b * ne:(b + 1) * ne].T, lam[b], score)
    return g, g_rows_np((table.e_given_a.T @ wt).T, score)


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
    zero mass or a zero posterior entry take the guarded passes.  The two
    terms come from ``_ub_terms`` and a row's value is their difference, so
    it does not depend on the other rows: ``ub_grid_wa(w[lo:hi])`` is
    ``ub_grid_wa(w)[lo:hi]`` bit for bit.
    """
    m = _wa_matrix(table)
    n = w.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _WA_CHUNK):
        hi = min(lo + _WA_CHUNK, n)
        g, h = _ub_terms(w[lo:hi].T, m, table, score)
        np.subtract(g, h, out=out[lo:hi])
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


def segment_rows(k: int, j: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Points j of fptas-a's |A| = 2 grid, w_j = (j/K, (K-j)/K) at K = k:
    the rows of a C-contiguous (len(j), 2) array, as ``ub_grid_wa`` reads
    them, or, given ``out``, the columns of that (2, len(j)) array, as a
    block of ``_SegmentCosts`` holds them.  j and K - j are exact floats,
    each divided once, so these are ``fptas.enumerate_k_uniform(2, k)``'s
    rows bit for bit."""
    j = np.asarray(j, dtype=float)
    if out is None:
        return segment_rows(k, j, np.empty((j.size, 2)).T).T
    np.divide(j, k, out=out[0])
    np.divide(k - j, k, out=out[1])
    return out


class SegmentCost(NamedTuple):
    """The cost row of fptas-a's |A| = 2 envelope LP at K = k: u_B under
    ``table`` and ``score`` at the k + 1 points of ``segment_rows``, for
    ``envelope_iterate`` to cost one block at a time."""

    k: int
    table: ConditionalTable
    score: ScoreSpec


class _NonFiniteCost(Exception):
    """A NaN or infinite cost, which no pivot can price."""


class _CostVector:
    """The columns of an envelope LP given its costs: ``ext``, the (m+1, n)
    row-major stack of P^T over the cost row, every column priced in one
    np.dot per pivot.  ``count`` is the number of costs, n."""

    def __init__(self, ext: np.ndarray):
        self.ext, self.count = ext, ext.shape[1]
        self.red = np.empty(ext.shape[1])

    def start(self, basis: np.ndarray) -> None:
        """Nothing: every cost is given."""

    def columns(self, j: np.ndarray):
        """The points (P^T's columns j) and the costs of columns j."""
        return self.ext[:-1, j], self.ext[-1, j]

    def column(self, j: int) -> np.ndarray:
        """The point of column j."""
        return self.ext[:-1, j]

    def price(self, weights: np.ndarray, y, tol: float):
        """The entering column, its reduced cost and the count priced: the
        first column below -tol under Bland's rule (y None), or column 0
        where there is none, else np.argmin's column."""
        red = self.red
        np.dot(weights, self.ext, out=red)
        enter = int(np.argmax(red < -tol)) if y is None \
            else int(np.argmin(red))
        return enter, red[enter], red.size

    def least(self):
        """The least reduced cost of the last pricing pass."""
        return self.red[int(np.argmin(self.red))]


class _SegmentCosts:
    """The columns of an envelope LP over a ``SegmentCost``, held one block
    of ``_PRICE_BLOCK`` columns at a time, and the lower bound on each
    block's reduced costs that lets pricing skip it.

    ``blocks`` holds, for each block costed so far, its own (3, <=
    ``_PRICE_BLOCK``) array: its two point rows (``segment_rows``) over
    its costs; None for the others.  No array spans the grid, so the LP's
    memory is O(K / ``_PRICE_BLOCK``) plus the blocks it costs: an array
    of 4 MB or more would be backed by 2 MB huge pages where the kernel
    gives them on request, and its sparse touches would fault in whole
    pages.  ``tables`` holds the bound's y-independent part
    (``_segment_tables``), or None where the proof's limits leave no
    bound.  ``row`` holds the reduced costs of the last pass over every
    block, the one pass that forms a row as long as the grid.  ``count``
    is the number of u_B values computed: the two ends of every block,
    then every costed block.
    """

    def __init__(self, cost: SegmentCost):
        self.cost, self.n = cost, cost.k + 1
        self.blocks = [None] * -(-self.n // _PRICE_BLOCK)
        self.red = np.empty(_PRICE_BLOCK)
        self.count = 0
        self.tables = None
        self.row = None

    def start(self, basis: np.ndarray) -> None:
        """Cost the blocks' ends and the blocks that hold the basis."""
        self.tables = _segment_tables(self)
        self.fill(np.unique(basis // _PRICE_BLOCK))

    def fill(self, blocks: np.ndarray) -> None:
        """Cost those of the ascending ``blocks`` that are not costed, one
        ``ub_grid_wa`` call per run of consecutive ones, and give each its
        array."""
        todo = np.array([k for k in blocks.tolist() if self.blocks[k] is None],
                        dtype=np.intp)
        if todo.size == 0:
            return
        n, cost = self.n, self.cost
        for run in np.split(todo, np.flatnonzero(np.diff(todo) != 1) + 1):
            lo = int(run[0]) * _PRICE_BLOCK
            hi = min((int(run[-1]) + 1) * _PRICE_BLOCK, n)
            self.count += hi - lo
            rows = segment_rows(cost.k, np.arange(lo, hi))
            c = ub_grid_wa(rows, cost.table, cost.score)
            if not np.isfinite(c).all():
                raise _NonFiniteCost
            for k in run.tolist():
                a = k * _PRICE_BLOCK
                b = min(a + _PRICE_BLOCK, hi)
                block = np.empty((3, b - a))
                segment_rows(cost.k, np.arange(a, b), block[:2])
                block[2] = c[a - lo:b - lo]
                self.blocks[k] = block

    def columns(self, j: np.ndarray):
        """The points and the costs of the costed columns j, read from their
        blocks' arrays into a (2, len(j)) and a (len(j),) array."""
        points, costs = np.empty((2, len(j))), np.empty(len(j))
        for i, col in enumerate(np.asarray(j).tolist()):
            block, r = divmod(col, _PRICE_BLOCK)
            points[:, i] = self.blocks[block][:2, r]
            costs[i] = self.blocks[block][2, r]
        return points, costs

    def column(self, j: int) -> np.ndarray:
        """The point of the costed column j."""
        return self.blocks[j // _PRICE_BLOCK][:2, j % _PRICE_BLOCK]

    def bounds(self, y: np.ndarray):
        """A lower bound on the computed reduced costs of each block at
        duals y, or None when there are no tables or |y|_1 lies outside
        the proof's range."""
        s = abs(float(y[0])) + abs(float(y[1]))
        if self.tables is None or not s <= 2.0 ** 900:
            return None
        v, t, scale = self.tables
        bound = (v - (y[1] + (y[0] - y[1]) * t)).min(axis=0)
        bound -= _SEGMENT_MARGIN * (scale + s)
        return bound

    def _least_in(self, weights: np.ndarray, k: int):
        """Block k's first column of least reduced cost, that cost and the
        block's size, by np.dot on the block's array."""
        block = self.blocks[k]
        red = self.red[:block.shape[1]]
        np.dot(weights, block, out=red)
        i = int(red.argmin())
        return k * _PRICE_BLOCK + i, red[i], red.size

    def price(self, weights: np.ndarray, y, tol: float):
        """The entering column, its reduced cost and the count of reduced
        costs computed: Dantzig's column, priced only in the blocks whose
        bound leaves them a chance to hold it.  With y None (Bland's rule),
        or where ``bounds`` gives none, every block is costed and priced
        into one row, as ``_CostVector.price`` prices it.

        The block of least bound is priced first; its least reduced cost v
        bounds the entering one from above, and a block whose bound
        exceeds v holds only columns above v.  The blocks whose bound is at
        most v, the first block among them, are priced in ascending order,
        one argmin per block, and np.argmin over the blocks' minima keeps
        the first, which makes the column np.argmin's over the whole row.
        """
        bound = None if y is None else self.bounds(y)
        if bound is None:
            self.fill(np.arange(len(self.blocks)))
            self.row = red = np.concatenate(
                [np.dot(weights, block) for block in self.blocks])
            enter = int(np.argmax(red < -tol)) if y is None \
                else int(np.argmin(red))
            return enter, red[enter], red.size
        first = int(np.argmin(bound))
        self.fill(np.array([first]))
        head = self._least_in(weights, first)
        blocks = np.flatnonzero(bound <= head[1])
        self.fill(blocks)
        cand = [head if k == first else self._least_in(weights, k)
                for k in blocks.tolist()]
        col, red, _ = cand[int(np.argmin([red for _, red, _ in cand]))]
        return col, red, sum(size for _, _, size in cand)

    def least(self):
        """The least reduced cost of the last pass over every block."""
        return self.row[int(np.argmin(self.row))]


def _segment_tables(costs: _SegmentCosts):
    """(v, t, scale): the y-independent part of ``_SegmentCosts.bounds``,
    after costing both ends of every block; None beyond the proof's limits,
    |E| + |B| > 2^16 or a scale (below) above 2^900.

    The grid, by construction: w_j = (t_j, s_j) = (fl(j/K), fl((K-j)/K))
    (``segment_rows``), and K < 2^52 for any grid that fits in memory.
    With u = 2^-53, rounding moves each term by at most u times itself, so
    by less than 1/(2K): t strictly ascends, and t_j + s_j lies within u
    of 1 exactly (2u as computed), within delta = 2^-49.

    The bound.  Let g and h be the exact real functions that ``_ub_terms``
    evaluates, built from the floats it reads (``_wa_matrix``, mu(b|a),
    mu(e|a)) taken as exact: g(w) = sum_b m_b(w) G(n_b(w) / m_b(w)), 0
    where m_b(w) = 0, and h(w) = G(p(w)), where n_b, m_b and p are linear
    in w with nonnegative coefficients, and m_b(w) = 0 forces n_b(w) = 0.
    Each of G's four forms is convex on the nonnegative orthant, its
    perspective m G(n / m) (0 at the origin) is convex, and so is a convex
    function of a linear map.  So along the line w(t) = (t, 1 - t),
    gl(t) = g(w(t)) and hl(t) = h(w(t)) are convex, and u_B = g - h.

    Block k holds columns [lo_k, hi_k), with ends a_k = t_lo and
    b_k = t_(hi-1), and a block with b_k > a_k has the secant line_k of
    gl through its ends.  A convex function lies below a chord between
    its ends and above the chord's extension outside them, so on
    [a_k, b_k], gl >= line_(k-1), gl >= line_(k+1) and -hl >= -chord_k,
    the chord of hl over the block.  An edge block, or one beside a
    block of one column, uses the one line it has.  Every column j of
    block k therefore has gl(t_j) - hl(t_j) - y.w(t_j) >= F_k(t_j), where
    F_k = max(line_(k-1), line_(k+1)) - chord_k - y.w is convex and
    piecewise linear with at most one kink, at the crossing point of the
    two lines.  Its least value on [a_k, b_k] is at a_k, at b_k or at the
    crossing point, whose position r in [0, 1] along the block is the
    sign change of the lines' difference; every term of F_k is affine, so
    its value there is the r-weighted mean of the ends' values.  ``v``
    holds max(lines) - chord at the three points and ``t`` their t, so a
    pivot's bound is min over the three of v - y.w(t), less the margin.

    The margin.  Let u = 2^-53, M_g and M_h the largest |g| and |h| over
    the computed ends, kappa = 1, or for a piecewise G, the larger of 1
    and max_i (max_e |r_ie| + |b_i|), lam_k the largest ratio by which
    block k's lines are extended (distance from the line's block over
    its width), L_k = (1 + 2 lam_k)(M_g + M_h + kappa) (``scale``) and
    S = |y|_1.  The bound subtracts 2^-30 (L_k + S).  The computed reduced
    cost of column j falls short of the exact F_k(t_j) only by:
    - Evaluation of g and h (assumed: np.log within 4 ulp, np.sqrt and
      every BLAS product and sum rounded once or fused).  n, m and p are
      sums of two nonnegative products (relative error gamma_2, with
      gamma_k = k u / (1 - k u)) and a posterior n_b / m_b is within
      gamma_5.  Quadratic and spherical G sum nonnegative terms, so are
      within gamma_(|E|+12) relatively; a log term q log q is within
      gamma_16 (|q log q| + q), and the terms share a sign; a piecewise
      piece r.q + b is within gamma_(|E|+8) kappa (1 + sum(q)), and max
      is exact.  Weighting by m_b and summing over b, the computed value
      is within c u (|g| + kappa (1 + sum(w))) of g, and so for h, with
      c = 2(|E| + |B|) + 40 <= 2^18.  Underflow adds at most 2^-1074 an
      operation, far below 2^-30 kappa.
    - Sizes inside a block: by the same convexity, gl on block k lies
      below the larger of its ends' values and above its lines, so
      |gl| <= (1 + 2 lam_k) M_g there, and so for hl; every |c_j| in the
      block is thus within L_k, up to the terms here.
    - The line: w_j lies within delta of w(t_j) in s only.  For
      quadratic, spherical and piecewise G, g and h change by at most
      3 kappa delta; for the log score, whose x log x has modulus
      2d (1 + log(1/d)) on [0, 2], concavity over g's |E||B| + |B| terms
      bounds the change by 4.02 delta (1 + log(|E||B| + |B|) + 34) <=
      2^-41.  y.w_j moves by at most S delta.
    - The secant extension: each line takes its ends' values, each off
      by at most c u (M + kappa) + 2^-41 kappa, out by lam_k of its width,
      so it is off by (1 + 2 lam_k) times that; the chord of h
      interpolates, so it is off by its ends' error.
    - The cost's subtraction c = fl(g - h): u |g - h| <= u L_k.
    - np.dot's rounding of c - y.w_j over m + 1 = 3 terms:
      gamma_3 (|c| + S (1 + delta)).
    - The bound's own arithmetic: v and t come from the ends' values by a
      few roundings each of terms below L_k (16 u L_k in all); r is within
      2u r of the computed lines' crossing, where their difference is
      below 4 L_k, so the value taken there exceeds the least by at most
      8 u L_k; y.w(t) is within 4 u S; and min and max are exact.
    Each term is at most 2^-33 (L_k + S), and their sum, with the
    rounding of the margin's own subtraction, is below 2^-31 (L_k + S),
    so the margin holds with room to spare.
    """
    cost, n = costs.cost, costs.n
    _, nb, ne = cost.table.e_given_ab.shape
    if ne + nb > 2 ** 16:
        return None
    lo = np.arange(0, n, _PRICE_BLOCK)
    ends = np.stack((lo, np.minimum(lo + _PRICE_BLOCK, n) - 1), axis=1)
    costs.count += ends.size
    rows = segment_rows(cost.k, ends.ravel())
    g, h = _ub_terms(rows.T, _wa_matrix(cost.table), cost.table, cost.score)
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        raise _NonFiniteCost
    ta, tb = rows[0::2, 0], rows[1::2, 0]
    ga, gb = g[0::2], g[1::2]
    ha, hb = h[0::2], h[1::2]
    width = tb - ta
    has = width > 0.0
    slope = np.zeros_like(width)
    np.divide(gb - ga, width, out=slope, where=has)
    nk = width.size
    # A[0]: the left line (block k-1, extended from its right end) less
    # the chord of h, at the block's ends; A[1]: the right line (block
    # k+1, extended from its left end)
    a = np.zeros((2, 2, nk))
    lam = np.zeros((2, nk))
    left, right = np.zeros(nk, bool), np.zeros(nk, bool)
    left[1:], right[:-1] = has[:-1], has[1:]
    a[0, 0, 1:] = gb[:-1] + slope[:-1] * (ta[1:] - tb[:-1])
    a[0, 1, 1:] = gb[:-1] + slope[:-1] * (tb[1:] - tb[:-1])
    a[1, 0, :-1] = ga[1:] + slope[1:] * (ta[:-1] - ta[1:])
    a[1, 1, :-1] = ga[1:] + slope[1:] * (tb[:-1] - ta[1:])
    np.divide(tb[1:] - tb[:-1], width[:-1], out=lam[0, 1:], where=left[1:])
    np.divide(ta[1:] - ta[:-1], width[1:], out=lam[1, :-1], where=right[:-1])
    a[0] = np.where(left, a[0], a[1])
    a[1] = np.where(right, a[1], a[0])
    a -= np.stack((ha, hb))
    d = a[0] - a[1]
    cross = ((d[0] > 0.0) & (d[1] < 0.0)) | ((d[0] < 0.0) & (d[1] > 0.0))
    r = np.zeros(nk)
    np.divide(d[0], d[0] - d[1], out=r, where=cross)
    v = np.stack((a[:, 0].max(axis=0), a[:, 1].max(axis=0),
                  np.maximum((1.0 - r) * a[0, 0] + r * a[0, 1],
                             (1.0 - r) * a[1, 0] + r * a[1, 1])))
    v[:, ~(left | right)] = -np.inf
    kappa = 1.0
    if cost.score.kind is ScoreKind.PIECEWISE:
        kappa = max(1.0, float((np.abs(cost.score.pieces_r).max(axis=1) +
                                np.abs(cost.score.pieces_b)).max()))
    scale = (1.0 + 2.0 * lam.max(axis=0)) * \
        (np.abs(g).max() + np.abs(h).max() + kappa)
    if not scale.max() <= 2.0 ** 900:
        return None
    return v, np.stack((ta, tb, ta + r * width)), scale


def envelope_iterate(columns, basis: np.ndarray, x_b: np.ndarray,
                     tol: float, max_iter: int, degen_limit: int):
    """Run revised-simplex pivots for min c.x s.t. P^T x = mu, x >= 0.

    ``columns`` gives the LP's columns, P^T over the cost row c: a
    ``_CostVector`` or a ``_SegmentCosts``.  ``basis`` holds the m basic
    columns and ``x_b`` their values, both updated in place.  Each pivot
    solves B^T y = c_B and prices the columns, red = [-y, 1] @ [P^T; c] =
    c - y P^T; optimality is all reduced costs >= -tol.  Pricing and the
    ratio test follow ``simplex_iterate``; the ratio test runs over the m
    basic values as Python floats, whose division and comparisons round
    as numpy's do.  Returns (status, iterations,
    y, least, priced, costed): y and the least reduced cost (np.argmin's
    entry) from the last pricing pass, the count of reduced costs
    computed over the run and the count of costs computed.  A NaN or
    infinite cost stops the run with ``_STATUS_NONFINITE`` (y and least
    None) as soon as it is computed.

    A ``_CostVector`` prices every column in one np.dot per pivot.  A
    ``_SegmentCosts`` holds only the blocks of ``_PRICE_BLOCK`` columns it
    has costed, each in its own array: the blocks that hold the basis are
    costed before the first y, and a Dantzig pivot costs and prices only
    the blocks whose lower bound on the reduced costs can hold the
    entering column (the bound and the proof of its margin are in
    ``_segment_tables``).  Bland's rule, and a pivot beyond the bound's
    limits, cost every block and price them block by block.  A block's
    reduced costs are the full product's bit for bit: its np.dot starts
    at a column that is a multiple of 64, where the BLAS vector loop is in
    step with the full product's, and a block is too small for BLAS to
    split across threads, so a segment LP's pivots do not depend on the
    BLAS thread count.  (A whole-row product of more than about 4.6*10^5
    entries is split across OpenBLAS threads, and the columns at the split
    round differently.)
    """
    m = basis.size
    weights = np.ones(m + 1)
    iters = degen = priced = 0
    bland = False
    try:
        columns.start(basis)
        while True:
            b, c_b = columns.columns(basis)
            y = np.linalg.solve(b.T, c_b)
            weights[:m] = -y
            enter, reduced, count = columns.price(weights,
                                                  None if bland else y, tol)
            priced += count
            status = None
            if reduced >= -tol:
                status = _STATUS_OPTIMAL
            elif iters >= max_iter:
                status = _STATUS_ITERLIMIT
            else:
                d = np.linalg.solve(b, columns.column(enter))
                ratios = [x / di if di > tol else math.inf
                          for x, di in zip(x_b.tolist(), d.tolist())]
                rmin = min(ratios)
                if rmin == math.inf:
                    status = _STATUS_UNBOUNDED
            if status is not None:
                least = columns.least() if bland else reduced
                return (status, iters, y, float(least), priced,
                        columns.count)
            cut = rmin + 1e-12
            leave = min((i for i in range(m) if ratios[i] <= cut),
                        key=basis.__getitem__)
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
    except _NonFiniteCost:
        return _STATUS_NONFINITE, iters, None, None, priced, columns.count


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
