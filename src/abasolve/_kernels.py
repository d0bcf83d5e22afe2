"""Hot numeric kernels: numba-compiled by default, pure numpy on request.

Setting the environment variable ``ABASOLVE_NO_NUMBA=1`` (or ``true``/``yes``)
selects the vectorized pure-numpy implementations.  Both paths implement the
same pivot/evaluation rules, so results agree to floating-point noise; the
dispatch is resolved once at import time.  ``tests/test_kernels.py`` checks
that the two paths agree when numba is installed.  ``pivot`` has no numba
twin: the numpy simplex and the LP driver's artificial drive-out share it.

Score kinds are passed as integer codes: 0 quadratic, 1 log, 2 spherical,
3 piecewise-linear (max-affine, pieces given as ``pr`` rows plus offsets
``pb``).  Non-piecewise calls pass empty ``pr``/``pb`` arrays.
"""

from __future__ import annotations

import os

import numpy as np

KIND_QUADRATIC = 0
KIND_LOG = 1
KIND_SPHERICAL = 2
KIND_PIECEWISE = 3

_STATUS_OPTIMAL = 0
_STATUS_UNBOUNDED = 1
_STATUS_ITERLIMIT = 2

_CHUNK = 131072  # fixed chunk size keeps the numpy path deterministic

NUMBA_DISABLED = os.environ.get("ABASOLVE_NO_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by ABASOLVE_NO_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def g_rows_np(p: np.ndarray, kind: int, pr: np.ndarray, pb: np.ndarray,
              clip: float) -> np.ndarray:
    """Evaluate G row-wise on an (N, n) array of simplex points."""
    p = np.atleast_2d(p)
    if kind == KIND_LOG and clip > 0.0:
        p = (p + clip) / (1.0 + p.shape[1] * clip)
    if kind == KIND_QUADRATIC:
        return np.einsum("ij,ij->i", p, p)
    if kind == KIND_LOG:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        return t.sum(axis=1)
    if kind == KIND_SPHERICAL:
        return np.sqrt(np.einsum("ij,ij->i", p, p))
    return (p @ pr.T + pb[None, :]).max(axis=1)


def ub_grid_wa_np(w: np.ndarray, bga: np.ndarray, egab: np.ndarray,
                  ega: np.ndarray, kind: int, pr: np.ndarray, pb: np.ndarray,
                  clip: float) -> np.ndarray:
    """Bob's utility u_B(w) at each row of ``w`` (posteriors over A).

    ``bga``  is mu(b|a) shaped (na, nb), ``egab`` is mu(e|a,b) shaped
    (na, nb, ne), ``ega`` is mu(e|a) shaped (na, ne); undefined conditionals
    must be zero-filled by the caller (such rows can never carry mass).
    """
    n = w.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        wc = w[lo:hi]
        lam = wc @ bga                                     # (c, nb)
        numer = np.einsum("ca,ab,abe->cbe", wc, bga, egab)  # (c, nb, ne)
        safe = np.where(lam > 0.0, lam, 1.0)
        post = numer / safe[:, :, None]
        gpost = g_rows_np(post.reshape(-1, post.shape[2]), kind, pr, pb,
                          clip).reshape(post.shape[0], post.shape[1])
        first = (np.where(lam > 0.0, lam, 0.0) * gpost).sum(axis=1)
        second = g_rows_np(wc @ ega, kind, pr, pb, clip)
        out[lo:hi] = first - second
    return out


def ub_grid_veb_np(v: np.ndarray, ne: int, nb: int, kind: int, pr: np.ndarray,
                   pb: np.ndarray, clip: float) -> np.ndarray:
    """Bob's utility u_B(v) at each row of ``v`` (posteriors over E x B).

    Rows are joint weights flattened e-major: v[:, e * nb + b].
    """
    n = v.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        vc = v[lo:hi].reshape(hi - lo, ne, nb)
        lam = vc.sum(axis=1)                               # (c, nb)
        safe = np.where(lam > 0.0, lam, 1.0)
        post = np.swapaxes(vc, 1, 2) / safe[:, :, None]    # (c, nb, ne)
        gpost = g_rows_np(post.reshape(-1, ne), kind, pr, pb,
                          clip).reshape(hi - lo, nb)
        first = (np.where(lam > 0.0, lam, 0.0) * gpost).sum(axis=1)
        second = g_rows_np(vc.sum(axis=2), kind, pr, pb, clip)
        out[lo:hi] = first - second
    return out


def compositions_np(k: int, d: int) -> np.ndarray:
    """All compositions of k into d nonnegative parts, lexicographic."""
    if d == 1:
        return np.array([[k]], dtype=np.int64)
    if d == 2:
        first = np.arange(k + 1, dtype=np.int64)
        return np.column_stack((first, k - first))
    blocks = []
    for first in range(k + 1):
        rest = compositions_np(k - first, d - 1)
        head = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack((head, rest)))
    return np.vstack(blocks)


def pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot tableau ``t`` on entry (row, col) in place; col enters the basis.

    Only rows with a nonzero entry in the entering column change, so each
    is updated on its own: no full-tableau temporary and no gathered copy
    of the touched rows.  Skipping the zero rows is the rule the numba
    kernel applies; the touched rows get the same values as a dense
    rank-one update.
    """
    prow = t[row]
    prow /= prow[col]
    for i in np.flatnonzero(t[:, col]):
        if i != row:
            t[i] -= t[i, col] * prow
    basis[row] = col


def simplex_iterate_np(t: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
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


def oracle_scan_np(comps: np.ndarray, n_alice: int, start: int, stop: int,
                   mu_ae: np.ndarray, mu_aeb: np.ndarray, kind: int,
                   pr: np.ndarray, pb: np.ndarray, clip: float):
    """Scan candidate schemes [start, stop) and return (best value, index).

    ``comps`` holds the P per-outcome signal-fraction rows (P, m); candidate
    c assigns row (c // P**a) % P to alice outcome a.  ``mu_ae`` is the joint
    mu(e, a) transposed to (na, ne); ``mu_aeb`` is mu(e, a, b) transposed to
    (na, ne, nb).  Sender objective: sum_s mass_s G(p_s) - sum_{s,b} mass_sb
    G(p_sb).  Ties keep the lowest candidate index.
    """
    p_count = comps.shape[0]
    m = comps.shape[1]
    ne = mu_ae.shape[1]
    nb = mu_aeb.shape[2]
    best_val = -np.inf
    best_idx = -1
    for lo in range(int(start), int(stop), _CHUNK):
        hi = min(lo + _CHUNK, int(stop))
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, n_alice), dtype=np.int64)
        q = idx
        for a in range(n_alice):
            digits[:, a] = q % p_count
            q = q // p_count
        fr = comps[digits]                                  # (c, na, m)
        numer = np.einsum("cam,ae->cme", fr, mu_ae)         # (c, m, ne)
        mass = numer.sum(axis=2)
        safe = np.where(mass > 0.0, mass, 1.0)
        g1 = g_rows_np((numer / safe[:, :, None]).reshape(-1, ne), kind, pr,
                       pb, clip).reshape(mass.shape)
        obj = (np.where(mass > 0.0, mass, 0.0) * g1).sum(axis=1)
        numer_b = np.einsum("cam,aeb->cmbe", fr, mu_aeb)    # (c, m, nb, ne)
        mass_b = numer_b.sum(axis=3)
        safe_b = np.where(mass_b > 0.0, mass_b, 1.0)
        g2 = g_rows_np((numer_b / safe_b[:, :, :, None]).reshape(-1, ne),
                       kind, pr, pb, clip).reshape(mass_b.shape)
        obj -= (np.where(mass_b > 0.0, mass_b, 0.0) * g2).sum(axis=(1, 2))
        chunk_best = int(np.argmax(obj))
        if obj[chunk_best] > best_val:
            best_val = float(obj[chunk_best])
            best_idx = lo + chunk_best
    return best_val, best_idx


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True)
    def _g_point(p, kind, pr, pb, clip):
        n = p.shape[0]
        if kind == 0:
            s = 0.0
            for i in range(n):
                s += p[i] * p[i]
            return s
        if kind == 1:
            z = 1.0 + n * clip
            s = 0.0
            for i in range(n):
                x = (p[i] + clip) / z if clip > 0.0 else p[i]
                if x > 0.0:
                    s += x * np.log(x)
            return s
        if kind == 2:
            s = 0.0
            for i in range(n):
                s += p[i] * p[i]
            return np.sqrt(s)
        best = -np.inf
        for j in range(pr.shape[0]):
            v = pb[j]
            for i in range(n):
                v += pr[j, i] * p[i]
            if v > best:
                best = v
        return best

    @njit(cache=True)
    def ub_grid_wa_nb(w, bga, egab, ega, kind, pr, pb, clip):
        n, na = w.shape
        nb = bga.shape[1]
        ne = ega.shape[1]
        out = np.empty(n)
        post = np.empty(ne)
        marg = np.empty(ne)
        for t in range(n):
            for e in range(ne):
                s = 0.0
                for a in range(na):
                    s += w[t, a] * ega[a, e]
                marg[e] = s
            total = -_g_point(marg, kind, pr, pb, clip)
            for b in range(nb):
                lam = 0.0
                for a in range(na):
                    lam += w[t, a] * bga[a, b]
                if lam > 0.0:
                    for e in range(ne):
                        s = 0.0
                        for a in range(na):
                            s += w[t, a] * bga[a, b] * egab[a, b, e]
                        post[e] = s / lam
                    total += lam * _g_point(post, kind, pr, pb, clip)
            out[t] = total
        return out

    @njit(cache=True)
    def ub_grid_veb_nb(v, ne, nb, kind, pr, pb, clip):
        n = v.shape[0]
        out = np.empty(n)
        post = np.empty(ne)
        marg = np.empty(ne)
        for t in range(n):
            for e in range(ne):
                s = 0.0
                for b in range(nb):
                    s += v[t, e * nb + b]
                marg[e] = s
            total = -_g_point(marg, kind, pr, pb, clip)
            for b in range(nb):
                lam = 0.0
                for e in range(ne):
                    lam += v[t, e * nb + b]
                if lam > 0.0:
                    for e in range(ne):
                        post[e] = v[t, e * nb + b] / lam
                    total += lam * _g_point(post, kind, pr, pb, clip)
            out[t] = total
        return out

    @njit(cache=True)
    def compositions_nb(k, d):
        count = 1
        num = 1
        den = 1
        for i in range(1, d):
            num *= k + i
            den *= i
        count = num // den
        out = np.empty((count, d), dtype=np.int64)
        comp = np.zeros(d, dtype=np.int64)
        comp[d - 1] = k
        idx = 0
        while True:
            for j in range(d):
                out[idx, j] = comp[j]
            idx += 1
            if idx == count:
                return out
            j = d - 2
            while j >= 0:
                tail = 0
                for i in range(j + 1, d):
                    tail += comp[i]
                if tail > 0:
                    break
                j -= 1
            comp[j] += 1
            for i in range(j + 1, d):
                comp[i] = 0
            tail2 = k
            for i in range(j + 1):
                tail2 -= comp[i]
            comp[d - 1] = tail2

    @njit(cache=True)
    def simplex_iterate_nb(t, basis, allowed, tol, max_iter, degen_limit):
        m = t.shape[0] - 1
        n = t.shape[1] - 1
        iters = 0
        degen = 0
        bland = False
        while True:
            if iters >= max_iter:
                return _STATUS_ITERLIMIT, iters
            enter = -1
            if bland:
                for j in range(n):
                    if allowed[j] and t[m, j] < -tol:
                        enter = j
                        break
                if enter < 0:
                    return _STATUS_OPTIMAL, iters
            else:
                best = np.inf
                for j in range(n):
                    if allowed[j] and t[m, j] < best:
                        best = t[m, j]
                        enter = j
                if enter < 0 or best >= -tol:
                    return _STATUS_OPTIMAL, iters
            rmin = np.inf
            for i in range(m):
                a = t[i, enter]
                if a > tol:
                    r = t[i, n] / a
                    if r < rmin:
                        rmin = r
            if rmin == np.inf:
                return _STATUS_UNBOUNDED, iters
            leave = -1
            for i in range(m):
                a = t[i, enter]
                if a > tol:
                    r = t[i, n] / a
                    if r <= rmin + 1e-12:
                        if leave < 0 or basis[i] < basis[leave]:
                            leave = i
            if rmin <= 1e-12:
                degen += 1
                if degen > degen_limit:
                    bland = True
            else:
                degen = 0
            piv = t[leave, enter]
            for j in range(n + 1):
                t[leave, j] /= piv
            for i in range(m + 1):
                if i != leave:
                    f = t[i, enter]
                    if f != 0.0:
                        for j in range(n + 1):
                            t[i, j] -= f * t[leave, j]
            basis[leave] = enter
            iters += 1

    @njit(cache=True)
    def oracle_scan_nb(comps, n_alice, start, stop, mu_ae, mu_aeb, kind, pr,
                       pb, clip):
        p_count = comps.shape[0]
        m = comps.shape[1]
        ne = mu_ae.shape[1]
        nb = mu_aeb.shape[2]
        best_val = -np.inf
        best_idx = -1
        numer = np.empty(ne)
        digits = np.empty(n_alice, dtype=np.int64)
        for c in range(start, stop):
            q = c
            for a in range(n_alice):
                digits[a] = q % p_count
                q //= p_count
            obj = 0.0
            for s in range(m):
                mass = 0.0
                for e in range(ne):
                    acc = 0.0
                    for a in range(n_alice):
                        acc += comps[digits[a], s] * mu_ae[a, e]
                    numer[e] = acc
                    mass += acc
                if mass > 0.0:
                    for e in range(ne):
                        numer[e] /= mass
                    obj += mass * _g_point(numer, kind, pr, pb, clip)
                for b in range(nb):
                    mass = 0.0
                    for e in range(ne):
                        acc = 0.0
                        for a in range(n_alice):
                            acc += comps[digits[a], s] * mu_aeb[a, e, b]
                        numer[e] = acc
                        mass += acc
                    if mass > 0.0:
                        for e in range(ne):
                            numer[e] /= mass
                        obj -= mass * _g_point(numer, kind, pr, pb, clip)
            if obj > best_val:
                best_val = obj
                best_idx = c
        return best_val, best_idx


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def ub_grid_wa(w, bga, egab, ega, kind, pr, pb, clip=0.0):
    if NUMBA_ENABLED:
        return ub_grid_wa_nb(np.ascontiguousarray(w), np.ascontiguousarray(bga),
                             np.ascontiguousarray(egab),
                             np.ascontiguousarray(ega), kind,
                             np.ascontiguousarray(pr),
                             np.ascontiguousarray(pb), clip)
    return ub_grid_wa_np(w, bga, egab, ega, kind, pr, pb, clip)


def ub_grid_veb(v, ne, nb, kind, pr, pb, clip=0.0):
    if NUMBA_ENABLED:
        return ub_grid_veb_nb(np.ascontiguousarray(v), ne, nb, kind,
                              np.ascontiguousarray(pr),
                              np.ascontiguousarray(pb), clip)
    return ub_grid_veb_np(v, ne, nb, kind, pr, pb, clip)


def compositions(k: int, d: int) -> np.ndarray:
    if NUMBA_ENABLED:
        return compositions_nb(k, d)
    return compositions_np(k, d)


def simplex_iterate(t, basis, allowed, tol, max_iter, degen_limit):
    if NUMBA_ENABLED:
        return simplex_iterate_nb(t, basis, allowed, tol, max_iter,
                                  degen_limit)
    return simplex_iterate_np(t, basis, allowed, tol, max_iter, degen_limit)


def oracle_scan(comps, n_alice, start, stop, mu_ae, mu_aeb, kind, pr, pb,
                clip=0.0):
    if NUMBA_ENABLED:
        return oracle_scan_nb(np.ascontiguousarray(comps), n_alice, start,
                              stop, np.ascontiguousarray(mu_ae),
                              np.ascontiguousarray(mu_aeb), kind,
                              np.ascontiguousarray(pr),
                              np.ascontiguousarray(pb), clip)
    return oracle_scan_np(comps, n_alice, start, stop, mu_ae, mu_aeb, kind,
                          pr, pb, clip)
