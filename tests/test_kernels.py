"""The kernels against frozen copies of the loops they replaced.

``*_ref`` below are the earlier kernels, kept verbatim (including the
recursive composition builder) as references: the current kernels must
reproduce them bit for bit, not merely to a tolerance.  The one exception
is ``ub_grid_wa_ref``, the three-operand einsum form of ``ub_grid_wa``: the
kernel's numerator is now a matmul, which rounds differently, so the kernel
matches it to ``UB_ATOL`` and matches ``ub_grid_wa_frozen``, a frozen copy
of the matmul form, bit for bit.  The frozen copies evaluate G with
``g_rows_frozen``, ``g_rows_np`` as it was before its log branch skipped
the floor pass on rows with no zero.  ``oracle_scan_per_candidate`` is the
oracle scan as it was before the lattice table: it evaluates every
candidate's posteriors, and the memory test compares against it.

``oracle_scan`` matches those two references to ``SCAN_ATOL`` only: it
costs a signal as -mass u_B(w) through ``ub_grid_wa``, from its posterior
w on A, where the references evaluate the posteriors over E directly, so
the rounding differs.  Candidates that tie in exact arithmetic
(uninformative splits, where signals share one posterior) may then swap,
so the returned index is checked by the reference's own objective there.
``oracle_scan_frozen`` is the lattice-table scan as it was before the
per-axis gather, decoding every candidate's lattice index; its arithmetic
is the same, so ``oracle_scan`` matches it bit for bit, signed zeros
included.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from abasolve import _kernels, instances
from abasolve._kernels import g_rows_np
from abasolve.core import marginals_and_conditionals
from abasolve.scoring import (ScoreKind, ScoreSpec, log_score,
                              piecewise_score, quadratic_score,
                              spherical_score)

from helpers import random_prior, random_simplex

CHUNK = 131072
WA_CHUNK = 32768
UB_ATOL = 1e-14
SCAN_ATOL = 1e-12


def g_rows_frozen(p, score):
    """``g_rows_np`` as it was before its log branch skipped the floor."""
    p = np.atleast_2d(p)
    kind = score.kind
    if kind is ScoreKind.QUADRATIC:
        return np.einsum("ij,ij->i", p, p)
    if kind is ScoreKind.LOG:
        return (p * np.log(np.maximum(p, _kernels._LOG_FLOOR))).sum(axis=1)
    if kind is ScoreKind.SPHERICAL:
        return np.sqrt(np.einsum("ij,ij->i", p, p))
    return (p @ score.pieces_r.T + score.pieces_b[None, :]).max(axis=1)


def ub_grid_wa_ref(w, bga, egab, ega, score):
    n = w.shape[0]
    out = np.empty(n)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        wc = w[lo:hi]
        lam = wc @ bga
        numer = np.einsum("ca,ab,abe->cbe", wc, bga, egab)
        safe = np.where(lam > 0.0, lam, 1.0)
        post = numer / safe[:, :, None]
        gpost = g_rows_np(post.reshape(-1, post.shape[2]),
                          score).reshape(post.shape[0], post.shape[1])
        first = (np.where(lam > 0.0, lam, 0.0) * gpost).sum(axis=1)
        second = g_rows_np(wc @ ega, score)
        out[lo:hi] = first - second
    return out


def ub_grid_wa_frozen(w, bga, egab, ega, score):
    na, nb, ne = egab.shape
    m = (bga[:, :, None] * egab).reshape(na, nb * ne).T
    n = w.shape[0]
    out = np.empty(n)
    for lo in range(0, n, WA_CHUNK):
        hi = min(lo + WA_CHUNK, n)
        wt = w[lo:hi].T
        numer = m @ wt
        lam = bga.T @ wt
        first = None
        for b in range(nb):
            safe = np.where(lam[b] > 0.0, lam[b], 1.0)
            post = numer[b * ne:(b + 1) * ne].T / safe[:, None]
            term = np.where(lam[b] > 0.0, lam[b], 0.0) * g_rows_frozen(
                post, score)
            first = term if first is None else first + term
        out[lo:hi] = first - g_rows_frozen((ega.T @ wt).T, score)
    return out


def ub_grid_veb_ref(v, ne, nb, score):
    n = v.shape[0]
    out = np.empty(n)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        vc = v[lo:hi].reshape(hi - lo, ne, nb)
        lam = vc.sum(axis=1)
        safe = np.where(lam > 0.0, lam, 1.0)
        post = np.swapaxes(vc, 1, 2) / safe[:, :, None]
        gpost = g_rows_frozen(post.reshape(-1, ne),
                              score).reshape(hi - lo, nb)
        first = (np.where(lam > 0.0, lam, 0.0) * gpost).sum(axis=1)
        second = g_rows_frozen(vc.sum(axis=2), score)
        out[lo:hi] = first - second
    return out


def compositions_ref(k, d):
    if d == 1:
        return np.array([[k]], dtype=np.int64)
    if d == 2:
        first = np.arange(k + 1, dtype=np.int64)
        return np.column_stack((first, k - first))
    blocks = []
    for first in range(k + 1):
        rest = compositions_ref(k - first, d - 1)
        head = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack((head, rest)))
    return np.vstack(blocks)


def oracle_scan_ref(comps, n_alice, start, stop, mu_ae, mu_aeb, score):
    p_count = comps.shape[0]
    ne = mu_ae.shape[1]
    best_val = -np.inf
    best_idx = -1
    for lo in range(int(start), int(stop), CHUNK):
        hi = min(lo + CHUNK, int(stop))
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, n_alice), dtype=np.int64)
        q = idx
        for a in range(n_alice):
            digits[:, a] = q % p_count
            q = q // p_count
        fr = comps[digits]
        numer = np.einsum("cam,ae->cme", fr, mu_ae)
        mass = numer.sum(axis=2)
        safe = np.where(mass > 0.0, mass, 1.0)
        g1 = g_rows_np((numer / safe[:, :, None]).reshape(-1, ne),
                       score).reshape(mass.shape)
        obj = (np.where(mass > 0.0, mass, 0.0) * g1).sum(axis=1)
        numer_b = np.einsum("cam,aeb->cmbe", fr, mu_aeb)
        mass_b = numer_b.sum(axis=3)
        safe_b = np.where(mass_b > 0.0, mass_b, 1.0)
        g2 = g_rows_np((numer_b / safe_b[:, :, :, None]).reshape(-1, ne),
                       score).reshape(mass_b.shape)
        obj -= (np.where(mass_b > 0.0, mass_b, 0.0) * g2).sum(axis=(1, 2))
        chunk_best = int(np.argmax(obj))
        if obj[chunk_best] > best_val:
            best_val = float(obj[chunk_best])
            best_idx = lo + chunk_best
    return best_val, best_idx


def oracle_scan_per_candidate(comps, n_alice, start, stop, mu_ae, mu_aeb,
                              score):
    p_count = comps.shape[0]
    best_val = -np.inf
    best_idx = -1
    for lo in range(int(start), int(stop), CHUNK):
        hi = min(lo + CHUNK, int(stop))
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, n_alice), dtype=np.int64)
        q = idx
        for a in range(n_alice):
            digits[:, a] = q % p_count
            q = q // p_count
        fr = comps[digits]
        numer = np.einsum("cam,ae->cme", fr, mu_ae)
        obj = _kernels.weighted_g(numer, numer.sum(axis=2),
                                  score).sum(axis=1)
        numer_b = np.einsum("cam,aeb->cmbe", fr, mu_aeb)
        obj -= _kernels.weighted_g(numer_b, numer_b.sum(axis=3),
                                   score).sum(axis=(1, 2))
        chunk_best = int(np.argmax(obj))
        if obj[chunk_best] > best_val:
            best_val = float(obj[chunk_best])
            best_idx = lo + chunk_best
    return best_val, best_idx


def oracle_scan_frozen(comps, n_alice, start, stop, table, score):
    p_count, m = comps.shape
    vals, code = np.unique(comps, return_inverse=True)
    n_vals = vals.shape[0]
    code_w = [code.reshape(p_count, m) * n_vals ** a for a in range(n_alice)]
    w = np.empty((n_vals,) * n_alice + (n_alice,))
    for a in range(n_alice):
        shape = [1] * n_alice
        shape[n_alice - 1 - a] = n_vals
        w[..., a] = (vals * table.mu_a[a]).reshape(shape)
    w = w.reshape(-1, n_alice)
    mass = w.sum(axis=1)
    w /= np.where(mass > 0.0, mass, 1.0)[:, None]
    cost = _kernels.ub_grid_wa(w, table, score)
    del w
    cost *= -mass

    best_val = -np.inf
    best_idx = -1
    for lo in range(int(start), int(stop), CHUNK):
        hi = min(lo + CHUNK, int(stop))
        q, digit = np.divmod(np.arange(lo, hi, dtype=np.int64), p_count)
        ell = code_w[0][digit]
        for a in range(1, n_alice):
            q, digit = np.divmod(q, p_count)
            ell += code_w[a][digit]
        obj = cost[ell].sum(axis=1)
        chunk_best = int(np.argmax(obj))
        if obj[chunk_best] > best_val:
            best_val = float(obj[chunk_best])
            best_idx = lo + chunk_best
    return best_val, best_idx


def score_kinds(rng, ne):
    """One score of each of the four kinds."""
    return (
        quadratic_score(),
        log_score(),
        spherical_score(),
        ScoreSpec(ScoreKind.PIECEWISE, rng.uniform(-1.0, 1.0, size=(4, ne)),
                  rng.uniform(-1.0, 1.0, size=4)),
    )


SHAPES = ((2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 1))


def _grid(rng, n, d):
    return np.array([random_simplex(rng, d) for _ in range(n)])


def _boundary_prior(rng, ne, na, nb):
    """A prior with zero entries, including a zero-mass alice outcome."""
    prior = random_prior(rng, ne=ne, na=na, nb=nb)
    p = prior.p.copy()
    p[rng.random(p.shape) < 0.3] = 0.0
    p[:, -1, :] = 0.0
    return type(prior)(p / p.sum())


def test_g_rows_np_kinds():
    p = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert _kernels.g_rows_np(p, quadratic_score()) == \
        pytest.approx([0.5, 1.0])
    logs = _kernels.g_rows_np(p, log_score())
    assert logs == pytest.approx([-0.6931471805599453, 0.0])
    sph = _kernels.g_rows_np(p, spherical_score())
    assert sph == pytest.approx([np.sqrt(0.5), 1.0])
    score = piecewise_score([((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.25)])
    assert _kernels.g_rows_np(p, score) == pytest.approx([0.25, 1.0])


def test_g_rows_np_log_matches_guarded_sum():
    # the zero-guarded form of p log p with 0 log 0 = 0, bit for bit, on
    # rows with zeros and subnormal entries, C-ordered and as the
    # transposed views ub_grid_wa passes
    # (with zero entries, the floor pass runs; without, it is skipped)
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 6):
        p = rng.dirichlet(np.full(n, 0.3), size=2000)
        p[rng.random(p.shape) < 0.2] = 0.0
        p[:5, 0] = 5e-324
        positive = rng.dirichlet(np.ones(n), size=2000)
        positive[:5, 0] = 5e-324
        for q in (p, positive):
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)),
                               0.0).sum(axis=1)
            for rows in (q, np.ascontiguousarray(q.T).T):
                assert g_rows_np(rows, log_score()).tobytes() == \
                    ref.tobytes(), n


def test_compositions_paths_agree():
    for d, k in ((1, 5), (2, 7), (3, 6), (4, 5), (2, 0), (5, 0), (1, 0),
                 (3, 40), (6, 7), (2, 999)):
        got = _kernels.compositions(k, d)
        assert got.dtype == np.int64
        assert np.array_equal(got, compositions_ref(k, d)), (k, d)


@pytest.mark.parametrize("ne,na,nb", SHAPES)
def test_ub_grid_wa_matches_reference(ne, na, nb):
    rng = np.random.default_rng(73 + 7 * ne + 5 * na + nb)
    for prior in (random_prior(rng, ne=ne, na=na, nb=nb),
                  _boundary_prior(rng, ne, na, nb)):
        table = marginals_and_conditionals(prior)
        grid = np.vstack((_grid(rng, 300, na), np.eye(na)))
        for score in score_kinds(rng, ne):
            args = (grid, table.b_given_a, table.e_given_ab, table.e_given_a,
                    score)
            got = _kernels.ub_grid_wa(grid, table, score)
            assert np.array_equal(got, ub_grid_wa_frozen(*args)), score.kind
            np.testing.assert_allclose(got, ub_grid_wa_ref(*args), rtol=0.0,
                                       atol=UB_ATOL, err_msg=score.kind)


@pytest.mark.parametrize("ne,na,nb", SHAPES)
def test_ub_grid_wa_mixed_chunks_match_frozen_bit_for_bit(ne, na, nb):
    # chunk 0 is all positive, so every term skips the guarded passes;
    # chunks 1 and 2 mix positive rows with rows of zero mass (the lattice
    # origin w = 0, as the oracle's scan passes it) and rows with zero
    # entries (vertices and edges, whose posteriors hold zeros), so their
    # terms take the guarded passes.  Signed zeros must match too.
    rng = np.random.default_rng(113 + 7 * ne + 5 * na + nb)
    c = _kernels._WA_CHUNK
    grid = rng.dirichlet(np.ones(na), size=2 * c + 700)
    grid[c + rng.integers(c + 700, size=40)] = 0.0
    edge = c + rng.integers(c + 700, size=60)
    grid[edge, rng.integers(na, size=60)] = 0.0
    grid[edge] /= np.where(grid[edge].sum(axis=1) > 0.0,
                           grid[edge].sum(axis=1), 1.0)[:, None]
    grid[2 * c:2 * c + na] = np.eye(na)
    for prior in (random_prior(rng, ne=ne, na=na, nb=nb),
                  _boundary_prior(rng, ne, na, nb)):
        table = marginals_and_conditionals(prior)
        for score in score_kinds(rng, ne):
            got = _kernels.ub_grid_wa(grid, table, score)
            ref = ub_grid_wa_frozen(grid, table.b_given_a, table.e_given_ab,
                                    table.e_given_a, score)
            assert got.tobytes() == ref.tobytes(), score.kind


@pytest.mark.parametrize("ne,na,nb", SHAPES)
def test_ub_grid_wa_rows_do_not_depend_on_the_call(ne, na, nb):
    # the envelope LP's segment path costs a grid one block at a time and
    # the blocks' ends through _ub_terms on gathered rows, so each row's
    # value must be the full call's, bit for bit, signed zeros included:
    # slices of every length at any offset, with a one-row last chunk in
    # the full call (a one-column matmul takes BLAS's matrix-vector
    # product unless it is costed as a pair), rows of zero mass and rows
    # with zero entries
    rng = np.random.default_rng(127 + 7 * ne + 5 * na + nb)
    c = _kernels._WA_CHUNK
    n = c + 1
    grid = rng.dirichlet(np.ones(na), size=n)
    grid[rng.integers(n, size=20)] = 0.0
    edge = rng.integers(n, size=40)
    grid[edge, rng.integers(na, size=40)] = 0.0
    grid[edge] /= np.where(grid[edge].sum(axis=1) > 0.0,
                           grid[edge].sum(axis=1), 1.0)[:, None]
    grid[-na:] = np.eye(na)
    for prior in (random_prior(rng, ne=ne, na=na, nb=nb),
                  _boundary_prior(rng, ne, na, nb)):
        table = marginals_and_conditionals(prior)
        m = _kernels._wa_matrix(table)
        for score in score_kinds(rng, ne):
            full = _kernels.ub_grid_wa(grid, table, score)
            for size in (1, 2, 3, 7, 64, 1000, 1024, n):
                for lo in {0, int(rng.integers(n - size + 1)), n - size}:
                    part = _kernels.ub_grid_wa(grid[lo:lo + size], table,
                                               score)
                    assert part.tobytes() == full[lo:lo + size].tobytes(), \
                        (score.kind, size, lo)
            for rows in (rng.integers(n, size=257), np.array([n - 1])):
                g, h = _kernels._ub_terms(grid[rows].T, m, table, score)
                assert (g - h).tobytes() == full[rows].tobytes(), score.kind


@pytest.mark.parametrize("ne,nb", ((2, 2), (3, 2), (2, 3), (4, 1)))
def test_ub_grid_veb_matches_reference(ne, nb):
    rng = np.random.default_rng(79 + 3 * ne + nb)
    grid = np.vstack((_grid(rng, 300, ne * nb),
                      _kernels.compositions(3, ne * nb) / 3.0))
    for score in score_kinds(rng, ne):
        got = _kernels.ub_grid_veb(grid, ne, nb, score)
        ref = ub_grid_veb_ref(grid, ne, nb, score)
        assert np.array_equal(got, ref), score.kind


def test_ub_grid_spans_chunks():
    rng = np.random.default_rng(97)
    prior = random_prior(rng, ne=2, na=2, nb=2)
    table = marginals_and_conditionals(prior)
    # two full ub_grid_wa chunks and a partial third
    k = 2 * _kernels._WA_CHUNK + 500
    grid = _kernels.compositions(k, 2) / float(k)
    for score in score_kinds(rng, 2)[:2]:
        args = (grid, table.b_given_a, table.e_given_ab, table.e_given_a,
                score)
        got = _kernels.ub_grid_wa(grid, table, score)
        assert np.array_equal(got, ub_grid_wa_frozen(*args))
        np.testing.assert_allclose(got, ub_grid_wa_ref(*args), rtol=0.0,
                                   atol=UB_ATOL)
        v = rng.dirichlet(np.ones(4), size=CHUNK + 500)
        assert np.array_equal(
            _kernels.ub_grid_veb(v, 2, 2, score),
            ub_grid_veb_ref(v, 2, 2, score))


def test_ub_grid_wa_memory_stays_per_chunk():
    # numpy reports its buffers to tracemalloc.  The kernel's temporaries
    # scale with one chunk's (nb*ne, chunk) numerator (2.5 such units
    # measured); materialising the full (n, nb, ne) numerator adds 12.
    rng = np.random.default_rng(103)
    ne, na, nb, n = 3, 2, 4, 400_000
    table = marginals_and_conditionals(random_prior(rng, ne=ne, na=na, nb=nb))
    grid = rng.dirichlet(np.ones(na), size=n)
    unit = _kernels._WA_CHUNK * nb * ne * 8
    for score in score_kinds(rng, ne):
        tracemalloc.start()
        try:
            out = _kernels.ub_grid_wa(grid, table, score)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4 * unit, (score.kind, peak)


def assert_scan_close(got, ref, ref_scan, comps, na, start, stop, mu_ae,
                      mu_aeb, score):
    """``got`` is within SCAN_ATOL of the reference's best ``ref``, names a
    candidate in [start, stop), and the reference scores that candidate
    within SCAN_ATOL of its best too."""
    assert abs(got[0] - ref[0]) <= SCAN_ATOL, (score.kind, got, ref)
    assert start <= got[1] < stop, (score.kind, got)
    at = ref_scan(comps, na, got[1], got[1] + 1, mu_ae, mu_aeb, score)
    assert abs(at[0] - ref[0]) <= SCAN_ATOL, (score.kind, at, ref)


# m * nb >= 8 in (2, 2, 3, 6, 3) and (2, 3, 3, 4, 3): numpy's sum over the
# (m, nb) axes no longer adds those terms one by one
@pytest.mark.parametrize("ne,na,nb,den,m", ((2, 2, 2, 10, 2), (3, 2, 2, 6, 3),
                                            (2, 3, 2, 5, 2), (2, 2, 3, 8, 2),
                                            (2, 3, 1, 4, 3), (2, 2, 3, 6, 3),
                                            (2, 3, 3, 4, 3), (3, 2, 2, 10, 1),
                                            (2, 3, 2, 6, 1)))
def test_oracle_scan_matches_reference(ne, na, nb, den, m):
    rng = np.random.default_rng(89 + ne + 3 * na + 5 * nb)
    comps = _kernels.compositions(den, m).astype(float) / den
    n_cand = comps.shape[0] ** na
    for prior in (random_prior(rng, ne=ne, na=na, nb=nb),
                  _boundary_prior(rng, ne, na, nb)):
        table = marginals_and_conditionals(prior)
        mu_ae = np.ascontiguousarray(prior.p.sum(axis=2).T)
        mu_aeb = np.ascontiguousarray(np.transpose(prior.p, (1, 0, 2)))
        for score in score_kinds(rng, ne):
            for start, stop in ((0, n_cand), (n_cand // 3, n_cand)):
                got = _kernels.oracle_scan(comps, na, start, stop, table,
                                           score)
                ref = oracle_scan_ref(comps, na, start, stop, mu_ae, mu_aeb,
                                      score)
                assert_scan_close(got, ref, oracle_scan_ref, comps, na, start,
                                  stop, mu_ae, mu_aeb, score)


def test_oracle_scan_spans_chunks():
    rng = np.random.default_rng(101)
    prior = random_prior(rng, ne=2, na=3, nb=2)
    comps = _kernels.compositions(10, 3).astype(float) / 10
    table = marginals_and_conditionals(prior)
    mu_ae = np.ascontiguousarray(prior.p.sum(axis=2).T)
    mu_aeb = np.ascontiguousarray(np.transpose(prior.p, (1, 0, 2)))
    n_cand = comps.shape[0] ** 3
    assert n_cand > 2 * CHUNK
    for score in score_kinds(rng, 2)[:2]:
        got = _kernels.oracle_scan(comps, 3, 1000, n_cand, table, score)
        ref = oracle_scan_ref(comps, 3, 1000, n_cand, mu_ae, mu_aeb, score)
        assert_scan_close(got, ref, oracle_scan_ref, comps, 3, 1000, n_cand,
                          mu_ae, mu_aeb, score)


def test_oracle_scan_memory_at_most_per_candidate_form():
    # the large verify rung: |A| = 3, den 66, two signals, 67^3 candidates.
    # The lattice table holds 67^3 floats; the per-candidate form
    # materialises m (1 + nb) posteriors per candidate of a chunk instead.
    rng = np.random.default_rng(107)
    ne, na, nb, den, m = 2, 3, 2, 66, 2
    prior = random_prior(rng, ne=ne, na=na, nb=nb)
    comps = _kernels.compositions(den, m).astype(float) / den
    table = marginals_and_conditionals(prior)
    mu_ae = np.ascontiguousarray(prior.p.sum(axis=2).T)
    mu_aeb = np.ascontiguousarray(np.transpose(prior.p, (1, 0, 2)))
    n_cand = comps.shape[0] ** na
    for score in score_kinds(rng, ne)[:2]:
        peaks, results = [], []
        for scan, data in ((_kernels.oracle_scan, (table,)),
                           (oracle_scan_per_candidate, (mu_ae, mu_aeb))):
            tracemalloc.start()
            try:
                results.append(scan(comps, na, 0, n_cand, *data, score))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert_scan_close(results[0], results[1], oracle_scan_per_candidate,
                          comps, na, 0, n_cand, mu_ae, mu_aeb, score)
        assert peaks[0] <= peaks[1], (score.kind, peaks)


def _same_scan(got, ref):
    """Equal index and equal bits of the value, so -0.0 != 0.0."""
    return got[1] == ref[1] and \
        struct.pack("d", got[0]) == struct.pack("d", ref[0])


def _scan_priors(rng, ne, na, nb):
    priors = [random_prior(rng, ne=ne, na=na, nb=nb)]
    if na > 1:        # the boundary prior zeroes the last alice outcome
        priors.append(_boundary_prior(rng, ne, na, nb))
    if (ne, na, nb) == (2, 2, 2):
        # xor has informative splits; independent scores every candidate 0
        priors += [instances.xor_instance()[1],
                   instances.independent_instance()[1]]
    return priors


# At P = 6 and |A| = 3 the gather takes j = 2 trailing axes whole at
# _CHUNK 200, j = 1 at _CHUNK 7 and j = 0 at _CHUNK 1.
@pytest.mark.parametrize("chunk", (1, 7, 200, CHUNK))
@pytest.mark.parametrize("ne,na,nb,den,m", ((2, 3, 2, 5, 2), (2, 2, 2, 5, 2),
                                            (2, 2, 2, 2, 3), (3, 2, 2, 3, 3),
                                            (2, 3, 1, 2, 3), (2, 1, 3, 6, 3),
                                            (2, 2, 2, 4, 1)))
def test_oracle_scan_matches_frozen_bit_for_bit(monkeypatch, chunk, ne, na,
                                                nb, den, m):
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    rng = np.random.default_rng(109 + ne + 3 * na + 5 * nb + 7 * m)
    comps = _kernels.compositions(den, m).astype(float) / den
    n = comps.shape[0] ** na
    ranges = [(lo, hi) for lo, hi in ((0, n), (n // 3, n - 2), (5, 6),
                                      (n - 1, n)) if 0 <= lo < hi <= n]
    for prior in _scan_priors(rng, ne, na, nb):
        table = marginals_and_conditionals(prior)
        for score in score_kinds(rng, ne):
            for start, stop in ranges:
                got = _kernels.oracle_scan(comps, na, start, stop, table,
                                           score)
                ref = oracle_scan_frozen(comps, na, start, stop, table, score)
                assert _same_scan(got, ref), (score.kind, start, stop, got,
                                              ref)


def test_oracle_scan_scores_every_candidate_as_frozen():
    # one-candidate ranges compare every candidate's objective, not only
    # the best one.  On the independent prior every signal's term is -0.0
    # (u_B = 0), and the sum from 0.0 is 0.0, as the frozen scan's is;
    # a sum started from the first signal's term would give -0.0
    rng = np.random.default_rng(113)
    comps = _kernels.compositions(4, 3).astype(float) / 4
    n = comps.shape[0] ** 2
    for prior in _scan_priors(rng, 2, 2, 2):
        table = marginals_and_conditionals(prior)
        for score in score_kinds(rng, 2):
            for c in range(n):
                got = _kernels.oracle_scan(comps, 2, c, c + 1, table, score)
                ref = oracle_scan_frozen(comps, 2, c, c + 1, table, score)
                assert _same_scan(got, ref), (score.kind, c, got, ref)


def test_oracle_scan_chunk_holds_at_most_chunk_candidates():
    # P = 1,000 rows over 3 distinct fractions, |A| = 3: the lattice has 27
    # points, and one leading index spans P^2 = 10^6 candidates, more than
    # a chunk, so the gather keeps one trailing axis (j = 1) and takes 131
    # leading rows per chunk.  A chunk's objective and one signal's
    # gathered term are vectors of at most _CHUNK floats, and the previous
    # chunk's objective is still held when the next one is allocated:
    # 3.03 such units measured, against 10.1 for the divmod-and-index scan
    # this gather replaced.  Gathering whole P^2 blocks would hold at
    # least two vectors of 10^6 floats, over 15 units.
    rng = np.random.default_rng(127)
    ne, na, nb = 2, 3, 2
    comps = np.tile(_kernels.compositions(2, 3) / 2.0, (167, 1))[:1000]
    assert comps.shape[0] ** (na - 1) > _kernels._CHUNK
    table = marginals_and_conditionals(random_prior(rng, ne=ne, na=na, nb=nb))
    stop = 3 * _kernels._CHUNK + 1000
    unit = _kernels._CHUNK * 8
    for score in score_kinds(rng, ne)[:2]:
        tracemalloc.start()
        try:
            got = _kernels.oracle_scan(comps, na, 0, stop, table, score)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_scan(got, oracle_scan_frozen(comps, na, 0, stop, table,
                                                  score))
        assert peak < 4 * unit, (score.kind, peak)
