"""The row-sparse numpy pivot against the dense rank-one update it replaced.

``simplex_iterate_dense`` is the earlier numpy kernel: every pivot builds
np.outer(factors, pivot_row) over the whole tableau and subtracts it.  The
row-sparse kernel must reproduce its tableau, basis, status and iteration
count exactly, not merely to a tolerance.
"""

import numpy as np
import pytest

from abasolve import _kernels
from abasolve import lp as lp_module
from abasolve.lp import LPStatus, solve_lp

# Bound at import: the tests below patch the module attribute
# ``_kernels.simplex_iterate`` with a checker that calls this function.
from abasolve._kernels import simplex_iterate

from helpers import LP_KINDS, random_lp, sparse_normal


def dense_pivot(t, basis, row, col):
    t[row, :] /= t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= np.outer(factors, t[row, :])
    basis[row] = col


def simplex_iterate_dense(t, basis, allowed, tol, max_iter, degen_limit):
    m = t.shape[0] - 1
    n = t.shape[1] - 1
    red = t[m, :n]
    iters = 0
    degen = 0
    bland = False
    barred = ~allowed
    while True:
        if iters >= max_iter:
            return _kernels._STATUS_ITERLIMIT, iters
        if bland:
            neg = np.nonzero(allowed & (red < -tol))[0]
            if neg.size == 0:
                return _kernels._STATUS_OPTIMAL, iters
            enter = int(neg[0])
        else:
            priced = np.where(barred, np.inf, red)
            enter = int(np.argmin(priced))
            if priced[enter] >= -tol:
                return _kernels._STATUS_OPTIMAL, iters
        col = t[:m, enter]
        pos = col > tol
        if not pos.any():
            return _kernels._STATUS_UNBOUNDED, iters
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
        dense_pivot(t, basis, leave, enter)
        iters += 1


def test_pivot_matches_dense_reference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 15))
        t = sparse_normal(rng, (m + 1, n + 1), float(rng.uniform(0.1, 1.0)))
        row = int(rng.integers(0, m + 1))
        col = int(rng.integers(0, n + 1))
        t[row, col] = rng.uniform(0.5, 2.0)
        basis = rng.integers(0, n + 1, size=m + 1)
        t_ref, basis_ref = t.copy(), basis.copy()
        dense_pivot(t_ref, basis_ref, row, col)
        _kernels.pivot(t, basis, row, col)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(basis, basis_ref)


def _checked_kernel(seen):
    """A simplex_iterate that runs both kernels on the same tableau and
    insists they agree bit for bit."""
    def checked(t, basis, allowed, tol, max_iter, degen_limit):
        t_ref, basis_ref = t.copy(), basis.copy()
        expected = simplex_iterate_dense(t_ref, basis_ref, allowed, tol,
                                         max_iter, degen_limit)
        got = simplex_iterate(t, basis, allowed, tol, max_iter, degen_limit)
        assert got == expected
        assert np.array_equal(t, t_ref)
        assert np.array_equal(basis, basis_ref)
        seen.append(got[0])
        return got
    return checked


@pytest.mark.parametrize("degen_limit", [lp_module.DEGENERACY_LIMIT, 1])
def test_simplex_iterate_matches_dense_reference(monkeypatch, degen_limit):
    seen = []
    monkeypatch.setattr(lp_module._kernels, "simplex_iterate",
                        _checked_kernel(seen))
    monkeypatch.setattr(lp_module, "DEGENERACY_LIMIT", degen_limit)
    rng = np.random.default_rng(83)
    statuses = set()
    for kind in LP_KINDS:
        for _ in range(25):
            statuses.add(solve_lp(random_lp(rng, kind)).status)
    assert statuses == set(LPStatus)
    assert _kernels._STATUS_UNBOUNDED in seen
    assert _kernels._STATUS_OPTIMAL in seen


def beale_tableau():
    """Beale's cycling example in slack form: the first pivots have ratio
    zero, so a degeneracy limit below two hands pricing to Bland's rule."""
    a = np.array([[0.25, -8.0, -1.0, 9.0],
                  [0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    c = np.array([0.75, -20.0, 0.5, -6.0])
    t = np.zeros((4, 8))
    t[:3, :4] = a
    t[:3, 4:7] = np.eye(3)
    t[:3, 7] = [0.0, 0.0, 1.0]
    t[3, :4] = -c
    return t, np.array([4, 5, 6], dtype=np.int64)


@pytest.mark.parametrize("degen_limit", [0, 1, 100])
def test_degenerate_bland_switch_matches_dense_reference(degen_limit):
    t, basis = beale_tableau()
    allowed = np.ones(7, dtype=np.bool_)
    t_ref, basis_ref = t.copy(), basis.copy()
    expected = simplex_iterate_dense(t_ref, basis_ref, allowed, 1e-9, 1000,
                                     degen_limit)
    got = simplex_iterate(t, basis, allowed, 1e-9, 1000, degen_limit)
    assert got == expected
    assert got[0] == _kernels._STATUS_OPTIMAL
    assert np.array_equal(t, t_ref)
    assert np.array_equal(basis, basis_ref)
    assert t[3, 7] == pytest.approx(1.25, abs=1e-12)


def test_objective_matches_highs():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = np.random.default_rng(89)
    expected_status = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE,
                       3: LPStatus.UNBOUNDED}
    for kind in LP_KINDS:
        for _ in range(25):
            lp = random_lp(rng, kind)
            ref = linprog(-lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                          A_eq=lp.a_eq if lp.a_eq.size else None,
                          b_eq=lp.b_eq if lp.b_eq.size else None,
                          bounds=(0, None), method="highs")
            sol = solve_lp(lp)
            assert sol.status is expected_status[ref.status], kind
            if sol.status is LPStatus.OPTIMAL:
                assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)
