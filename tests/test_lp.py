import numpy as np
import pytest

from abasolve import fptas
from abasolve import lp as lp_module
from abasolve.errors import SizeCapExceeded, ValidationError
from abasolve.exact import build_obedience_lp
from abasolve.lp import LinearProgram, LPStatus, solve_lp
from abasolve.scoring import log_score, quadratic_score

from helpers import LP_KINDS, lp_vertex_oracle, random_lp, random_piecewise, \
    random_prior, solve_lp_frozen, stop_simplex_early


def _lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    return LinearProgram(
        c,
        np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float),
        np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float),
        np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float),
        np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float),
    )


def test_single_variable_bound():
    sol = solve_lp(_lp([1.0], a_ub=[[1.0]], b_ub=[3.0]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x == pytest.approx([3.0])
    assert sol.objective == pytest.approx(3.0)


def test_degenerate_optimum_on_equality():
    sol = solve_lp(_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def test_infeasible_system():
    # x = 2 against x <= 1
    sol = solve_lp(_lp([0.0], a_eq=[[1.0]], b_eq=[2.0], a_ub=[[1.0]],
                       b_ub=[1.0]))
    assert sol.status is LPStatus.INFEASIBLE
    assert sol.x is None


def test_unbounded():
    sol = solve_lp(_lp([1.0, 0.0]))
    assert sol.status is LPStatus.UNBOUNDED


def test_negative_rhs_handling():
    # solve_lp's tableau starts every row from its own slack or artificial,
    # which needs b >= 0
    with pytest.raises(ValidationError, match=r"^b_ub\[0\] = -2\.0 is neg"):
        _lp([-1.0], a_ub=[[-1.0]], b_ub=[-2.0])
    with pytest.raises(ValidationError, match=r"^b_eq\[1\] = -1e-300 is neg"):
        _lp([1.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, -1e-300])
    # a -0.0 entry passes, and enters the tableau as +0.0
    _lp([1.0], a_ub=[[1.0]], b_ub=[-0.0])
    sol = solve_lp(_lp([0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[-0.0]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x.tolist() == [0.0, 0.0] and not np.signbit(sol.x).any()


def test_redundant_equalities():
    # duplicated constraint row must not break phase 1
    sol = solve_lp(_lp([1.0, 2.0],
                       a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0)
    assert sol.x == pytest.approx([0.0, 1.0])


def test_validation_rejects_nan():
    with pytest.raises(ValidationError):
        _lp([np.nan])
    with pytest.raises(ValidationError):
        _lp([1.0], a_ub=[[np.inf]], b_ub=[1.0])
    with pytest.raises(ValidationError):
        LinearProgram(np.ones(2), np.ones((1, 2)), np.ones(2),
                      np.zeros((0, 2)), np.zeros(0))


def test_cell_cap(monkeypatch):
    monkeypatch.setattr(lp_module, "DEFAULT_CELL_CAP", 100)
    with pytest.raises(SizeCapExceeded):
        solve_lp(_lp(np.ones(100), a_ub=np.eye(100), b_ub=np.ones(100)))


def test_numerical_failure_on_iteration_cap(monkeypatch):
    from abasolve.errors import NumericalFailure

    def stalled(t, basis, allowed, tol, max_iter, degen_limit):
        return 2, max_iter  # the kernel's iteration-cap status

    monkeypatch.setattr(lp_module._kernels, "simplex_iterate", stalled)
    with pytest.raises(NumericalFailure):
        solve_lp(_lp([1.0], a_ub=[[1.0]], b_ub=[3.0]))


def test_against_vertex_oracle_random():
    rng = np.random.default_rng(41)
    solved = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m_ub = int(rng.integers(1, 4))
        m_eq = int(rng.integers(0, 2))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m_ub, n))
        b_ub = rng.uniform(0.2, 2.0, size=m_ub)
        a_eq = rng.uniform(0.1, 1.0, size=(m_eq, n))
        b_eq = rng.uniform(0.5, 1.5, size=m_eq)
        # keep one bounding row so the LP is never unbounded
        a_ub = np.vstack((a_ub, np.ones((1, n))))
        b_ub = np.concatenate((b_ub, [3.0]))
        lp = _lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        expected = lp_vertex_oracle(c, a_eq, b_eq, a_ub, b_ub)
        sol = solve_lp(lp)
        if expected is None:
            assert sol.status is LPStatus.INFEASIBLE
            continue
        assert sol.status is LPStatus.OPTIMAL
        assert sol.objective == pytest.approx(expected, abs=1e-7)
        assert sol.duality_gap <= 1e-7
        assert sol.feasibility_residual <= 1e-9
        solved += 1
    assert solved >= 30


def test_duals_certify_optimum():
    # max x0 + x1 s.t. x0 + 2 x1 <= 4, x0 <= 3
    lp = _lp([1.0, 1.0], a_ub=[[1.0, 2.0], [1.0, 0.0]], b_ub=[4.0, 3.0])
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.5)
    y = sol.dual_ub
    assert (y >= -1e-12).all()
    # dual feasibility: A^T y >= c
    assert (lp.a_ub.T @ y - lp.objective >= -1e-9).all()
    assert y @ lp.b_ub == pytest.approx(sol.objective, abs=1e-9)


def test_duality_gap_shows_a_negative_reduced_cost(monkeypatch):
    # max x0 + 2 x1 + 3 x2 s.t. x0 + x1 + x2 = 1: phase 1 ends at x0 = 1;
    # a phase 2 that stops there reports 1 against the optimum 3, and its
    # duals leave reduced costs (0, -1, -2)
    lp = _lp([1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(3.0)
    assert sol.duality_gap <= 1e-12
    stop_simplex_early(monkeypatch, full_calls=1, pivots=0)
    sol = solve_lp(lp)
    assert sol.objective == 1.0
    assert sol.duality_gap == pytest.approx(2.0)


def test_duality_gap_shows_a_wrong_signed_ub_dual(monkeypatch):
    # max 2 x0 + 2 x1 s.t. 2 x0 + x1 <= 3, 2 x0 <= 2: two pivots reach
    # x = (1, 1) with objective 4 (optimum 6 at x = (0, 3)); every
    # structural reduced cost is 0 there, but the second row's dual is -1
    lp = _lp([2.0, 2.0], a_ub=[[2.0, 1.0], [2.0, 0.0]], b_ub=[3.0, 2.0])
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(6.0)
    assert sol.duality_gap <= 1e-12
    stop_simplex_early(monkeypatch, full_calls=0, pivots=2)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(4.0)
    assert sol.dual_ub == pytest.approx([2.0, -1.0])
    assert (sol.dual_ub @ lp.a_ub - lp.objective == 0.0).all()
    assert sol.duality_gap == pytest.approx(1.0)


def _solution_bytes(sol):
    """The solution's status and iterations, and the bytes of each of its
    values (None where it has none)."""
    values = (sol.x, sol.objective, sol.dual_eq, sol.dual_ub,
              sol.duality_gap, sol.feasibility_residual)
    return (sol.status, sol.iterations) + tuple(
        None if v is None else np.asarray(v, dtype=float).tobytes()
        for v in values)


def test_solve_lp_matches_frozen_bit_for_bit(monkeypatch):
    """Every LP the tableau solves, against the solver as it was before it
    took one layout: random LPs of each kind, fptas-eb's achievability LPs
    at three grid-eb shapes and obedience LPs at |A| = 2 and 3."""
    rng = np.random.default_rng(101)
    programs = [random_lp(rng, kind) for kind in LP_KINDS for _ in range(10)]

    def capture(program):
        programs.append(program)
        return solve_lp(program)

    monkeypatch.setattr(fptas, "solve_lp", capture)
    for (ne, na, nb), score, k in (((2, 2, 2), quadratic_score(), 3),
                                   ((2, 2, 3), log_score(), 2),
                                   ((3, 2, 2), quadratic_score(), 2)):
        fptas.fptas_eb_const(random_prior(rng, ne, na, nb), score, 0.5,
                             grid_k=k)
    for na in (2, 3):
        programs.append(build_obedience_lp(random_prior(rng, 2, na, 2),
                                           random_piecewise(rng, ne=2, k=3)))
    assert len(programs) == 4 * 10 + 3 + 2
    statuses = set()
    for program in programs:
        got = _solution_bytes(solve_lp(program))
        assert got == _solution_bytes(solve_lp_frozen(program))
        statuses.add(got[0])
    assert statuses == set(LPStatus)
