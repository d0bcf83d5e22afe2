"""Two primal simplex engines: a dense two-phase tableau for general LPs and
a revised simplex for the small-row envelope LP.

``solve_lp`` maximizes c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0
over an explicit tableau; fptas-eb's achievability LP and the obedience-LP
reference in ``exact`` use it.  Pricing is Dantzig's rule, switching permanently
to Bland's rule after a run of degenerate pivots; ties in the ratio test
break toward the smallest basis index.  Artificial columns stay in the
tableau (barred from entering) so dual values can be read off the final
objective row.

The pivot loop itself lives in ``_kernels``.  A pivot updates only the
rows with a nonzero entry in the entering column: the other rows would
have a zero multiple of the pivot row subtracted, which leaves them as
they are.  The tableaux built here are mostly zero (an
fptas-eb grid point's achievability rows touch only that point's |A|
variables), so a pivot usually rewrites a few rows of hundreds.

``tableau_cells`` gives the size of the tableau before it is allocated, so
LP builders can check the cell cap before allocating their own matrices.

``solve_envelope`` minimizes c.x subject to P^T x = mu, x >= 0, where P's
rows lie on the probability simplex and include its vertices: the
concavification LP (Kamenica & Gentzkow 2011) over fptas-a's posterior grid
or over the exact solver's arrangement vertices.  It
keeps only the m = |A| independent rows (x sums to 1 because every row of
P does) and starts from the vertex basis B = I, x_B = mu, so it needs no
phase 1, no artificials and no tableau; each pivot is a pricing pass over
the columns plus m x m solves (Dantzig & Orchard-Hays 1954), with the same
pricing rules and tolerances as ``solve_lp``.  A cost vector is priced
in full, one np.dot per pivot.  fptas-a's |A| = 2 grid comes instead as a
``_kernels.SegmentCost`` defined by K, its points and vertices formed
from K; a Dantzig pivot costs and prices only the blocks of 1,024 columns
that a convexity bound on u_B cannot rule out, and enters the column a
full pass would (``_kernels.envelope_iterate``; the proof is in
``_kernels._segment_tables``).  On fptas-a's 10^6-point grids that costs
2-4% of the points.  Each costed block has its own array, and the
solution is the optimal basis, ``basis`` and ``x_basis``, with no dense x,
so that LP allocates nothing as long as the grid.  A NaN or infinite cost
raises NumericalFailure before any pivot uses it.  The solution's
``columns_priced`` counts the reduced costs computed and
``columns_costed`` the costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalFailure, SizeCapExceeded, ValidationError

FEAS_TOL = 1e-9
DEGENERACY_LIMIT = 100
DEFAULT_CELL_CAP = 25_000_000


class LPStatus(str, enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max objective.x  s.t.  a_eq x = b_eq, a_ub x <= b_ub, x >= 0."""

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.objective, dtype=float).ravel())
        n = c.shape[0]
        arrays = {
            "objective": c,
            "a_eq": np.ascontiguousarray(np.asarray(self.a_eq, dtype=float).reshape(-1, n)),
            "b_eq": np.ascontiguousarray(np.asarray(self.b_eq, dtype=float).ravel()),
            "a_ub": np.ascontiguousarray(np.asarray(self.a_ub, dtype=float).reshape(-1, n)),
            "b_ub": np.ascontiguousarray(np.asarray(self.b_ub, dtype=float).ravel()),
        }
        if arrays["a_eq"].shape[0] != arrays["b_eq"].shape[0] or \
                arrays["a_ub"].shape[0] != arrays["b_ub"].shape[0]:
            raise ValidationError("constraint matrix and rhs sizes disagree")
        for name, arr in arrays.items():
            if arr.size and not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains NaN or Inf")
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_rows(self) -> int:
        return self.a_eq.shape[0] + self.a_ub.shape[0]


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    x: np.ndarray | None
    objective: float | None
    dual_eq: np.ndarray | None
    dual_ub: np.ndarray | None
    iterations: int
    duality_gap: float | None = None
    comp_slack_residual: float | None = None
    feasibility_residual: float | None = None
    # reduced costs and costs computed by the revised simplex
    # (``solve_envelope``)
    columns_priced: int | None = None
    columns_costed: int | None = None
    # the revised simplex's basic solution, in place of x: the basic
    # columns, in basis order, and their values
    basis: np.ndarray | None = None
    x_basis: np.ndarray | None = None

    def support(self, threshold: float):
        """The basic columns whose value exceeds ``threshold``, ascending,
        and those values: for a threshold of 0 or more, the columns and
        values of the dense x above it, in its order."""
        order = np.argsort(self.basis, kind="stable")
        keep = order[self.x_basis[order] > threshold]
        return self.basis[keep], self.x_basis[keep]


def tableau_cells(n_vars: int, m_ub: int, m_eq: int,
                  n_neg_ub: int = 0) -> int:
    """Cells of the tableau ``solve_lp`` builds: a row per constraint plus
    the objective row; a column per variable, per ub slack, per artificial
    (eq rows and the ``n_neg_ub`` ub rows with negative rhs) plus the rhs."""
    m = m_ub + m_eq
    return (m + 1) * (n_vars + m_ub + n_neg_ub + m_eq + 1)


def check_cell_cap(cells: int, cell_cap: int) -> None:
    """Raise SizeCapExceeded when a tableau of ``cells`` exceeds the cap."""
    if cells > cell_cap:
        raise SizeCapExceeded(
            f"tableau needs {cells} cells, cap is {cell_cap}", required=cells)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve to an optimal vertex, or report Infeasible/Unbounded.

    The solution's ``duality_gap`` is |b.y - c.x| plus the dual
    infeasibility of the final basis: the most negative reduced cost in the
    tableau's objective row over the structural columns and the most
    negative ub dual (a slack column's reduced cost).  The first term is 0
    at every basis; the second shows a pivot loop that stops short of
    optimality.

    Raises NumericalFailure when pivoting exceeds 50*(rows+cols) iterations
    and SizeCapExceeded when the tableau would exceed DEFAULT_CELL_CAP cells.
    """
    n = lp.n_vars
    m_ub = lp.a_ub.shape[0]
    m_eq = lp.a_eq.shape[0]
    m = m_ub + m_eq

    # Standard form: ub rows get slacks; rows with negative rhs are negated
    # (turning the slack coefficient to -1) and, like eq rows, get artificials.
    rhs = np.concatenate((lp.b_ub, lp.b_eq))
    neg = rhs < 0.0
    rhs = np.abs(rhs)
    slack_sign = np.where(neg[:m_ub], -1.0, 1.0)
    needs_art = np.concatenate((neg[:m_ub], np.ones(m_eq, dtype=bool)))
    art_rows = np.nonzero(needs_art)[0]
    n_art = art_rows.size

    n_total = n + m_ub + n_art
    check_cell_cap(tableau_cells(n, m_ub, m_eq, n_art - m_eq),
                   DEFAULT_CELL_CAP)

    t = np.zeros((m + 1, n_total + 1))
    t[:m_ub, :n] = lp.a_ub
    t[m_ub:m, :n] = lp.a_eq
    neg_rows = np.nonzero(neg)[0]
    t[neg_rows, :n] = -t[neg_rows, :n]
    ub_rows = np.arange(m_ub)
    t[ub_rows, n + ub_rows] = slack_sign
    art_cols = n + m_ub + np.arange(n_art)
    t[art_rows, art_cols] = 1.0
    t[:m, n_total] = rhs

    basis = n + np.arange(m, dtype=np.int64)
    basis[art_rows] = art_cols

    allowed = np.ones(n_total, dtype=np.bool_)
    allowed[n + m_ub:] = False  # artificials never enter
    max_iter = 50 * (m + n_total)
    total_iters = 0

    if n_art:
        # phase 1: maximize -(sum of artificials); reduced costs from the
        # artificial rows themselves
        t[m, :] = -t[art_rows, :].sum(axis=0)
        t[m, n + m_ub:n_total] = 0.0
        status, iters = _kernels.simplex_iterate(
            t, basis, allowed, FEAS_TOL, max_iter, DEGENERACY_LIMIT)
        total_iters += iters
        if status == _kernels._STATUS_ITERLIMIT:
            raise NumericalFailure(f"phase 1 exceeded {max_iter} pivots")
        infeas = -t[m, n_total]
        if infeas > 1e-7 * max(1.0, float(np.abs(rhs).max(initial=0.0))):
            return LPSolution(LPStatus.INFEASIBLE, None, None, None, None,
                              total_iters)
        # drive remaining zero-level artificials out of the basis; a pivot
        # changes only its own row's basic variable, so the rows to visit
        # are known up front
        for i in np.nonzero(basis >= n + m_ub)[0]:
            ok = np.nonzero(np.abs(t[i, :n + m_ub]) > 1e-9)[0]
            if ok.size:
                _kernels.pivot(t, basis, i, int(ok[0]))
            # else: redundant row; artificial stays basic at level zero

    # phase 2 objective row rebuilt from scratch against the current basis,
    # adding the rows whose basic variable has a nonzero cost in row order
    c_full = np.zeros(n_total + 1)
    c_full[:n] = lp.objective
    t[m, :] = -c_full
    for i in np.nonzero(c_full[basis])[0]:
        t[m, :] += c_full[basis[i]] * t[i, :]
    status, iters = _kernels.simplex_iterate(
        t, basis, allowed, FEAS_TOL, max_iter, DEGENERACY_LIMIT)
    total_iters += iters
    if status == _kernels._STATUS_ITERLIMIT:
        raise NumericalFailure(f"phase 2 exceeded {max_iter} pivots")
    if status == _kernels._STATUS_UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, None, None, None,
                          total_iters)

    x = np.zeros(n_total)
    x[basis] = t[:m, n_total]
    xs = x[:n].copy()
    objective = float(lp.objective @ xs)

    # duals from the objective-row entries of slack/artificial columns
    dual = np.empty(m)
    dual[:m_ub] = t[m, n:n + m_ub] * slack_sign
    dual[art_rows] = t[m, art_cols]
    dual[neg] = -dual[neg]
    dual_ub = dual[:m_ub].copy()
    dual_eq = dual[m_ub:].copy()

    resid = 0.0
    if m_eq:
        resid = max(resid, float(np.abs(lp.a_eq @ xs - lp.b_eq).max()))
    slack_ub = np.zeros(0)
    if m_ub:
        slack_ub = lp.b_ub - lp.a_ub @ xs
        resid = max(resid, float(max(0.0, -slack_ub.min())))
    resid = max(resid, float(max(0.0, -xs.min(initial=0.0))))
    reduced = (dual_ub @ lp.a_ub if m_ub else 0.0) + \
        (dual_eq @ lp.a_eq if m_eq else 0.0) - lp.objective
    comp = float(np.abs(xs * reduced).sum())
    if m_ub:
        comp += float(np.abs(dual_ub * slack_ub).sum())
    dual_obj = float((dual_ub @ lp.b_ub if m_ub else 0.0) +
                     (dual_eq @ lp.b_eq if m_eq else 0.0))
    # b.y = c.x holds at every basis, so the gap adds the dual infeasibility
    # an early stop leaves: the most negative reduced cost of a column that
    # may enter, structural or slack (a slack's is its row's ub dual)
    dual_infeas = max(0.0, -float(t[m, :n + m_ub].min(initial=0.0)))
    return LPSolution(LPStatus.OPTIMAL, xs, objective, dual_eq, dual_ub,
                      total_iters,
                      duality_gap=abs(dual_obj - objective) + dual_infeas,
                      comp_slack_residual=comp, feasibility_residual=resid)


def solve_envelope(costs: tuple[np.ndarray, np.ndarray] | _kernels.SegmentCost,
                   mu: np.ndarray) -> LPSolution:
    """min cost.x  s.t.  points^T x = mu, x >= 0, by revised simplex.

    ``costs`` is the pair (cost, points): n costs and n rows on the
    probability simplex over m outcomes, every vertex e_a among them; or a
    ``_kernels.SegmentCost``, fptas-a's |A| = 2 grid, which is its own
    points and whose costs the pivots compute as they need them, block by
    block.  ``mu`` lies on the simplex too, so the LP is always feasible
    and bounded.  The solution is the optimal basis: ``basis`` and
    ``x_basis`` (x is None; ``LPSolution.support`` reads it out), with
    ``dual_eq`` = y and reduced costs cost - y points^T >= -FEAS_TOL, a
    ``feasibility_residual`` of max(|points^T x - mu|, |sum x - 1|,
    max(-x, 0)), and a ``duality_gap`` that bounds how far cost.x lies
    above the optimum: |cost.x - y.mu| plus the most negative reduced
    cost, since every feasible x sums to 1.  ``columns_priced`` counts the
    reduced costs computed, (iterations + 1) n for a cost vector, and
    ``columns_costed`` the costs: n for a cost vector.

    Raises ValidationError when a vertex is missing from ``points``, and
    NumericalFailure when a cost is NaN or infinite (a cost vector is
    checked before the first pivot, a SegmentCost's costs as they are
    computed) or pivoting exceeds 50*(rows+cols) iterations.
    """
    if isinstance(costs, _kernels.SegmentCost):
        n, m = costs.k + 1, 2
        columns = _kernels._SegmentCosts(costs)
        basis = np.array([n - 1, 0])      # the vertices e_0 and e_1
    else:
        cost, points = costs
        n, m = points.shape
        ext = np.empty((m + 1, n))
        ext[:m] = points.T
        ext[m] = cost
        if not np.isfinite(ext[m]).all():
            raise NumericalFailure(
                f"envelope LP cost {int(np.argmin(np.isfinite(ext[m])))} "
                "is not finite")
        basis = np.argmax(ext[:m], axis=1)
        if not (ext[np.arange(m), basis] == 1.0).all():
            raise ValidationError("envelope LP points must include every "
                                  "vertex of the simplex")
        columns = _kernels._CostVector(ext)
    x_b = np.array(mu, dtype=float)
    max_iter = 50 * (m + n)
    status, iters, y, least, priced, costed = _kernels.envelope_iterate(
        columns, basis, x_b, FEAS_TOL, max_iter, DEGENERACY_LIMIT)
    if status == _kernels._STATUS_NONFINITE:
        raise NumericalFailure("envelope LP cost is not finite")
    if status == _kernels._STATUS_ITERLIMIT:
        raise NumericalFailure(f"revised simplex exceeded {max_iter} pivots")
    if status == _kernels._STATUS_UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, None, None, None, iters,
                          columns_priced=priced, columns_costed=costed)

    points_b, cost_b = columns.columns(basis)
    objective = float(cost_b @ x_b)
    resid = max(float(np.abs(points_b @ x_b - mu).max()),
                abs(float(x_b.sum()) - 1.0), max(0.0, -float(x_b.min())))
    gap = abs(objective - float(y @ mu)) + max(0.0, -least)
    return LPSolution(LPStatus.OPTIMAL, None, objective, y, None, iters,
                      duality_gap=gap, feasibility_residual=resid,
                      columns_priced=priced, columns_costed=costed,
                      basis=basis, x_basis=x_b)
