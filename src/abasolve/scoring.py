"""Proper scoring rules and their convex expected-score functions G.

A strictly proper scoring rule R(report, outcome) is characterized by a
strictly convex G with G(w) = E_{e~w} R(w, e).  Built-in rules: quadratic
G(w) = ||w||_2^2, log G(w) = sum_e w_e ln w_e, spherical G(w) = ||w||_2.
A piecewise-linear G (max of affine pieces) corresponds one-to-one with a
finite decision problem, with utilities ``ScoreSpec.utilities``; the exact
solver exploits it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import ScoreKind
from .errors import BoundaryTangent, ValidationError, check_count


@dataclass(frozen=True)
class HolderParams:
    """Local Holder continuity data: |G(x)-G(y)| <= alpha*|x-y|_1^beta
    whenever |x-y|_1 <= locality_c."""

    alpha: float
    beta: float
    locality_c: float = 0.5

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta <= 1 and
                0 < self.locality_c < 1):
            raise ValidationError(
                f"holder parameters out of range: alpha={self.alpha}, "
                f"beta={self.beta}, c={self.locality_c}")


@dataclass(frozen=True)
class ScoreSpec:
    """A scoring rule, given by its expected-score function G."""

    kind: ScoreKind
    pieces_r: np.ndarray | None = None   # (k, |E|) slopes, piecewise only
    pieces_b: np.ndarray | None = None   # (k,) offsets, piecewise only
    holder: HolderParams | None = None
    bound_L: float | None = None

    def __post_init__(self):
        if self.kind is ScoreKind.PIECEWISE:
            if self.pieces_r is None or self.pieces_b is None:
                raise ValidationError("piecewise score requires pieces")
            r = np.ascontiguousarray(np.atleast_2d(np.asarray(self.pieces_r, dtype=float)))
            b = np.ascontiguousarray(np.asarray(self.pieces_b, dtype=float).ravel())
            if r.shape[0] != b.shape[0] or r.shape[0] < 1:
                raise ValidationError("piecewise score needs k >= 1 aligned pieces")
            if not (np.isfinite(r).all() and np.isfinite(b).all()):
                raise ValidationError("piecewise coefficients must be finite")
            object.__setattr__(self, "pieces_r", r)
            object.__setattr__(self, "pieces_b", b)
            r.setflags(write=False)
            b.setflags(write=False)
        elif self.pieces_r is not None or self.pieces_b is not None:
            raise ValidationError(f"{self.kind.value} score does not take pieces")
        if self.bound_L is not None and not 0 < self.bound_L < math.inf:
            raise ValidationError("bound_L must be finite and positive")

    @property
    def k_pieces(self) -> int:
        return 0 if self.pieces_r is None else self.pieces_r.shape[0]

    @property
    def utilities(self) -> np.ndarray:
        """The decision problem of a piecewise G: U[i][e] = r_i[e] + b_i,
        so max_i E_{e~p} U[i][e] reproduces G(p)."""
        if self.kind is not ScoreKind.PIECEWISE:
            raise ValidationError("decision problems exist for piecewise G only")
        return self.pieces_r + self.pieces_b[:, None]

    def duplicate_piece_indices(self) -> list[tuple[int, int]]:
        """Sorted pairs (i, j), i < j, of equal pieces (permitted, flagged)."""
        if self.kind is not ScoreKind.PIECEWISE:
            return []
        rows = np.column_stack((self.pieces_r, self.pieces_b))
        order = np.lexsort(rows.T)  # stable: copies stay in index order
        rows = rows[order]
        same = (rows[1:] == rows[:-1]).all(axis=1)  # -0.0 == 0.0 here too
        runs = np.split(order, np.flatnonzero(~same) + 1) if same.any() else []
        return sorted(pair for run in runs
                      for pair in itertools.combinations(run.tolist(), 2))

    def resolved_holder(self, n_events: int) -> tuple[float, float, float]:
        """(alpha, beta, c), user-supplied or built-in default.

        Spherical carries no usable default and must be user-supplied.
        """
        if self.holder is not None:
            h = self.holder
            return h.alpha, h.beta, h.locality_c
        if self.kind is ScoreKind.QUADRATIC:
            return 2.0, 1.0, 0.5
        if self.kind is ScoreKind.LOG:
            # x*ln(x) is 0.6-nice (max_t t^0.4 ln(1/t) = 2.5/e < 1), so the
            # niceness route gives (n^0.4, 0.6) on the whole simplex.
            return float(n_events) ** 0.4, 0.6, 0.5
        if self.kind is ScoreKind.PIECEWISE:
            alpha = float(np.abs(self.pieces_r).max())
            return max(alpha, 1e-12), 1.0, 0.5
        raise ValidationError(
            "spherical score needs user-supplied holder parameters")

    def resolved_bound(self, n_events: int) -> float:
        """|G| bound L, user-supplied or built-in default."""
        if self.bound_L is not None:
            return self.bound_L
        if self.kind is ScoreKind.QUADRATIC:
            return 1.0
        if self.kind is ScoreKind.LOG:
            return math.log(n_events)
        if self.kind is ScoreKind.SPHERICAL:
            return 1.0
        # each piece is a convex combination over e of U[i][e]
        return float(np.abs(self.utilities).max())


def quadratic_score(holder: HolderParams | None = None,
                    bound_L: float | None = None) -> ScoreSpec:
    return ScoreSpec(ScoreKind.QUADRATIC, holder=holder, bound_L=bound_L)


def log_score(holder: HolderParams | None = None,
              bound_L: float | None = None) -> ScoreSpec:
    return ScoreSpec(ScoreKind.LOG, holder=holder, bound_L=bound_L)


def spherical_score(holder: HolderParams | None = None,
                    bound_L: float | None = None) -> ScoreSpec:
    return ScoreSpec(ScoreKind.SPHERICAL, holder=holder, bound_L=bound_L)


def piecewise_score(pieces: list[tuple], holder: HolderParams | None = None,
                    bound_L: float | None = None) -> ScoreSpec:
    """Build a piecewise-linear G from (r, b) pairs, G(p) = max_i r_i.p + b_i."""
    r = np.array([np.asarray(p[0], dtype=float) for p in pieces])
    b = np.array([float(p[1]) for p in pieces])
    return ScoreSpec(ScoreKind.PIECEWISE, pieces_r=r, pieces_b=b,
                     holder=holder, bound_L=bound_L)


def _weights(p) -> np.ndarray:
    return np.asarray(getattr(p, "weights", p), dtype=float)


def eval_G(score: ScoreSpec, p) -> float:
    """G(p).  For the log rule, boundary points use the limit 0*log 0 = 0."""
    return float(_kernels.weighted_g(_weights(p), np.float64(1.0), score))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each rounded as np.dot rounds it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def grad_G(score: ScoreSpec, p) -> np.ndarray:
    """A (sub)gradient of G at p, row-wise over the last axis.

    Piecewise ties at piece boundaries resolve to the lowest piece index.
    """
    w = _weights(p)
    if score.kind is ScoreKind.QUADRATIC:
        return 2.0 * w
    if score.kind is ScoreKind.LOG:
        with np.errstate(divide="ignore"):
            return np.log(w) + 1.0
    if score.kind is ScoreKind.SPHERICAL:
        nrm = np.sqrt(_row_dot(w, w))[..., None]
        if (nrm == 0.0).any():
            raise ValidationError("spherical gradient undefined at the origin")
        return w / nrm
    piece = np.argmax(w @ score.pieces_r.T + score.pieces_b, axis=-1)
    return np.take(score.pieces_r, piece, axis=0)


def score_R(score: ScoreSpec, report, e: int) -> float:
    """Score R(report, e) of a forecast when outcome e is realized.

    Derived from G via the tangent form R(w, e) = G(w) + <grad G(w), d_e - w>.
    For the log rule with report[e] == 0 this returns -inf (the rule's own
    value), not an exception.
    """
    w = _weights(report)
    n = w.shape[-1]
    if not 0 <= e < n:
        raise ValidationError(f"event e={e} is out of range [0, {n})")
    return expected_report_score(score, w, np.eye(n)[e])


def expected_report_score(score: ScoreSpec, report, belief):
    """E_{e~belief} R(report, e), row-wise over the last axis (a float for
    one report); equals G(report) when belief == report.  A report and a
    belief of different lengths raise ValidationError."""
    w = _weights(report)
    q = _weights(belief)
    if w.shape[-1] != q.shape[-1]:
        raise ValidationError(f"report length {w.shape[-1]} and belief "
                              f"length {q.shape[-1]} differ")
    if score.kind is ScoreKind.LOG:
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(w > 0.0, w, 0.0))    # -inf where w <= 0
            out = np.where(q > 0.0, q * logs, 0.0).sum(axis=-1)
    else:
        out = _kernels.weighted_g(w, np.ones(w.shape[:-1]), score) + \
            _row_dot(grad_G(score, w), q - w)
    return float(out) if out.ndim == 0 else out


def linearize_smooth(score: ScoreSpec, tangent_points) -> ScoreSpec:
    """Lower-approximate a smooth G by the max of its tangent planes.

    The result matches G exactly at each tangent point and underestimates
    elsewhere.  Log tangents at boundary points raise BoundaryTangent.
    """
    if score.kind is ScoreKind.PIECEWISE:
        raise ValidationError("score is already piecewise-linear")
    w = np.asarray(tangent_points, dtype=float)
    if w.ndim != 2 or w.shape[0] == 0:
        raise ValidationError("at least one tangent point required")
    if score.kind is ScoreKind.LOG:
        boundary = (w <= 0.0).any(axis=1)
        if boundary.any():
            raise BoundaryTangent("log gradient diverges at tangent point "
                                  f"{w[boundary.argmax()].tolist()}")
    g = grad_G(score, w)
    offsets = _kernels.weighted_g(w, np.ones(len(w)), score) - _row_dot(g, w)
    return ScoreSpec(ScoreKind.PIECEWISE, pieces_r=g, pieces_b=offsets,
                     holder=score.holder, bound_L=score.bound_L)


def default_tangent_grid(score: ScoreSpec, n_events: int, k: int = 20) -> np.ndarray:
    """K-uniform tangent points for linearization (boundary dropped for log)."""
    check_count("tangent_k", k)
    grid = _kernels.compositions(k, n_events).astype(float) / k
    if score.kind is ScoreKind.LOG:
        grid = grid[(grid > 0.0).all(axis=1)]
    return grid


@dataclass(frozen=True)
class HolderCheck:
    passed: bool
    samples: int
    witness: dict | None = None


def check_holder(score: ScoreSpec, n_events: int | None = None,
                 sample_pairs: int = 1000, rng_seed: int = 0) -> HolderCheck:
    """Sample simplex pairs within the locality radius and test the bound.

    Returns a failing witness pair if |G(x)-G(y)| exceeds
    alpha*|x-y|_1^beta by more than 1e-9.
    """
    if n_events is None:
        if score.kind is not ScoreKind.PIECEWISE:
            raise ValidationError("n_events required for built-in kinds")
        n_events = score.pieces_r.shape[1]
    alpha, beta, c = score.resolved_holder(n_events)
    rng = np.random.default_rng(rng_seed)
    for _ in range(sample_pairs):
        x = rng.dirichlet(np.ones(n_events))
        y = rng.dirichlet(np.ones(n_events))
        dist = float(np.abs(x - y).sum())
        if dist > 0.0:
            # shrink y toward x so the pair lands inside the locality radius
            s = min(1.0, rng.uniform(0.0, 1.0) * c / dist)
            y = x + s * (y - x)
            dist = float(np.abs(x - y).sum())
        gap = abs(eval_G(score, x) - eval_G(score, y))
        if gap > alpha * dist ** beta + 1e-9:
            return HolderCheck(False, sample_pairs,
                               {"x": x, "y": y, "distance": dist, "gap": gap})
    return HolderCheck(True, sample_pairs)


def holder_from_niceness(lam: float, n: int) -> tuple[float, float]:
    """Holder constants (n^(1-lambda), lambda) implied by lambda-niceness."""
    if not (0 < lam <= 1):
        raise ValidationError("lambda must lie in (0, 1]")
    if n < 2:
        raise ValidationError("dimension must be at least 2")
    return float(n) ** (1.0 - lam), lam
