"""Posterior calculus and utility functionals of the commitment game.

Bob's utility is what his round-2 trade earns: u_B = E_{s,b} G(p_{s,b})
- E_s G(p_s).  Alice's sender objective is its exact negation.  Her total
utility additionally collects the round-1 and round-3 score improvements;
the game is constant-sum with total V = E G(p_{A,B}) - G(p).

Three equivalent parameterizations of u_B are provided: by scheme, by a
posterior w over A, and by a posterior v over E x B.

A scheme's posteriors are formed in one place, ``_posterior_terms``, for
all signals at once; the per-label functions index into its result.  Its
coefficients mu(e|a), mu(b|a) and mu(e|a,b) come from the prior's own
``ConditionalTable``, computed once per prior.  A scheme's two u_B terms
are computed once per (prior, score) and kept on the scheme, matched by
identity (see ``core``), so the functionals below and ``oracle``'s
cross-belief payoffs share one evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import ConditionalTable, JointPrior, SignalingScheme, \
    _value_terms, marginals_and_conditionals
from .errors import PreconditionViolated, ValidationError, \
    ZeroProbabilityPair, ZeroProbabilitySignal
from .scoring import ScoreSpec


class SupportKind(str, enum.Enum):
    OVER_E = "E"
    OVER_A = "A"
    OVER_E_TIMES_B = "ExB"


@dataclass(frozen=True)
class PosteriorDistribution:
    """A point of a probability simplex (over E, A, or E x B)."""

    support_kind: SupportKind
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)  # a copy: never freeze input
        if w.ndim != 1:
            raise ValidationError("posterior weights must be a vector")
        if (w < -1e-12).any() or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(
                f"weights must be a distribution, got sum {float(w.sum())!r}")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


def _posterior_terms(pi: np.ndarray, table: ConditionalTable):
    """Pr(s), Pr(s, e), Pr(s, b) and Pr(s, b, e) for every row s of ``pi``:
    the masses and numerators of Pr(e|s) and Pr(e|s,b)."""
    return (pi.sum(axis=1), pi @ table.e_given_a, pi @ table.b_given_a,
            np.einsum("sa,aeb->sbe", pi, table.eb_given_a))


def _signal_terms(prior: JointPrior, scheme: SignalingScheme, s: str):
    """``_posterior_terms`` of one signal; raises if it is never sent."""
    row = scheme.pi[scheme.signal_index(s)][None]
    terms = [x[0] for x in _posterior_terms(
        row, marginals_and_conditionals(prior))]
    if terms[0] <= 0.0:
        raise ZeroProbabilitySignal(f"signal {s!r} is never sent")
    return terms


def posterior_e_given_s(prior: JointPrior, scheme: SignalingScheme,
                        s: str) -> PosteriorDistribution:
    """Pr(e|s) = sum_a mu(e|a) pi(s,a) / sum_a pi(s,a)."""
    mass, numer, _, _ = _signal_terms(prior, scheme, s)
    return PosteriorDistribution(SupportKind.OVER_E, numer / mass)


def posterior_e_given_sb(prior: JointPrior, scheme: SignalingScheme, s: str,
                         b: int) -> PosteriorDistribution:
    """Pr(e|s,b) = sum_a mu(e|a,b) pi(s,a) mu(b|a) / sum_a pi(s,a) mu(b|a)."""
    if not 0 <= b < prior.n_bob:
        raise ValidationError(
            f"bob outcome b={b} is out of range [0, {prior.n_bob})")
    row = scheme.pi[scheme.signal_index(s)][None]
    _, _, mass_b, numer_b = _posterior_terms(
        row, marginals_and_conditionals(prior))
    if mass_b[0, b] <= 0.0:
        raise ZeroProbabilityPair(f"pair (s={s!r}, b={b}) has zero probability")
    return PosteriorDistribution(SupportKind.OVER_E,
                                 numer_b[0, b] / mass_b[0, b])


def prob_b_given_s(prior: JointPrior, scheme: SignalingScheme,
                   s: str) -> np.ndarray:
    """Pr(b|s) = sum_a Pr(a|s) mu(b|a)."""
    mass, _, mass_b, _ = _signal_terms(prior, scheme, s)
    return mass_b / mass


def _scheme_terms(prior: JointPrior, score: ScoreSpec,
                  scheme: SignalingScheme) -> tuple[float, float]:
    """(E_s G(p_s), E_{s,b} G(p_{s,b})); zero-probability signals dropped.

    One batched evaluation each over Pr(s, e) and Pr(s, b, e), stored on
    ``scheme`` for this ``prior`` and ``score`` (matched by identity).
    """
    memo = scheme._terms
    if memo is not None and memo[0] is prior and memo[1] is score:
        return memo[2]
    scheme.validate(prior)
    mass, numer, mass_b, numer_b = _posterior_terms(
        scheme.pi, marginals_and_conditionals(prior))
    out = (float(_kernels.weighted_g(numer, mass, score).sum()),
           float(_kernels.weighted_g(numer_b, mass_b, score).sum()))
    object.__setattr__(scheme, "_terms", (prior, score, out))
    return out


def bob_utility_of_scheme(prior: JointPrior, score: ScoreSpec,
                          scheme: SignalingScheme) -> float:
    """u_B = E_{s,b} G(p_{s,b}) - E_s G(p_s); nonnegative for convex G."""
    e_s, e_sb = _scheme_terms(prior, score, scheme)
    return e_sb - e_s


def sender_objective(prior: JointPrior, score: ScoreSpec,
                     scheme: SignalingScheme) -> float:
    """Alice's commitment objective E_s G(p_s) - E_{s,b} G(p_{s,b}) = -u_B."""
    return -bob_utility_of_scheme(prior, score, scheme)


def bob_utility_from_wA(prior: JointPrior, score: ScoreSpec, w) -> float:
    """u_B of the single signal inducing posterior w over A.

    Requires w a distribution absolutely continuous w.r.t. mu(a); mass on a
    zero-probability alice outcome is rejected rather than extrapolated.
    """
    t = marginals_and_conditionals(prior)
    wv = PosteriorDistribution(SupportKind.OVER_A,
                               getattr(w, "weights", w)).weights
    if wv.shape != (prior.n_alice,):
        raise ValidationError(f"posterior over A must have {prior.n_alice} entries")
    if np.any((wv > 1e-12) & ~t.defined_a):
        raise PreconditionViolated(
            "posterior places mass on an alice outcome with mu(a) = 0")
    row = np.where((wv > 0.0) & t.defined_a, wv, 0.0)
    return float(_kernels.ub_grid_wa(row[None, :], t, score)[0])


def bob_utility_from_vEB(score: ScoreSpec, v) -> float:
    """u_B as a function of the joint posterior v over E x B, a matrix
    [e, b].  Terms with lambda_b = 0 contribute zero.
    """
    vv = np.asarray(v, dtype=float)
    if vv.ndim != 2:
        raise ValidationError("v must be a matrix [e, b]")
    PosteriorDistribution(SupportKind.OVER_E_TIMES_B, vv.ravel())  # checks v
    ne, nb = vv.shape
    return float(_kernels.ub_grid_veb(vv.reshape(1, -1), ne, nb, score)[0])


def alice_total_utility(prior: JointPrior, score: ScoreSpec,
                        scheme: SignalingScheme) -> float:
    """Alice's two trades: R(p_S)-R(p) plus R(p_{A,B})-R(p_{S,B}).

    Computed term by term from the round structure, so the constant-sum
    identity alice + bob = V is a genuine numerical check.
    """
    e_s, e_sb = _scheme_terms(prior, score, scheme)
    e_ab, g_prior = _value_terms(prior, score)
    return (e_s - g_prior) + (e_ab - e_sb)


def induced_posterior_over_A(scheme: SignalingScheme, s: str) -> np.ndarray:
    """Pr(a|s) for a positive-probability signal."""
    row = scheme.pi[scheme.signal_index(s)]
    mass = float(row.sum())
    if mass <= 0.0:
        raise ZeroProbabilitySignal(f"signal {s!r} is never sent")
    return row / mass


def induced_posterior_over_EB(prior: JointPrior, scheme: SignalingScheme,
                              s: str) -> np.ndarray:
    """Pr(e, b|s) as a matrix [e, b]."""
    mass, _, _, numer_b = _signal_terms(prior, scheme, s)
    return numer_b.T / mass
