"""Instance model, validation, and marginal/conditional extraction.

The joint prior is a tensor mu[e][a][b] over event, Alice-signal, and
Bob-signal outcomes; all file formats and APIs use that index order.
A conditional on a zero-probability event is undefined: it reads 0.0, and
the definedness masks say which entries are undefined.  A prior owns its
``ConditionalTable``: the first ``marginals_and_conditionals(prior)``
computes it, and every later call shares it, read-only.

Priors and schemes are frozen and their arrays read-only, so what is
derived from them is kept on them, in private fields outside ``repr`` and
``==``.  A prior keeps the two terms of V for the last score it was asked
about; a scheme remembers the last prior it validated against, its
posterior terms Pr(s), Pr(s, e), Pr(s, b) and Pr(s, b, e) for the last
prior, and its u_B terms for the last (prior, score) (both ``belief``).
Every such memo holds
the objects it is keyed by and matches them with ``is``: an equal but
distinct prior, scheme or score recomputes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels, scoring
from .errors import NonFiniteScore, ValidationError
from .scoring import ScoreKind, ScoreSpec

PRIOR_MASS_ATOL = 1e-9
SCHEME_MARGINAL_ATOL = 1e-8
# ``prune_zero_signals`` drops a signal this light, and the fptas solvers'
# schemes leave out a grid point whose LP weight is no heavier
ZERO_SIGNAL_MASS = 1e-12


class Classification(str, enum.Enum):
    SUBSTITUTES = "Substitutes"
    COMPLEMENTS = "Complements"
    NEITHER = "Neither"
    INDIFFERENT = "Indifferent"
    UNCLASSIFIED = "Unclassified"


class Method(str, enum.Enum):
    EXACT = "Exact"
    FPTAS_A = "FptasA"
    FPTAS_EB = "FptasEB"
    ORACLE = "Oracle"


@dataclass(frozen=True)
class OutcomeSpaces:
    """Labels for the event space E, Alice's space A, and Bob's space B."""

    event_labels: tuple[str, ...]
    alice_labels: tuple[str, ...]
    bob_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "event_labels", tuple(self.event_labels))
        object.__setattr__(self, "alice_labels", tuple(self.alice_labels))
        object.__setattr__(self, "bob_labels", tuple(self.bob_labels))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.event_labels), len(self.alice_labels),
                len(self.bob_labels))

    def violations(self) -> list[str]:
        out = []
        for name, labels, least in (("events", self.event_labels, 2),
                                    ("alice_signals", self.alice_labels, 1),
                                    ("bob_signals", self.bob_labels, 1)):
            if len(labels) < least:
                out.append(f"{name}: need at least {least} labels")
            if any(not isinstance(s, str) or not s for s in labels):
                out.append(f"{name}: labels must be nonempty strings")
            if len(set(labels)) != len(labels):
                out.append(f"{name}: labels must be distinct")
        return out


@dataclass(frozen=True)
class JointPrior:
    """Joint distribution mu(e, a, b) as a nonnegative tensor summing to 1.

    Non-finite entries are refused on construction; sign and total mass are
    checked by ``violations``."""

    p: np.ndarray
    _conditionals: ConditionalTable | None = field(
        default=None, init=False, repr=False, compare=False)
    # (score, (E_{A,B} G(p_{A,B}), G(p))), set by ``_value_terms``
    _value: tuple | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.p, dtype=float))
        if arr.ndim != 3:
            raise ValidationError(f"prior tensor must be 3-d, got {arr.ndim}-d")
        if not np.isfinite(arr).all():
            raise ValidationError("prior: entries must be finite")
        object.__setattr__(self, "p", arr)
        arr.setflags(write=False)

    @property
    def n_events(self) -> int:
        return self.p.shape[0]

    @property
    def n_alice(self) -> int:
        return self.p.shape[1]

    @property
    def n_bob(self) -> int:
        return self.p.shape[2]

    def violations(self) -> list[str]:
        out = []
        if (self.p < 0).any():
            idx = tuple(int(i) for i in np.argwhere(self.p < 0)[0])
            out.append(f"prior: negative mass at [e][a][b]={idx}")
        total = float(self.p.sum())
        if abs(total - 1.0) > PRIOR_MASS_ATOL:
            out.append(f"prior: mass sums to {total!r}, not 1")
        return out

    def marginal_alice(self) -> np.ndarray:
        return self.p.sum(axis=(0, 2))


@dataclass(frozen=True)
class SignalingScheme:
    """pi[s][a] = Pr[S=s, A=a], with column sums matching the prior mu(a)."""

    signal_labels: tuple[str, ...]
    pi: np.ndarray
    # the prior the last ``validate`` passed
    _validated: JointPrior | None = field(
        default=None, init=False, repr=False, compare=False)
    # (prior, (Pr(s), Pr(s, e), Pr(s, b), Pr(s, b, e))), set by
    # ``belief._scheme_posteriors``
    _posteriors: tuple | None = field(
        default=None, init=False, repr=False, compare=False)
    # (prior, score, (E_s G(p_s), E_{s,b} G(p_{s,b}))), set by
    # ``belief._scheme_terms``
    _terms: tuple | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "signal_labels", tuple(self.signal_labels))
        arr = np.ascontiguousarray(np.atleast_2d(np.asarray(self.pi, dtype=float)))
        if arr.shape[0] != len(self.signal_labels):
            raise ValidationError("one pi row per signal label required")
        object.__setattr__(self, "pi", arr)
        arr.setflags(write=False)

    @property
    def n_signals(self) -> int:
        return self.pi.shape[0]

    @property
    def n_alice(self) -> int:
        return self.pi.shape[1]

    def signal_index(self, label: str) -> int:
        try:
            return self.signal_labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown signal label {label!r}") from None

    def signal_masses(self) -> np.ndarray:
        return self.pi.sum(axis=1)

    def violations(self, prior: JointPrior) -> list[str]:
        out = []
        if len(set(self.signal_labels)) != len(self.signal_labels):
            out.append("scheme: signal labels must be distinct")
        if self.pi.shape[1] != prior.n_alice:
            out.append(f"scheme: {self.pi.shape[1]} columns for "
                       f"{prior.n_alice} alice outcomes")
            return out
        if not np.isfinite(self.pi).all():
            out.append("scheme: entries must be finite")
            return out
        if (self.pi < 0).any():
            out.append("scheme: negative entry")
        resid = np.abs(self.pi.sum(axis=0) - prior.marginal_alice())
        if (resid > SCHEME_MARGINAL_ATOL).any():
            out.append(f"scheme: column sums off the prior marginal by "
                       f"{float(resid.max())!r}")
        return out

    def validate(self, prior: JointPrior) -> "SignalingScheme":
        """Raise ValidationError unless the scheme fits ``prior``.

        A pass is remembered for that prior object, so checking it again
        against the same prior is free."""
        if self._validated is not prior:
            bad = self.violations(prior)
            if bad:
                raise ValidationError("; ".join(bad))
            object.__setattr__(self, "_validated", prior)
        return self

    def prune_zero_signals(self) -> "SignalingScheme":
        keep = self.signal_masses() > ZERO_SIGNAL_MASS
        if keep.all():
            return self
        labels = tuple(l for l, k in zip(self.signal_labels, keep) if k)
        return SignalingScheme(labels, self.pi[keep])


def full_reveal_scheme(prior: JointPrior) -> SignalingScheme:
    """One signal a<i> per alice outcome: pi(a<i>, a') = mu(a) * [i == a']."""
    labels = tuple(f"a{i}" for i in range(prior.n_alice))
    return SignalingScheme(labels, np.diag(prior.marginal_alice()))


def no_reveal_scheme(prior: JointPrior) -> SignalingScheme:
    """A single constant signal s0 carrying no information."""
    return SignalingScheme(("s0",), prior.marginal_alice()[None, :])


@dataclass(frozen=True)
class ConditionalTable:
    """All marginals and conditionals of a prior.

    Conditionals indexed with the conditioning variable first:
    ``b_given_a[a, b]``, ``e_given_a[a, e]``, ``e_given_ab[a, b, e]``,
    ``eb_given_a[a, e, b]``.  Entries conditioned on a zero-probability
    event are undefined and read 0.0; ``defined_a`` / ``defined_ab`` say
    which they are.  The zeros are safe wherever an undefined row is only
    ever weighted by mass that is itself zero, as every solver path's is:
    Bayes plausibility keeps a signal's mass off an alice outcome with
    mu(a) = 0.  One table per prior is shared by every caller, so its arrays
    are read-only.
    """

    mu_a: np.ndarray
    mu_b: np.ndarray
    mu_e: np.ndarray
    mu_eb: np.ndarray
    mu_ab: np.ndarray
    b_given_a: np.ndarray
    e_given_a: np.ndarray
    e_given_ab: np.ndarray
    eb_given_a: np.ndarray
    defined_a: np.ndarray
    defined_ab: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)


def marginals_and_conditionals(prior: JointPrior) -> ConditionalTable:
    """Every marginal/conditional used by the solvers, computed on the
    first call for ``prior`` and stored on it."""
    if prior._conditionals is not None:
        return prior._conditionals
    p = prior.p  # [e, a, b]
    mu_a = p.sum(axis=(0, 2))
    mu_b = p.sum(axis=(0, 1))
    mu_e = p.sum(axis=(1, 2))
    mu_eb = p.sum(axis=1)                    # [e, b]
    mu_ab = p.sum(axis=0)                    # [a, b]
    defined_a = mu_a > 0.0
    defined_ab = mu_ab > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        b_given_a = np.where(defined_a[:, None], mu_ab / mu_a[:, None], 0.0)
        e_given_a = np.where(defined_a[None, :], p.sum(axis=2) / mu_a[None, :],
                             0.0).T                        # [a, e]
        pab = np.transpose(p, (1, 2, 0))                   # [a, b, e]
        e_given_ab = np.where(defined_ab[:, :, None], pab / mu_ab[:, :, None],
                              0.0)
        eb_given_a = np.where(defined_a[None, :, None],
                              p / mu_a[None, :, None], 0.0)
        eb_given_a = np.transpose(eb_given_a, (1, 0, 2))   # [a, e, b]
    table = ConditionalTable(mu_a, mu_b, mu_e, mu_eb, mu_ab, b_given_a,
                             e_given_a, e_given_ab, eb_given_a, defined_a,
                             defined_ab)
    object.__setattr__(prior, "_conditionals", table)
    return table


@dataclass(frozen=True)
class ValidationOutcome:
    violations: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(spaces: OutcomeSpaces, prior: JointPrior,
                      score: ScoreSpec | None = None,
                      rng_seed: int = 0) -> ValidationOutcome:
    """Check an instance; violations are returned as data, not raised.
    A negative ``rng_seed`` is an argument error and raises
    ValidationError."""
    if rng_seed < 0:
        raise ValidationError(f"rng_seed={rng_seed} must be at least 0")
    violations = list(spaces.violations())
    warnings: list[str] = []
    if prior.p.shape != spaces.shape:
        violations.append(f"prior: tensor shape {prior.p.shape} does not "
                          f"match label counts {spaces.shape}")
    violations.extend(prior.violations())
    if score is not None:
        n_e = len(spaces.event_labels)
        if score.kind is ScoreKind.PIECEWISE:
            if score.pieces_r.shape[1] != n_e:
                violations.append(
                    f"score: pieces have {score.pieces_r.shape[1]} "
                    f"coordinates for {n_e} events")
            for i, j in score.duplicate_piece_indices():
                warnings.append(f"score: pieces {i} and {j} are duplicates")
        if score.bound_L is not None and not violations:
            rng = np.random.default_rng(rng_seed)
            probes = rng.dirichlet(np.ones(n_e), size=256)
            vals = np.array([scoring.eval_G(score, q) for q in probes])
            worst = float(np.abs(vals).max())
            if worst > score.bound_L + 1e-9:
                violations.append(
                    f"score: |G| reaches {worst!r} on sampled points, "
                    f"above bound_L={score.bound_L!r}")
    return ValidationOutcome(tuple(violations), tuple(warnings))


def _value_terms(prior: JointPrior, score: ScoreSpec) -> tuple[float, float]:
    """(E_{A,B} G(p_{A,B}), G(p)): the two terms of V, checked finite.

    Stored on ``prior`` for ``score`` (matched by identity); a non-finite
    result is not stored, so every call raises it."""
    memo = prior._value
    if memo is not None and memo[0] is score:
        return memo[1]
    table = marginals_and_conditionals(prior)
    terms = _kernels.weighted_g(prior.p.transpose(1, 2, 0), table.mu_ab,
                                score)
    if not np.isfinite(terms).all():
        a, b = (int(i) for i in np.argwhere(~np.isfinite(terms))[0])
        raise NonFiniteScore(
            f"G is not finite at the posterior for (a={a}, b={b})")
    g0 = scoring.eval_G(score, table.mu_e)
    if not np.isfinite(g0):
        raise NonFiniteScore("G is not finite at the prior")
    out = (float(terms.sum()), g0)
    object.__setattr__(prior, "_value", (score, out))
    return out


def total_value(prior: JointPrior, score: ScoreSpec) -> float:
    """V = E_{A,B} G(p_{A,B}) - G(p): the pie the two traders split.

    Nonnegative for convex G by Jensen's inequality.
    """
    e_ab, g0 = _value_terms(prior, score)
    return e_ab - g0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a verification run (holder bound, deviation chain, ...)."""

    passed: bool
    details: dict = field(default_factory=dict)
    witness: dict | None = None


@dataclass(frozen=True)
class SolveReport:
    """A solved instance: scheme, objective values, and solver counters."""

    scheme: SignalingScheme
    bob_utility: float
    total_value_V: float
    classification: Classification
    method: Method
    diagnostics: dict = field(default_factory=dict)

    @property
    def sender_objective(self) -> float:
        """Alice's objective: the negation of Bob's utility."""
        return -self.bob_utility
