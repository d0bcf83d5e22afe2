"""Seeded instance ladders for the four benchmark workloads.

Each workload is a stream of identical-composition blocks: per block, 24
small solves, 8 medium ones and 1 large one, the way a user sweeps delta or
tangent_k.  Every rung of a class appears equally often in every block;
only the order inside a block and the instances themselves depend on the
seed.  The run's metrics are taken over complete blocks, so each run
measures exactly the stated size mix.  The class positions inside a block
are fixed and spread evenly.  Within a class the rungs are sized to take
about the same time, so the percentiles do not hinge on which rung happens
to sit at their rank.  The stream holds about as many distinct instances
as a run solves, because the instances of one size still differ several
fold in solve time.

The shares put the median solve inside the small class (0-73% of solves)
and the 90th percentile inside the medium class (73-97%), at least four
percentage points from a class boundary.

The seed picks the priors (Dirichlet over the whole E x A x B tensor), the
piecewise scores, the random schemes and the order inside each block.

Why each workload exists:

- classify-ladder: ``classify_substitutes`` on random priors.  The |A| = 2
  rungs spend their time in the interval-pruning loop of ``solve_exact``;
  the |A| = 3 rungs in the simplex.  The large |A| = 3 rung, (2,3,2)
  quadratic at tangent_k=3, varies about twofold with the prior, so it sits
  above the 90th percentile instead of setting it.  Each block adds one
  solve of the known-failure rung, (2,3,2) quadratic at tangent_k=6.  The
  caps refuse it, but only after ``build_obedience_lp`` has allocated the
  dense LP, so the workload's peak RSS shows the missing
  cap-before-allocation check.  Do not shrink that rung: it is there so the
  defect stays visible.  Its refusal is the expected outcome (see
  ``EXPECTED_REFUSAL``): the gate checks that it is a ``SizeCapExceeded``
  and does not count it as a failed solve, so a run fails no solve when the
  program behaves as specified.
- grid-a: ``fptas_a_const`` with an explicit grid_k, |A| in {2,3,4}, from
  10^3 to 10^6 grid points.  Memory-bound u_B and composition kernels plus
  a wide LP with |A|+1 rows; the exact solver is idle.  The 10^6-point rung
  has |A| = 2, where u_B rather than the pivots dominates.
- grid-eb: ``fptas_eb_const`` with an explicit grid_k, |E||B| in {4,6},
  LPs of about 160 to 1,500 rows.  A tall dense tableau, so the pivot row
  update dominates; u_B is a small share.  The pivot count varies several
  fold between priors of one size, so the rungs are small enough for a run
  to see many instances.
- verify: ``oracle_optimal`` over 10^3 to 3*10^5 candidates, then the
  cross-belief deviation check and the constant-sum check against a seeded
  random scheme with tens to hundreds of signals.  No LP calls; u_B runs
  through per-signal Python loops, so it catches a change to the shared u_B
  evaluator that helps the grid workloads and hurts this one.  Scores are
  quadratic and log only: ``deviation_check`` demands a strict first
  inequality whenever Bob's reports diverge, which a piecewise-linear
  (weakly proper) score does not give, so on piecewise scores it reports
  failure for correct payoffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SMALL, MEDIUM, LARGE = 24, 8, 1

# Size class whose solves the caps must refuse, and the error they must
# raise.  Such a refusal is a correct outcome, not a failed solve; an
# answer there is checked like any other answer.
EXPECTED_REFUSAL = ("refused", "SizeCapExceeded")


@dataclass(frozen=True)
class Rung:
    """One instance family: outcome-space shape, score and solver sizes."""

    shape: tuple[int, int, int]          # (|E|, |A|, |B|)
    score: str                           # quadratic | log | piecewise
    params: dict = field(default_factory=dict)
    pieces: int = 0                      # piecewise scores only

    def label(self) -> str:
        score = f"pw{self.pieces}" if self.score == "piecewise" else self.score
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.params.items())
                         if k != "delta")
        return f"{self.shape}-{score}-{extra}"


@dataclass(frozen=True)
class Workload:
    """``classes`` maps a size class to (solves per block, rungs); each
    rung of a class takes an equal share of the class's solves."""

    name: str
    classes: dict[str, tuple[int, tuple[Rung, ...]]]
    pool_blocks: int      # distinct blocks generated before the stream repeats

    @property
    def block_size(self) -> int:
        return sum(n for n, _ in self.classes.values())


def _r(shape, score, pieces=0, **params) -> Rung:
    return Rung(tuple(shape), score, dict(params), pieces)


CLASSIFY = Workload("classify-ladder", {
    "small": (SMALL, (
        _r((2, 2, 2), "quadratic", tangent_k=7),
        _r((2, 2, 2), "quadratic", tangent_k=8),
        _r((2, 2, 2), "log", tangent_k=9),
        _r((2, 2, 2), "piecewise", pieces=8, tangent_k=6),
        _r((2, 2, 3), "log", tangent_k=6),
        _r((3, 2, 2), "piecewise", pieces=8, tangent_k=6),
        _r((2, 3, 2), "quadratic", tangent_k=2),
        _r((2, 3, 2), "piecewise", pieces=3, tangent_k=6),
    )),
    "medium": (MEDIUM, (
        _r((2, 2, 2), "quadratic", tangent_k=16),
        _r((2, 2, 2), "log", tangent_k=18),
        _r((2, 2, 3), "quadratic", tangent_k=8),
        _r((3, 2, 2), "piecewise", pieces=16, tangent_k=6),
    )),
    "large": (LARGE, (_r((2, 3, 2), "quadratic", tangent_k=3),)),
    "refused": (1, (_r((2, 3, 2), "quadratic", tangent_k=6),)),
}, pool_blocks=16)

GRID_A = Workload("grid-a", {
    "small": (SMALL, (
        _r((3, 2, 4), "log", grid_k=999, delta=0.05),
        _r((3, 3, 4), "log", grid_k=43, delta=0.05),
        _r((3, 2, 4), "quadratic", grid_k=9999, delta=0.05),
        _r((3, 2, 4), "log", grid_k=7999, delta=0.05),
        _r((3, 4, 3), "quadratic", grid_k=28, delta=0.05),
        _r((3, 2, 6), "quadratic", grid_k=7999, delta=0.05),
    )),
    "medium": (MEDIUM, (
        _r((3, 2, 4), "log", grid_k=49999, delta=0.05),
        _r((3, 3, 4), "log", grid_k=315, delta=0.05),
        _r((3, 4, 3), "log", grid_k=57, delta=0.05),
        _r((3, 2, 6), "quadratic", grid_k=79999, delta=0.05),
    )),
    "large": (LARGE, (_r((3, 2, 4), "log", grid_k=999999, delta=0.05),)),
}, pool_blocks=16)

GRID_EB = Workload("grid-eb", {
    "small": (SMALL, (
        _r((2, 2, 2), "quadratic", grid_k=3, delta=0.5),
        _r((2, 3, 2), "log", grid_k=3, delta=0.5),
        _r((3, 2, 2), "quadratic", grid_k=2, delta=0.5),
        _r((2, 2, 3), "log", grid_k=2, delta=0.5),
    )),
    "medium": (MEDIUM, (
        _r((3, 2, 2), "log", grid_k=3, delta=0.5),
        _r((3, 3, 2), "quadratic", grid_k=3, delta=0.5),
        _r((2, 2, 3), "quadratic", grid_k=3, delta=0.5),
        _r((2, 3, 3), "log", grid_k=3, delta=0.5),
    )),
    "large": (LARGE, (_r((3, 2, 2), "quadratic", grid_k=4, delta=0.5),)),
}, pool_blocks=40)

VERIFY = Workload("verify", {
    "small": (SMALL, (
        _r((2, 2, 2), "quadratic", step_den=30, max_signals=2,
           scheme_signals=50),
        _r((2, 3, 2), "log", step_den=10, max_signals=2, scheme_signals=20),
        _r((2, 2, 2), "log", step_den=10, max_signals=3, scheme_signals=15),
        _r((2, 3, 2), "quadratic", step_den=20, max_signals=2,
           scheme_signals=15),
    )),
    "medium": (MEDIUM, (
        _r((2, 2, 2), "log", step_den=16, max_signals=3, scheme_signals=30),
        _r((3, 2, 2), "quadratic", step_den=16, max_signals=3,
           scheme_signals=40),
        _r((2, 3, 2), "quadratic", step_den=40, max_signals=2,
           scheme_signals=15),
        _r((2, 3, 2), "log", step_den=30, max_signals=2, scheme_signals=30),
    )),
    "large": (LARGE, (_r((2, 3, 2), "log", step_den=66, max_signals=2,
                         scheme_signals=200),)),
}, pool_blocks=16)

WORKLOADS = {w.name: w for w in (CLASSIFY, GRID_A, GRID_EB, VERIFY)}


def block_pattern(workload: Workload) -> list[str]:
    """Class of each slot in one block, spread as evenly as integer shares
    allow (largest remaining deficit first, ties to the earlier class)."""
    shares = [(name, n) for name, (n, _) in workload.classes.items()]
    total = workload.block_size
    placed = {name: 0 for name, _ in shares}
    out = []
    for slot in range(total):
        name = max(shares,
                   key=lambda c: c[1] * (slot + 1) / total - placed[c[0]])[0]
        placed[name] += 1
        out.append(name)
    return out


@dataclass
class Instance:
    index: int
    size_class: str
    rung: Rung
    instance_path: Path
    scheme_path: Path | None


def _prior(rng: np.random.Generator, shape) -> list:
    alpha = rng.choice((0.5, 1.0, 2.0))
    p = rng.dirichlet(np.full(int(np.prod(shape)), alpha)).reshape(shape)
    return p.tolist()


def _score(rng: np.random.Generator, rung: Rung, n_events: int) -> dict:
    """Piecewise scores are tangent planes of a random weighted quadratic
    at random interior points, so every piece is the maximum somewhere and
    the piece count, which sets the solver's work, is the stated one."""
    if rung.score != "piecewise":
        return {"kind": rung.score}
    weights = rng.uniform(0.5, 1.5, n_events)
    points = rng.dirichlet(np.ones(n_events), size=rung.pieces)
    return {"kind": "piecewise",
            "pieces": [{"r": (2.0 * weights * w).tolist(),
                        "b": float(-(weights * w * w).sum())}
                       for w in points]}


def _scheme(rng: np.random.Generator, prior: list, n_signals: int) -> dict:
    mu_a = np.asarray(prior).sum(axis=(0, 2))
    frac = rng.dirichlet(np.full(n_signals, 0.7), size=mu_a.size).T
    return {"signals": [f"s{j}" for j in range(n_signals)],
            "pi": (frac * mu_a[None, :]).tolist()}


def generate(workload: Workload, seed: int, workdir: Path) -> list[Instance]:
    """Write the seeded instance (and scheme) documents; return the stream
    of ``workload.pool_blocks`` blocks."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    pattern = block_pattern(workload)
    out = []
    for _ in range(workload.pool_blocks):
        queues = {}
        for name, (count, rungs) in workload.classes.items():
            if count % len(rungs):
                raise ValueError(f"{workload.name}/{name}: {len(rungs)} "
                                 f"rungs do not divide {count} slots")
            block = [r for r in rungs for _ in range(count // len(rungs))]
            queues[name] = [block[j] for j in rng.permutation(count)]
        for size_class in pattern:
            rung = queues[size_class].pop()
            i = len(out)
            ne, na, nb = rung.shape
            prior = _prior(rng, rung.shape)
            doc = {"events": [f"e{j}" for j in range(ne)],
                   "alice_signals": [f"a{j}" for j in range(na)],
                   "bob_signals": [f"b{j}" for j in range(nb)],
                   "prior": prior,
                   "score": _score(rng, rung, ne)}
            path = workdir / f"i{i:04d}.json"
            path.write_text(json.dumps(doc))
            scheme_path = None
            if "scheme_signals" in rung.params:
                scheme_path = workdir / f"s{i:04d}.json"
                scheme_path.write_text(json.dumps(
                    _scheme(rng, prior, rung.params["scheme_signals"])))
            out.append(Instance(i, size_class, rung, path, scheme_path))
    return out
