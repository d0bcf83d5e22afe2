"""Per-solve correctness gate.

Every emitted report is parsed back and re-checked with public functions
that the solver did not use to produce its answer:

- the sender objective of the reported scheme, recomputed, matches the
  reported objective;
- the scheme is nonnegative and its columns sum to mu_A;
- alice_total_utility + bob_utility_of_scheme = V (constant-sum), and V
  matches total_value;
- the LP duality gap and the obedience residual are within tolerance;
- for verify, the deviation chain passed and the cross-belief payoffs are
  constant-sum too.

For the default seed the objectives and classifications must also match
the reference values in ``reference.json``.  A typed refusal is not a wrong
answer; it is counted as a failed solve instead, unless it is the refusal
the workload expects (``workloads.EXPECTED_REFUSAL``).
"""

from __future__ import annotations

import json
from pathlib import Path

VALUE_TOL = 1e-9
LP_GAP_TOL = 1e-7
OBEDIENCE_TOL = 1e-7
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def effective_score(ab, rung, prior, score):
    """The score the solver optimized: classify linearizes smooth rules."""
    if "tangent_k" in rung.params and score.kind.value != "piecewise":
        grid = ab.scoring.default_tangent_grid(score, prior.n_events,
                                               rung.params["tangent_k"])
        return ab.scoring.linearize_smooth(score, grid)
    return score


def check_outputs(ab, inst, outputs: tuple[str, ...]) -> list[str]:
    """Problems found in one instance's outputs (empty when correct)."""
    _, prior, score = ab.instances.parse_instance(inst.instance_path)
    score = effective_score(ab, inst.rung, prior, score)
    doc = json.loads(outputs[0])
    problems = []

    def close(name, got, want, tol=VALUE_TOL):
        if not abs(got - want) <= tol:
            problems.append(f"{name}: {got!r} vs {want!r}")

    scheme = ab.SignalingScheme(doc["scheme"]["signals"], doc["scheme"]["pi"])
    problems.extend(scheme.violations(prior))
    if problems:
        return problems
    close("objective", ab.belief.sender_objective(prior, score, scheme),
          doc["objective"])
    close("V", ab.core.total_value(prior, score), doc["V"])
    close("alice+bob",
          ab.belief.alice_total_utility(prior, score, scheme)
          + ab.belief.bob_utility_of_scheme(prior, score, scheme), doc["V"])
    diag = doc["diagnostics"]
    if "lp_duality_gap" in diag and not diag["lp_duality_gap"] <= LP_GAP_TOL:
        problems.append(f"lp_duality_gap {diag['lp_duality_gap']!r}")
    if "max_obedience_violation" in diag and \
            not diag["max_obedience_violation"] <= OBEDIENCE_TOL:
        problems.append(
            f"max_obedience_violation {diag['max_obedience_violation']!r}")
    if len(outputs) > 1:
        sim = json.loads(outputs[1])
        if sim["passed"] is not True:
            problems.append("deviation chain failed")
        close("cross alice+bob",
              sim["alice_utility_cross"] + sim["bob_utility_cross"], doc["V"])
        close("actual alice+bob", sim["alice_total"] + sim["bob_own"],
              sim["V"])
    return problems


def summary(outputs: tuple[str, ...] | None) -> dict:
    """The values recorded in, and compared against, the reference file."""
    if outputs is None:
        return {"refused": True}
    doc = json.loads(outputs[0])
    out = {"objective": doc["objective"],
           "classification": doc["classification"]}
    if len(outputs) > 1:
        out["u_b_star"] = json.loads(outputs[1])["chain"]["u_b_star"]
    return out


def check_reference(ref: dict, outputs: tuple[str, ...] | None) -> list[str]:
    """Compare against a reference entry.  A refusal where the reference
    has an answer is a failed solve, not a wrong one; an answer where the
    reference was refused is checked by ``check_outputs`` alone."""
    if outputs is None or ref.get("refused"):
        return []
    got = summary(outputs)
    problems = []
    for key, want in ref.items():
        if isinstance(want, str):
            if got[key] != want:
                problems.append(f"{key}: {got[key]!r} vs reference {want!r}")
        elif not abs(got[key] - want) <= VALUE_TOL:
            problems.append(f"{key}: {got[key]!r} vs reference {want!r}")
    return problems


def load_reference(workload: str) -> dict[int, dict]:
    doc = json.loads(REFERENCE_PATH.read_text())
    return {int(k): v for k, v in doc["workloads"].get(workload, {}).items()}
