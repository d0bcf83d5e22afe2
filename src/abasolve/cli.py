"""Command-line front end.

Commands: solve (exact / fptas-a / fptas-eb / oracle), classify, value,
simulate, oracle.  Reports are written as deterministic JSON; a short
human-readable summary goes to standard output.  Exit codes: 0 success,
2 validation/parse failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import belief, exact, fptas, instances, oracle
from .core import JointPrior, OutcomeSpaces, SignalingScheme, total_value, \
    validate_instance
from .errors import NumericalFailure, ParseError, SizeCapExceeded, \
    SolverError, ValidationError
from .scoring import ScoreSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    instance_path: str
    method: str = "exact"
    delta: float | None = None
    eta: float | None = None
    output_path: str | None = None
    believed_path: str | None = None
    actual_path: str | None = None
    seed: int = 0
    grid_step: float = 0.02
    max_signals: int = 2
    tangent_k: int = 20
    cap_lp_vars: int = exact.DEFAULT_LP_VAR_CAP
    cap_grid_points: int = fptas.DEFAULT_GRID_CAP

    def __post_init__(self):
        if self.method in ("fptas-a", "fptas-eb") and \
                (self.delta is None or not 0 < self.delta < math.inf):
            raise ValidationError(
                "a finite --delta > 0 is required for FPTAS methods")


def _load(config: RunConfig) -> tuple[OutcomeSpaces, JointPrior, ScoreSpec]:
    spaces, prior, score = instances.parse_instance(config.instance_path)
    outcome = validate_instance(spaces, prior, score, rng_seed=config.seed)
    if not outcome.ok:
        raise ValidationError("; ".join(outcome.violations))
    for warning in outcome.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return spaces, prior, score


def _load_scheme(path: str, prior: JointPrior) -> SignalingScheme:
    labels, pi = instances.parse_scheme(path)
    return SignalingScheme(labels, pi).validate(prior)


def _solve(config: RunConfig, prior: JointPrior, score: ScoreSpec):
    if config.method == "exact":
        return exact.classify_substitutes(prior, score, config.tangent_k,
                                          config.cap_lp_vars)
    if config.method == "fptas-a":
        return fptas.fptas_a_const(prior, score, config.delta,
                                   cap_grid_points=config.cap_grid_points)
    if config.method == "fptas-eb":
        return fptas.fptas_eb_const(prior, score, config.delta,
                                    consistency_eta=config.eta,
                                    cap_grid_points=config.cap_grid_points)
    if config.method == "oracle":
        return oracle.oracle_optimal(prior, score, config.grid_step,
                                     config.max_signals)
    raise ValidationError(f"unknown method {config.method!r}")


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        spaces, prior, score = _load(config)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if config.command in ("solve", "classify", "oracle"):
            report = _solve(config, prior, score)
            text = instances.emit_report(report, config.output_path)
            print(f"{report.method.value}: objective "
                  f"{report.sender_objective:.9g}, bob utility "
                  f"{report.bob_utility:.9g}, V {report.total_value_V:.9g}, "
                  f"classification {report.classification.value}")
            if config.output_path is None:
                print(text, end="")
            return EXIT_OK
        if config.command == "value":
            v = total_value(prior, score)
            text = instances.write_json({"V": v}, config.output_path)
            print(f"V = {v:.9g}")
            if config.output_path is None:
                print(text, end="")
            return EXIT_OK
        if config.command == "simulate":
            believed = _load_scheme(config.believed_path, prior)
            actual = _load_scheme(config.actual_path, prior)
            if belief.sender_objective(prior, score, actual) >= \
                    belief.sender_objective(prior, score, believed):
                check = oracle.deviation_check(prior, score, believed, actual)
            else:
                check = oracle.deviation_check(prior, score, actual, believed)
            payoff = oracle.cross_belief_utilities(prior, score, believed,
                                                   actual)
            doc = {
                "passed": check.passed,
                "bob_utility_cross": payoff.bob_utility,
                "alice_utility_cross": payoff.alice_utility,
                "off_path_mass": payoff.off_path_mass,
                "chain": {k: check.details[k] for k in sorted(check.details)},
            }
            text = instances.write_json(doc, config.output_path)
            print(f"deviation chain {'holds' if check.passed else 'FAILS'}: "
                  f"u_B(pi;pi*) {check.details['u_b_cross']:.9g} <= "
                  f"u_B(pi*;pi*) {check.details['u_b_star']:.9g} <= "
                  f"u_B(pi;pi) {check.details['u_b_own']:.9g}")
            if config.output_path is None:
                print(text, end="")
            return EXIT_OK
        raise ValidationError(f"unknown command {config.command!r}")
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SizeCapExceeded, NumericalFailure, SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _parser() -> argparse.ArgumentParser:
    """Each command registers only the options it reads.  Options left out
    of the command line stay out of the namespace, so RunConfig's defaults
    are the only ones."""
    p = argparse.ArgumentParser(
        prog="abasolve",
        description="Optimal signaling for the three-round Alice-Bob-Alice "
                    "scoring-rule market with commitment")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        sp = sub.add_parser(name, help=help_text,
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("instance_path", metavar="instance",
                        help="instance JSON file")
        sp.add_argument("--out", dest="output_path", metavar="PATH",
                        help="report output path (default: stdout)")
        sp.add_argument("--seed", type=int,
                        help="seed for sampled validation checks")
        return sp

    def exact_options(sp):
        sp.add_argument("--tangent-k", type=int,
                        help="tangent grid resolution for smooth scores")
        sp.add_argument("--cap-lp-vars", type=int,
                        help="cap on the exact solver's candidate points "
                        "(vertices of the arrangement on which u_B is "
                        "linear), checked before any is built")

    def oracle_options(sp):
        sp.add_argument("--step", dest="grid_step", metavar="STEP",
                        type=float, help="oracle grid step")
        sp.add_argument("--max-signals", type=int)

    sp = command("solve", "compute an optimal or delta-optimal scheme")
    sp.add_argument("--method", choices=["exact", "fptas-a", "fptas-eb",
                                         "oracle"])
    sp.add_argument("--delta", type=float,
                    help="target suboptimality for FPTAS methods")
    sp.add_argument("--eta", type=float,
                    help="achievability slack for fptas-eb")
    sp.add_argument("--cap-grid-points", type=int)
    exact_options(sp)
    oracle_options(sp)

    exact_options(command("classify", "substitutes / complements / neither"))
    command("value", "total value V of the instance")

    sp = command("simulate", "cross-belief deviation check")
    sp.add_argument("--belief", dest="believed_path", metavar="SCHEME",
                    required=True, help="Bob's believed scheme")
    sp.add_argument("--actual", dest="actual_path", metavar="SCHEME",
                    required=True, help="Alice's actual scheme")

    sp = command("oracle", "brute-force reference solver")
    sp.set_defaults(method="oracle")
    oracle_options(sp)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        config = RunConfig(**vars(_parser().parse_args(argv)))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
