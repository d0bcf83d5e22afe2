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
    p = argparse.ArgumentParser(
        prog="abasolve",
        description="Optimal signaling for the three-round Alice-Bob-Alice "
                    "scoring-rule market with commitment")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, method_choices=None):
        sp.add_argument("instance", help="instance JSON file")
        sp.add_argument("--out", dest="out", default=None,
                        help="report output path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled validation checks")
        if method_choices:
            sp.add_argument("--method", choices=method_choices,
                            default=method_choices[0])
        sp.add_argument("--delta", type=float, default=None,
                        help="target suboptimality for FPTAS methods")
        sp.add_argument("--eta", type=float, default=None,
                        help="achievability slack for fptas-eb")
        sp.add_argument("--tangent-k", type=int, default=20,
                        help="tangent grid resolution for smooth scores")
        sp.add_argument("--cap-lp-vars", type=int,
                        default=exact.DEFAULT_LP_VAR_CAP,
                        help="cap on the exact solver's candidate points "
                        "(vertices of the arrangement on which u_B is "
                        "linear), checked before any is built")
        sp.add_argument("--cap-grid-points", type=int,
                        default=fptas.DEFAULT_GRID_CAP)

    sp = sub.add_parser("solve", help="compute an optimal or delta-optimal scheme")
    common(sp, ["exact", "fptas-a", "fptas-eb", "oracle"])
    sp.add_argument("--step", type=float, default=0.02,
                    help="oracle grid step")
    sp.add_argument("--max-signals", type=int, default=2)

    sp = sub.add_parser("classify", help="substitutes / complements / neither")
    common(sp)

    sp = sub.add_parser("value", help="total value V of the instance")
    common(sp)

    sp = sub.add_parser("simulate", help="cross-belief deviation check")
    common(sp)
    sp.add_argument("--belief", required=True, help="Bob's believed scheme")
    sp.add_argument("--actual", required=True, help="Alice's actual scheme")

    sp = sub.add_parser("oracle", help="brute-force reference solver")
    common(sp)
    sp.add_argument("--step", type=float, default=0.02)
    sp.add_argument("--max-signals", type=int, default=2)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            instance_path=args.instance,
            method=getattr(args, "method", None) or
            ("oracle" if args.command == "oracle" else "exact"),
            delta=args.delta,
            eta=args.eta,
            output_path=args.out,
            believed_path=getattr(args, "belief", None),
            actual_path=getattr(args, "actual", None),
            seed=args.seed,
            grid_step=getattr(args, "step", 0.02),
            max_signals=getattr(args, "max_signals", 2),
            tangent_k=args.tangent_k,
            cap_lp_vars=args.cap_lp_vars,
            cap_grid_points=args.cap_grid_points,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
