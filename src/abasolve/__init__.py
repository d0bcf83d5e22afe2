"""Optimal signaling for the Alice-Bob-Alice scoring-rule market.

Alice trades in rounds 1 and 3 of a three-round market, Bob in round 2;
Alice commits publicly to a signaling scheme before play.  This package
computes her optimal commitment exactly for piecewise-linear expected-score
functions, as the concavification LP over the vertices of the arrangement
on which Bob's utility is linear, delta-optimally over K-uniform posterior
grids for smooth rules, and verifies the constant-sum accounting and the
deviation inequalities of the underlying market by direct simulation.
"""

from .belief import (PosteriorDistribution, SupportKind, alice_total_utility,
                     bob_utility_from_vEB, bob_utility_from_wA,
                     bob_utility_of_scheme, posterior_e_given_s,
                     posterior_e_given_sb, prob_b_given_s, sender_objective)
from .core import (CheckReport, Classification, ConditionalTable, JointPrior,
                   Method, OutcomeSpaces, SignalingScheme, SolveReport,
                   ValidationOutcome, full_reveal_scheme,
                   marginals_and_conditionals, no_reveal_scheme, total_value,
                   validate_instance)
from .exact import (build_obedience_lp, build_revelation_signals,
                    certify_obedience, classify_substitutes, solve_exact)
from .errors import (BayesPlausibilityViolated, BoundaryTangent,
                     NonFiniteScore, NumericalFailure, ParseError,
                     PreconditionViolated, SizeCapExceeded, SolverError,
                     ValidationError, ZeroProbabilityPair,
                     ZeroProbabilitySignal)
from .fptas import (enumerate_k_uniform, epsilon_for_delta, fptas_a_const,
                    fptas_eb_const, grid_size_K, sample_k_uniform,
                    scheme_from_posteriors)
from .instances import (copy_instance, emit_report, independent_instance,
                        parse_instance, xor_instance)
from .lp import LPSolution, LPStatus
from .oracle import (CrossBeliefPayoff, bob_report, cross_belief_utilities,
                     deviation_check, oracle_optimal)
from .scoring import (HolderParams, ScoreKind, ScoreSpec, check_holder,
                      default_tangent_grid, eval_G, expected_report_score,
                      holder_from_niceness, linearize_smooth, log_score,
                      piecewise_score, quadratic_score, score_R,
                      spherical_score)

__version__ = "0.1.0"

# The kernels are numpy-only; perfbench's provenance line reads this flag.
NUMBA_ENABLED = False
