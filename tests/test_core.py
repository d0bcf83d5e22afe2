import numpy as np
import pytest

from abasolve import instances
from abasolve.core import (JointPrior, OutcomeSpaces, SignalingScheme,
                           SolveReport, Classification, Method,
                           full_reveal_scheme, marginals_and_conditionals,
                           no_reveal_scheme, total_value, validate_instance)
from abasolve.errors import ValidationError
from abasolve.scoring import piecewise_score, quadratic_score

from helpers import random_prior


BINARY = OutcomeSpaces(("0", "1"), ("0", "1"), ("0", "1"))


def test_validate_xor_instance(quad):
    spaces, prior = instances.xor_instance()
    outcome = validate_instance(spaces, prior, quad)
    assert outcome.ok and not outcome.violations


def test_validate_negative_mass(quad):
    p = np.full((2, 2, 2), 0.125)
    p[0, 0, 0] = -0.1
    p[1, 1, 1] = 0.35
    outcome = validate_instance(BINARY, JointPrior(p), quad)
    assert any("negative mass" in v for v in outcome.violations)


def test_validate_mass_sum(quad):
    outcome = validate_instance(BINARY, JointPrior(np.full((2, 2, 2), 0.1125)),
                                quad)
    assert any("not 1" in v for v in outcome.violations)


def test_validate_shape_mismatch(quad):
    outcome = validate_instance(BINARY, JointPrior(np.full((2, 3, 2), 1 / 12)),
                                quad)
    assert any("shape" in v for v in outcome.violations)


def test_validate_piece_dimension_mismatch():
    spaces, prior = instances.xor_instance()
    score = piecewise_score([((1.0, 0.0, -1.0), 0.0)])  # 3 coords, 2 events
    outcome = validate_instance(spaces, prior, score)
    assert any("coordinates" in v for v in outcome.violations)


def test_validate_duplicate_piece_warning():
    spaces, prior = instances.xor_instance()
    score = piecewise_score([((1.0, 0.0), 0.0), ((1.0, 0.0), 0.0)])
    outcome = validate_instance(spaces, prior, score)
    assert outcome.ok
    assert any("duplicate" in w for w in outcome.warnings)


def test_validate_bad_bound():
    spaces, prior = instances.xor_instance()
    score = quadratic_score(bound_L=0.25)  # |G| hits 1 at the vertices
    outcome = validate_instance(spaces, prior, score)
    assert any("bound_L" in v for v in outcome.violations)


def test_validate_negative_seed_raises():
    """A negative seed is refused on entry, also when a bound_L makes the
    check sample with it."""
    spaces, prior = instances.xor_instance()
    for score in (quadratic_score(), quadratic_score(bound_L=1.0)):
        with pytest.raises(ValidationError, match="rng_seed=-1 must be"):
            validate_instance(spaces, prior, score, rng_seed=-1)


def test_marginals_xor(xor_prior):
    t = marginals_and_conditionals(xor_prior)
    # independent oracle: direct summation of the prior tensor
    p = xor_prior.p
    assert t.mu_a == pytest.approx(p.sum(axis=(0, 2)))
    assert t.mu_a[0] == pytest.approx(0.5)
    assert t.e_given_ab[0, 0, 0] == pytest.approx(1.0)  # e = a xor b
    assert t.e_given_ab[0, 1, 1] == pytest.approx(1.0)


def test_marginals_independent(independent_prior):
    t = marginals_and_conditionals(independent_prior)
    assert t.e_given_a == pytest.approx(np.full((2, 2), 0.5))
    assert t.b_given_a == pytest.approx(np.full((2, 2), 0.5))


def test_marginals_zero_conditioning_event():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 0, 1] = 0.5  # alice outcome 1 never happens
    t = marginals_and_conditionals(JointPrior(p))
    assert not t.defined_a[1]
    assert np.isnan(t.e_given_a[1]).all()
    assert t.defined_a[0]
    assert not np.isnan(t.e_given_a[0]).any()


def test_marginal_normalization_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        prior = random_prior(rng, ne=3, na=2, nb=3)
        t = marginals_and_conditionals(prior)
        assert abs(t.mu_a.sum() - 1.0) <= 1e-9
        for a in range(prior.n_alice):
            if t.defined_a[a]:
                assert abs(t.b_given_a[a].sum() - 1.0) <= 1e-9


def test_recomposition_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        prior = random_prior(rng, ne=2, na=3, nb=2)
        t = marginals_and_conditionals(prior)
        for a in range(3):
            for b in range(2):
                if not t.defined_ab[a, b]:
                    continue
                for e in range(2):
                    recomposed = t.mu_a[a] * t.b_given_a[a, b] * \
                        t.e_given_ab[a, b, e]
                    assert recomposed == pytest.approx(prior.p[e, a, b],
                                                       abs=1e-12)


def test_total_value_xor_quadratic(xor_prior, quad):
    # posteriors given (a, b) are deterministic; prior over E is uniform
    assert total_value(xor_prior, quad) == pytest.approx(0.5, abs=1e-12)


def test_total_value_copy_quadratic(copy_prior, quad):
    assert total_value(copy_prior, quad) == pytest.approx(0.5, abs=1e-12)


def test_total_value_independent_any_G(independent_prior, quad, logsc):
    assert total_value(independent_prior, quad) == pytest.approx(0.0, abs=1e-12)
    assert total_value(independent_prior, logsc) == pytest.approx(0.0, abs=1e-12)


def test_total_value_nonnegative_random(quad, logsc):
    rng = np.random.default_rng(23)
    for _ in range(25):
        prior = random_prior(rng, ne=3, na=2, nb=2)
        for score in (quad, logsc):
            assert total_value(prior, score) >= -1e-9


def test_scheme_validation(xor_prior):
    full_reveal_scheme(xor_prior).validate(xor_prior)
    no_reveal_scheme(xor_prior).validate(xor_prior)
    for pi in ([[0.4, 0.5]], [[np.nan, 0.5], [0.5, 0.0]]):
        bad = SignalingScheme(tuple(f"s{i}" for i in range(len(pi))),
                              np.array(pi))
        with pytest.raises(ValidationError):
            bad.validate(xor_prior)
        assert bad.violations(xor_prior)


def test_scheme_prune(xor_prior):
    scheme = SignalingScheme(("s0", "dead"),
                             np.vstack((xor_prior.marginal_alice(),
                                        np.zeros(2))))
    pruned = scheme.prune_zero_signals()
    assert pruned.signal_labels == ("s0",)
    assert pruned.validate(xor_prior)


def test_solve_report_sign_invariant(xor_prior, quad, xor_no_reveal):
    with pytest.raises(ValidationError):
        SolveReport(xor_no_reveal, 0.25, 0.5, 0.5,
                    Classification.UNCLASSIFIED, Method.EXACT)


def test_spaces_violations():
    assert OutcomeSpaces(("0",), ("a",), ("b",)).violations()
    assert OutcomeSpaces(("0", "0"), ("a",), ("b",)).violations()
    assert not OutcomeSpaces(("0", "1"), ("a",), ("b",)).violations()
