import numpy as np
import pytest

from abasolve import _kernels, oracle
from abasolve.belief import (bob_utility_of_scheme, posterior_e_given_s,
                             sender_objective)
from abasolve.core import (JointPrior, SignalingScheme, full_reveal_scheme,
                           marginals_and_conditionals, no_reveal_scheme,
                           total_value)
from abasolve.errors import PreconditionViolated, SizeCapExceeded, \
    ValidationError
from abasolve.oracle import (bob_report, cross_belief_utilities,
                             deviation_check, oracle_optimal)
from abasolve.scoring import eval_G, piecewise_score, quadratic_score

from helpers import (SCORES, bob_report_ref, cross_belief_loop,
                     degenerate_cases, random_prior, random_scheme)


def independent_uniform_scheme(prior):
    """Signal drawn uniformly, independent of A."""
    return SignalingScheme(("a0", "a1"),
                           np.vstack([prior.marginal_alice() / 2] * 2))


def test_oracle_xor_uninformative(xor_prior, quad):
    report = oracle_optimal(xor_prior, quad, grid_step=0.02, max_signals=2)
    assert report.sender_objective == pytest.approx(0.0, abs=1e-12)
    # the optimum found carries no information
    for s in report.scheme.signal_labels:
        post = posterior_e_given_s(xor_prior, report.scheme, s)
        assert post.weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_oracle_copy_full_reveal(copy_prior, quad):
    report = oracle_optimal(copy_prior, quad, grid_step=0.02, max_signals=2)
    assert report.sender_objective == pytest.approx(0.0, abs=1e-12)
    # every surviving signal pins E exactly
    for s in report.scheme.signal_labels:
        post = posterior_e_given_s(copy_prior, report.scheme, s)
        assert eval_G(quad, post) == pytest.approx(1.0, abs=1e-9)


def test_oracle_independent(independent_prior, quad):
    report = oracle_optimal(independent_prior, quad, grid_step=0.1,
                            max_signals=2)
    assert report.sender_objective == pytest.approx(0.0, abs=1e-12)
    assert report.diagnostics["candidates"] == 121


def test_oracle_scheme_is_valid_and_consistent(quad):
    rng = np.random.default_rng(61)
    prior = random_prior(rng, ne=2, na=2, nb=2)
    report = oracle_optimal(prior, quad, grid_step=0.05, max_signals=2)
    assert report.scheme.violations(prior) == []
    assert report.sender_objective == \
        pytest.approx(report.diagnostics["scan_objective"], abs=1e-9)
    assert abs(report.sender_objective + report.bob_utility) <= 1e-12


def test_oracle_caps(monkeypatch):
    rng = np.random.default_rng(63)
    prior = random_prior(rng, ne=2, na=2, nb=2)
    with pytest.raises(SizeCapExceeded):
        oracle_optimal(prior, quadratic_score(), grid_step=1 / 200)

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the cap check")

    with monkeypatch.context() as m:
        m.setattr(oracle, "DEFAULT_CANDIDATE_CAP", 100)
        m.setattr(_kernels, "oracle_scan", no_scan)
        with pytest.raises(SizeCapExceeded) as refused:
            oracle_optimal(prior, quadratic_score(), grid_step=0.02,
                           max_signals=2)
    # 51 splits of each mu(a) into two signals, |A| = 2
    assert refused.value.required == 51 ** 2
    assert str(refused.value) == "oracle would scan 2601 candidates, cap is 100"
    with pytest.raises(ValidationError):
        oracle_optimal(prior, quadratic_score(), grid_step=0.03)
    prior4 = random_prior(rng, ne=2, na=4, nb=2)
    with pytest.raises(SizeCapExceeded):
        oracle_optimal(prior4, quadratic_score(), grid_step=0.02)


def test_bob_report_on_path(xor_prior, xor_full_reveal):
    post, off = bob_report(xor_prior, xor_full_reveal, "a0", 0)
    assert not off
    assert post.weights == pytest.approx([1.0, 0.0])  # e = s xor b
    post, off = bob_report(xor_prior, no_reveal_scheme(xor_prior), "s0", 1)
    assert not off
    assert post.weights == pytest.approx([0.5, 0.5])  # Pr(e|b) from prior


@pytest.mark.parametrize("b", [-1, 2])
def test_bob_report_refuses_out_of_range_bob_outcome(xor_prior,
                                                     xor_full_reveal, b):
    # -1 would answer for the last outcome, 2 = |B| is past the end
    with pytest.raises(ValidationError,
                       match=rf"bob outcome b={b} is out of range \[0, 2\)"):
        bob_report(xor_prior, xor_full_reveal, "a0", b)


def test_bob_report_off_path(copy_prior):
    believed = full_reveal_scheme(copy_prior)
    post, off = bob_report(copy_prior, believed, "unseen", 1)
    assert off
    assert post.weights == pytest.approx([0.0, 1.0])  # prior fallback Pr(e|b)


def test_cross_belief_truthful_matches_scheme_value(xor_prior, quad,
                                                    xor_full_reveal):
    payoff = cross_belief_utilities(xor_prior, quad, xor_full_reveal,
                                    xor_full_reveal)
    assert payoff.bob_utility == pytest.approx(0.5, abs=1e-10)
    assert payoff.bob_utility == pytest.approx(
        bob_utility_of_scheme(xor_prior, quad, xor_full_reveal), abs=1e-10)
    assert payoff.off_path_mass == 0.0
    assert payoff.alice_utility + payoff.bob_utility == \
        pytest.approx(total_value(xor_prior, quad), abs=1e-9)


def test_cross_belief_mismatch_example(xor_prior, quad, xor_full_reveal):
    noise = independent_uniform_scheme(xor_prior)
    payoff = cross_belief_utilities(xor_prior, quad, xor_full_reveal, noise)
    # Bob predicts e = s xor b, right half the time: E R(report) = 0,
    # E R(p_S) = 0.5
    assert payoff.bob_utility == pytest.approx(-0.5, abs=1e-10)
    assert payoff.alice_utility == pytest.approx(1.0, abs=1e-10)
    assert payoff.off_path_mass == 0.0
    assert payoff.divergence_mass == pytest.approx(1.0)


def test_cross_belief_uninformative_both(xor_prior, quad, xor_no_reveal):
    payoff = cross_belief_utilities(xor_prior, quad, xor_no_reveal,
                                    xor_no_reveal)
    assert payoff.bob_utility == pytest.approx(0.0, abs=1e-12)


def test_deviation_check_xor_example(xor_prior, quad, xor_full_reveal):
    noise = independent_uniform_scheme(xor_prior)
    report = deviation_check(xor_prior, quad, xor_full_reveal, noise)
    assert report.passed
    assert report.details["u_b_cross"] == pytest.approx(-0.5, abs=1e-9)
    assert report.details["u_b_star"] == pytest.approx(0.0, abs=1e-9)
    assert report.details["u_b_own"] == pytest.approx(0.5, abs=1e-9)
    assert report.details["strict_required"]


def test_deviation_check_same_scheme_degenerates(xor_prior, quad,
                                                 xor_full_reveal):
    report = deviation_check(xor_prior, quad, xor_full_reveal, xor_full_reveal)
    assert report.passed
    assert report.details["u_b_cross"] == \
        pytest.approx(report.details["u_b_star"], abs=1e-12)
    assert report.details["divergence_mass"] == 0.0


def test_deviation_check_copy_nonstrict(copy_prior, quad):
    # Bob already knows E from his own signal: off-path fallback reports
    # remain optimal and the first inequality holds with equality
    report = deviation_check(copy_prior, quad, no_reveal_scheme(copy_prior),
                             full_reveal_scheme(copy_prior))
    assert report.passed
    assert report.details["u_b_cross"] == pytest.approx(0.0, abs=1e-9)
    assert report.details["u_b_star"] == pytest.approx(0.0, abs=1e-9)
    # under no reveal Bob still earns the full step from G(1/2,1/2) to 1
    assert report.details["u_b_own"] == pytest.approx(0.5, abs=1e-9)
    assert not report.details["strict_required"]


def test_deviation_check_piecewise_weak_chain(xor_prior, xor_full_reveal):
    # G(w) = max(w0, w1) is only weakly proper.  Bob, believing full
    # reveal, reports a point mass where the truth is uniform; that report
    # lies in a linear piece the truth shares, so it costs him nothing and
    # the first inequality holds with equality although reports diverge.
    pw = piecewise_score([((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0)])
    noise = independent_uniform_scheme(xor_prior)
    report = deviation_check(xor_prior, pw, xor_full_reveal, noise)
    assert report.passed, report.details
    assert report.details["divergence_mass"] == pytest.approx(1.0)
    assert report.details["u_b_cross"] == pytest.approx(0.0, abs=1e-12)
    assert report.details["u_b_star"] == pytest.approx(0.0, abs=1e-12)
    assert report.details["u_b_own"] == pytest.approx(0.5, abs=1e-12)
    assert not report.details["strict_required"]


def test_deviation_check_precondition(xor_prior, quad, xor_full_reveal,
                                      xor_no_reveal):
    with pytest.raises(PreconditionViolated):
        deviation_check(xor_prior, quad, xor_no_reveal, xor_full_reveal)


def test_deviation_chain_random_pairs(quad):
    rng = np.random.default_rng(67)
    for _ in range(20):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        s1 = random_scheme(rng, prior, int(rng.integers(1, 4)))
        s2 = random_scheme(rng, prior, int(rng.integers(1, 4)))
        if sender_objective(prior, quad, s1) > sender_objective(prior, quad, s2):
            s1, s2 = s2, s1
        report = deviation_check(prior, quad, s1, s2)
        assert report.passed, report.details


def test_best_response_dominance(quad):
    rng = np.random.default_rng(71)
    for _ in range(20):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        actual = random_scheme(rng, prior, 2)
        believed = random_scheme(rng, prior, 2)
        cross = cross_belief_utilities(prior, quad, believed, actual)
        own = cross_belief_utilities(prior, quad, actual, actual)
        assert cross.bob_utility <= own.bob_utility + 1e-9
        assert own.bob_utility == pytest.approx(
            bob_utility_of_scheme(prior, quad, actual), abs=1e-10)
        assert cross.alice_utility + cross.bob_utility == \
            pytest.approx(total_value(prior, quad), abs=1e-9)


def _believed_variants(rng, prior, actual):
    """Schemes Bob may believe: a random one on the same labels, one that
    lacks the first actual label, and one sending each alice outcome to a
    single signal (zero-mass pairs where mu(a, b) = 0, never-sent signals
    when there are more signals than outcomes)."""
    labels = actual.signal_labels
    n = len(labels)
    pi = random_scheme(rng, prior, n).pi
    yield SignalingScheme(labels, pi)
    yield SignalingScheme(("unsent",) + labels[1:], pi)
    onehot = np.arange(n)[:, None] == np.arange(prior.n_alice)[None, :] % n
    yield SignalingScheme(labels, onehot * prior.marginal_alice()[None, :])


def _cross_belief_cases(rng):
    for ne, na, nb in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 1)):
        for prior, actual in degenerate_cases(rng, ne, na, nb):
            for believed in _believed_variants(rng, prior, actual):
                yield prior, believed, actual
    # mu(a0, b1) = 0: Bob's believed s0 carries only a0, so (s0, b1) is off
    # path although the actual s0 sends it
    p = random_prior(rng).p.copy()
    p[:, 0, 1] = 0.0
    prior = JointPrior(p / p.sum())
    mu_a = prior.marginal_alice()
    actual = random_scheme(rng, prior, 2)
    yield prior, SignalingScheme(actual.signal_labels,
                                 [[mu_a[0], 0.0], [0.0, mu_a[1]]]), actual
    # believed full reveal of XOR reports point masses; the truth is uniform
    xor = JointPrior(np.array([[[0.25, 0.0], [0.0, 0.25]],
                               [[0.0, 0.25], [0.25, 0.0]]]))
    yield xor, full_reveal_scheme(xor), SignalingScheme(
        ("a0", "a1"), np.full((2, 2), 0.25))


def _agree(got, want):
    assert got == want or abs(got - want) <= 1e-12, (got, want)


@pytest.mark.parametrize("kind", list(SCORES))
def test_cross_belief_matches_loop_reference(kind):
    """Batched reports and report scores against the per-(s, b) loop."""
    rng = np.random.default_rng(233)
    seen_off = seen_inf = False
    for prior, believed, actual in _cross_belief_cases(rng):
        score = SCORES[kind](rng, prior.n_events)
        payoff = cross_belief_utilities(prior, score, believed, actual)
        bob, alice, off_mass, diverged = cross_belief_loop(prior, score,
                                                           believed, actual)
        _agree(payoff.bob_utility, bob)
        _agree(payoff.alice_utility, alice)
        _agree(payoff.off_path_mass, off_mass)
        _agree(payoff.divergence_mass, diverged)
        seen_off |= off_mass > 0.0
        seen_inf |= bob == -np.inf
        t = marginals_and_conditionals(prior)
        for s in actual.signal_labels + ("unseen",):
            for b in range(prior.n_bob):
                try:
                    want, want_off = bob_report_ref(prior, believed, s, b, t)
                except ValidationError:
                    with pytest.raises(ValidationError):
                        bob_report(prior, believed, s, b)
                    continue
                report, off = bob_report(prior, believed, s, b)
                assert off == want_off
                assert report.weights == pytest.approx(want, abs=1e-12)
    assert seen_off
    assert seen_inf == (kind == "log")
