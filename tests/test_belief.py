import numpy as np
import pytest

from abasolve.belief import (PosteriorDistribution, SupportKind,
                             alice_total_utility, bob_utility_from_vEB,
                             bob_utility_from_wA, bob_utility_of_scheme,
                             induced_posterior_over_A,
                             induced_posterior_over_EB, posterior_e_given_s,
                             posterior_e_given_sb, prob_b_given_s,
                             sender_objective)
from abasolve.core import (JointPrior, SignalingScheme, full_reveal_scheme,
                           marginals_and_conditionals, no_reveal_scheme,
                           total_value)
from abasolve.errors import (PreconditionViolated, ValidationError,
                             ZeroProbabilityPair, ZeroProbabilitySignal)
from abasolve.scoring import eval_G, log_score, quadratic_score, \
    spherical_score

from helpers import (SCORES, degenerate_cases, induced_posterior_over_EB_ref,
                     posterior_e_given_s_ref, posterior_e_given_sb_ref,
                     prob_b_given_s_ref, random_piecewise, random_prior,
                     random_scheme, scheme_terms_loop,
                     sender_objective_decision_form)


def test_posterior_e_given_s_examples(xor_prior, copy_prior, xor_full_reveal):
    post = posterior_e_given_s(xor_prior, xor_full_reveal, "a0")
    assert post.weights == pytest.approx([0.5, 0.5])
    post = posterior_e_given_s(xor_prior, no_reveal_scheme(xor_prior), "s0")
    assert post.weights == pytest.approx([0.5, 0.5])  # mu(e)
    post = posterior_e_given_s(copy_prior, full_reveal_scheme(copy_prior), "a0")
    assert post.weights == pytest.approx([1.0, 0.0])


def test_posterior_zero_probability_signal(xor_prior):
    scheme = SignalingScheme(("s0", "dead"),
                             np.vstack((xor_prior.marginal_alice(),
                                        np.zeros(2))))
    with pytest.raises(ZeroProbabilitySignal):
        posterior_e_given_s(xor_prior, scheme, "dead")
    with pytest.raises(ZeroProbabilitySignal):
        prob_b_given_s(xor_prior, scheme, "dead")


@pytest.mark.parametrize("call", (
    lambda prior, scheme: posterior_e_given_s(prior, scheme, "x"),
    lambda prior, scheme: posterior_e_given_sb(prior, scheme, "x", 0),
    lambda prior, scheme: prob_b_given_s(prior, scheme, "x"),
    lambda prior, scheme: induced_posterior_over_A(scheme, "x"),
    lambda prior, scheme: induced_posterior_over_EB(prior, scheme, "x"),
), ids=("e_given_s", "e_given_sb", "b_given_s", "over_A", "over_EB"))
def test_unknown_signal_label_is_a_validation_error(xor_prior,
                                                    xor_full_reveal, call):
    with pytest.raises(ValidationError, match="unknown signal label 'x'"):
        call(xor_prior, xor_full_reveal)


def test_posterior_e_given_sb_examples(xor_prior, independent_prior,
                                       xor_full_reveal):
    post = posterior_e_given_sb(xor_prior, xor_full_reveal, "a0", 0)
    assert post.weights == pytest.approx([1.0, 0.0])  # e = a xor b
    post = posterior_e_given_sb(independent_prior,
                                no_reveal_scheme(independent_prior), "s0", 1)
    assert post.weights == pytest.approx([0.5, 0.5])
    post = posterior_e_given_sb(xor_prior, no_reveal_scheme(xor_prior), "s0", 1)
    assert post.weights == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("b", [-1, 2])
def test_posterior_e_given_sb_refuses_out_of_range_bob_outcome(
        xor_prior, xor_full_reveal, b):
    # -1 would index the last outcome, 2 = |B| past the end
    with pytest.raises(ValidationError,
                       match=rf"bob outcome b={b} is out of range \[0, 2\)"):
        posterior_e_given_sb(xor_prior, xor_full_reveal, "a0", b)


def test_posterior_zero_probability_pair():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 1, 0] = 0.5  # bob outcome 1 never happens
    prior = JointPrior(p)
    with pytest.raises(ZeroProbabilityPair):
        posterior_e_given_sb(prior, no_reveal_scheme(prior), "s0", 1)


def test_marginalization_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        prior = random_prior(rng, ne=3, na=2, nb=3)
        scheme = random_scheme(rng, prior, n_signals=3)
        for s in scheme.signal_labels:
            p_s = posterior_e_given_s(prior, scheme, s).weights
            pb = prob_b_given_s(prior, scheme, s)
            mix = np.zeros(3)
            for b in range(3):
                if pb[b] > 0:
                    mix += pb[b] * posterior_e_given_sb(prior, scheme, s,
                                                        b).weights
            assert mix == pytest.approx(p_s, abs=1e-10)


def test_prob_b_given_s_examples(independent_prior, copy_prior, xor_prior):
    pb = prob_b_given_s(independent_prior, no_reveal_scheme(independent_prior),
                        "s0")
    assert pb == pytest.approx([0.5, 0.5])
    pb = prob_b_given_s(copy_prior, full_reveal_scheme(copy_prior), "a0")
    assert pb == pytest.approx([1.0, 0.0])  # b = a
    pb = prob_b_given_s(xor_prior, full_reveal_scheme(xor_prior), "a0")
    assert pb == pytest.approx([0.5, 0.5])


def test_bob_utility_of_scheme_examples(xor_prior, copy_prior, quad,
                                        xor_full_reveal, xor_no_reveal):
    assert bob_utility_of_scheme(xor_prior, quad, xor_no_reveal) == \
        pytest.approx(0.0, abs=1e-12)
    assert bob_utility_of_scheme(xor_prior, quad, xor_full_reveal) == \
        pytest.approx(0.5, abs=1e-12)
    assert bob_utility_of_scheme(copy_prior, quad,
                                 full_reveal_scheme(copy_prior)) == \
        pytest.approx(0.0, abs=1e-12)


def test_bob_utility_from_wA_examples(xor_prior, copy_prior, quad):
    # uninformative posterior reproduces the scheme value
    assert bob_utility_from_wA(xor_prior, quad, np.array([0.5, 0.5])) == \
        pytest.approx(0.0, abs=1e-10)
    assert bob_utility_from_wA(copy_prior, quad, np.array([1.0, 0.0])) == \
        pytest.approx(0.0, abs=1e-10)
    assert bob_utility_from_wA(xor_prior, quad, np.array([1.0, 0.0])) == \
        pytest.approx(0.5, abs=1e-10)


def test_bob_utility_from_wA_rejects_unsupported_mass(quad):
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 0, 1] = 0.5
    prior = JointPrior(p)  # mu(a1) = 0
    with pytest.raises(PreconditionViolated):
        bob_utility_from_wA(prior, quad, np.array([0.5, 0.5]))


@pytest.mark.parametrize("w, ok", (
    ([1.5, -0.5], False), ([0.3, 0.3], False),
    ([0.5 + 2e-9, 0.5], False), ([1.0 + 1e-11, -1e-11], False),
    ([0.5 + 5e-10, 0.5], True), ([1.0 + 1e-13, -1e-13], True),
))
def test_bob_utility_from_wA_requires_a_distribution(xor_prior, quad, w, ok):
    # both u_B parameterizations check w with PosteriorDistribution's
    # tolerances: entries >= -1e-12, sum within 1e-9 of 1
    if ok:
        assert bob_utility_from_wA(xor_prior, quad, np.array(w)) == \
            pytest.approx(bob_utility_from_wA(xor_prior, quad,
                                              np.round(w, 6)), abs=1e-8)
        bob_utility_from_vEB(quad, np.reshape(w, (2, 1)))
    else:
        with pytest.raises(ValidationError, match="must be a distribution"):
            bob_utility_from_wA(xor_prior, quad, np.array(w))
        with pytest.raises(ValidationError, match="must be a distribution"):
            bob_utility_from_vEB(quad, np.reshape(w, (2, 1)))


def test_bob_utility_from_vEB_examples(quad):
    uniform = np.full((2, 2), 0.25)
    assert bob_utility_from_vEB(quad, uniform) == pytest.approx(0.0, abs=1e-12)
    corr = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert bob_utility_from_vEB(quad, corr) == pytest.approx(0.5, abs=1e-12)
    point = np.zeros((2, 2))
    point[1, 0] = 1.0
    assert bob_utility_from_vEB(quad, point) == pytest.approx(0.0, abs=1e-12)


def test_parameterization_consistency():
    rng = np.random.default_rng(19)
    for _ in range(15):
        prior = random_prior(rng, ne=2, na=3, nb=2)
        scheme = random_scheme(rng, prior, n_signals=3)
        score = random_piecewise(rng, ne=2, k=3)
        total = 0.0
        total_v = 0.0
        for s in scheme.signal_labels:
            mass = float(scheme.pi[scheme.signal_index(s)].sum())
            if mass <= 0:
                continue
            w = induced_posterior_over_A(scheme, s)
            v = induced_posterior_over_EB(prior, scheme, s)
            total += mass * bob_utility_from_wA(prior, score, w)
            total_v += mass * bob_utility_from_vEB(score, v)
        direct = bob_utility_of_scheme(prior, score, scheme)
        assert total == pytest.approx(direct, abs=1e-10)
        assert total_v == pytest.approx(direct, abs=1e-10)


def test_sender_objective_examples(xor_prior, independent_prior, quad,
                                   xor_full_reveal, xor_no_reveal):
    assert sender_objective(xor_prior, quad, xor_no_reveal) == \
        pytest.approx(0.0, abs=1e-12)
    assert sender_objective(xor_prior, quad, xor_full_reveal) == \
        pytest.approx(-0.5, abs=1e-12)
    rng = np.random.default_rng(2)
    scheme = random_scheme(rng, independent_prior, 2)
    assert sender_objective(independent_prior, quad, scheme) == \
        pytest.approx(0.0, abs=1e-12)


def test_sender_objective_negates_bob(xor_prior, quad, xor_full_reveal):
    assert sender_objective(xor_prior, quad, xor_full_reveal) == \
        -bob_utility_of_scheme(xor_prior, quad, xor_full_reveal)


def test_sender_objective_decision_form_agreement():
    rng = np.random.default_rng(29)
    for _ in range(10):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        scheme = random_scheme(rng, prior, n_signals=2)
        score = random_piecewise(rng, ne=2, k=4)
        assert sender_objective(prior, score, scheme) == \
            pytest.approx(sender_objective_decision_form(prior, score, scheme),
                          abs=1e-9)


def test_alice_total_utility_examples(xor_prior, independent_prior, quad,
                                      xor_full_reveal, xor_no_reveal):
    assert alice_total_utility(xor_prior, quad, xor_no_reveal) == \
        pytest.approx(0.5, abs=1e-9)
    assert alice_total_utility(xor_prior, quad, xor_full_reveal) == \
        pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(4)
    scheme = random_scheme(rng, independent_prior, 2)
    assert alice_total_utility(independent_prior, quad, scheme) == \
        pytest.approx(0.0, abs=1e-9)


def test_constant_sum_and_jensen():
    rng = np.random.default_rng(31)
    from abasolve.scoring import log_score, quadratic_score
    for i in range(25):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        scheme = random_scheme(rng, prior, n_signals=int(rng.integers(1, 4)))
        score = quadratic_score() if i % 2 == 0 else log_score()
        bob = bob_utility_of_scheme(prior, score, scheme)
        alice = alice_total_utility(prior, score, scheme)
        assert bob >= -1e-9
        assert alice + bob == pytest.approx(total_value(prior, score),
                                            abs=1e-9)


def test_garbling_full_reveal_maximizes_first_term(quad):
    rng = np.random.default_rng(37)
    for _ in range(10):
        prior = random_prior(rng, ne=2, na=2, nb=2)

        def first_term(scheme):
            total = 0.0
            for s in scheme.signal_labels:
                mass = float(scheme.pi[scheme.signal_index(s)].sum())
                if mass > 0:
                    total += mass * eval_G(
                        quad, posterior_e_given_s(prior, scheme, s))
            return total

        best = first_term(full_reveal_scheme(prior))
        for _ in range(10):
            assert first_term(random_scheme(rng, prior, 2)) <= best + 1e-9


def test_zero_probability_signals_dropped_from_expectations(xor_prior, quad):
    # a never-sent signal must not affect any expectation
    base = no_reveal_scheme(xor_prior)
    padded = SignalingScheme(("s0", "ghost"),
                             np.vstack((base.pi, np.zeros(2))))
    assert bob_utility_of_scheme(xor_prior, quad, padded) == \
        pytest.approx(bob_utility_of_scheme(xor_prior, quad, base), abs=1e-15)
    assert alice_total_utility(xor_prior, quad, padded) == \
        pytest.approx(alice_total_utility(xor_prior, quad, base), abs=1e-15)


def test_posterior_distribution_validation():
    with pytest.raises(ValidationError):
        PosteriorDistribution(SupportKind.OVER_E, np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        PosteriorDistribution(SupportKind.OVER_E, np.array([[0.5, 0.5]]))
    given = np.array([0.3, 0.7])
    pd = PosteriorDistribution(SupportKind.OVER_A, given)
    assert pd.weights.sum() == 1.0
    # the weights are a read-only copy; the caller's array stays writable
    assert not pd.weights.flags.writeable and given.flags.writeable


@pytest.mark.parametrize("kind", list(SCORES))
def test_scheme_values_match_loop_reference(kind):
    """Every batched u_B site against the per-signal loop reference."""
    rng = np.random.default_rng(211)
    for ne, na, nb in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 1)):
        score = SCORES[kind](rng, ne)
        for prior, scheme in degenerate_cases(rng, ne, na, nb):
            e_s, e_sb, e_ab = scheme_terms_loop(prior, score, scheme)
            g0 = eval_G(score, prior.p.sum(axis=(1, 2)))
            bob = e_sb - e_s
            assert bob_utility_of_scheme(prior, score, scheme) == \
                pytest.approx(bob, abs=1e-12)
            assert sender_objective(prior, score, scheme) == \
                pytest.approx(-bob, abs=1e-12)
            assert alice_total_utility(prior, score, scheme) == \
                pytest.approx((e_s - g0) + (e_ab - e_sb), abs=1e-12)
            assert total_value(prior, score) == \
                pytest.approx(e_ab - g0, abs=1e-12)
            by_w = by_v = 0.0
            for label, mass in zip(scheme.signal_labels,
                                   scheme.signal_masses()):
                if mass <= 0.0:
                    continue
                by_w += mass * bob_utility_from_wA(
                    prior, score, induced_posterior_over_A(scheme, label))
                by_v += mass * bob_utility_from_vEB(
                    score, induced_posterior_over_EB(prior, scheme, label))
            assert by_w == pytest.approx(bob, abs=1e-12)
            assert by_v == pytest.approx(bob, abs=1e-12)



def _same(got, want):
    """Both calls raise the same typed error, or agree to 1e-12."""
    try:
        expect = want()
    except (ZeroProbabilitySignal, ZeroProbabilityPair) as exc:
        with pytest.raises(type(exc)):
            got()
        return
    assert np.asarray(got()) == pytest.approx(expect, abs=1e-12)


def test_per_label_posteriors_match_frozen_formulas():
    """The per-label functions index the batched posterior terms; they
    agree with the per-signal formulas, typed errors included."""
    rng = np.random.default_rng(223)
    for ne, na, nb in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 1)):
        for prior, scheme in degenerate_cases(rng, ne, na, nb):
            t = marginals_and_conditionals(prior)
            for s in scheme.signal_labels:
                _same(lambda: posterior_e_given_s(prior, scheme, s).weights,
                      lambda: posterior_e_given_s_ref(prior, scheme, s, t))
                _same(lambda: prob_b_given_s(prior, scheme, s),
                      lambda: prob_b_given_s_ref(prior, scheme, s, t))
                _same(lambda: induced_posterior_over_EB(prior, scheme, s),
                      lambda: induced_posterior_over_EB_ref(prior, scheme, s,
                                                            t))
                for b in range(nb):
                    _same(lambda: posterior_e_given_sb(prior, scheme, s,
                                                       b).weights,
                          lambda: posterior_e_given_sb_ref(prior, scheme, s,
                                                           b, t))


def test_scheme_posteriors_are_formed_once_per_prior(monkeypatch):
    """A scheme's Pr(s), Pr(s, e), Pr(s, b) and Pr(s, b, e) are formed once
    for a prior object, bit for bit as ``_posterior_terms`` forms them, and
    read-only; an equal but distinct prior forms them again.  The verify
    chain's u_B, cross-belief payoffs and the exact solver's obedience
    certificate all read them."""
    from abasolve import belief, exact, oracle

    rng = np.random.default_rng(401)
    prior = random_prior(rng, ne=2, na=3, nb=2)
    score = quadratic_score()
    scheme, other = random_scheme(rng, prior, 4), random_scheme(rng, prior, 3)
    want = belief._posterior_terms(scheme.pi,
                                   marginals_and_conditionals(prior))
    calls = []
    real = belief._posterior_terms

    def counted(pi, table):
        calls.append(pi)
        return real(pi, table)

    monkeypatch.setattr(belief, "_posterior_terms", counted)
    terms = belief._scheme_posteriors(prior, scheme)
    assert [t.tobytes() for t in terms] == [t.tobytes() for t in want]
    assert all(not t.flags.writeable for t in terms)
    assert belief._scheme_posteriors(prior, scheme) is terms
    pair = sorted((scheme, other),
                  key=lambda x: belief.sender_objective(prior, score, x))
    oracle.deviation_check(prior, score, *pair)
    belief.alice_total_utility(prior, score, scheme)
    own = [pi for pi in calls if pi is scheme.pi or pi is other.pi]
    assert len(own) == 2                  # once per scheme
    twin = JointPrior(prior.p.copy())
    assert belief._scheme_posteriors(twin, scheme) is not terms
    assert len(calls) == len(own) + 3 + 1  # _bob_reports' 3, the twin

    labels = tuple(f"{i}-0-0" for i in range(scheme.n_signals))
    labelled = SignalingScheme(labels, scheme.pi)
    pieces = random_piecewise(rng, ne=2, k=scheme.n_signals)
    calls.clear()
    exact.certify_obedience(prior, pieces, labelled)
    bob_utility_of_scheme(prior, pieces, labelled)
    assert len(calls) == 1
