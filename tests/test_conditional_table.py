"""Values kept on priors and schemes: one ConditionalTable per prior,
computed once, shared, read-only; V per (prior, score); a scheme's
validation per prior and its u_B terms per (prior, score)."""

import collections
import dataclasses
import itertools
import struct

import numpy as np
import pytest

from abasolve import _kernels, belief, core, exact, fptas, oracle
from abasolve.core import JointPrior, SignalingScheme, \
    marginals_and_conditionals
from abasolve.errors import NonFiniteScore, ValidationError
from abasolve.scoring import HolderParams, log_score, piecewise_score, \
    quadratic_score, spherical_score

from helpers import conditional_table_frozen, random_piecewise, \
    random_prior, random_scheme


@pytest.fixture
def tables_built(monkeypatch):
    """Counts the tables built since the last reset."""
    made = []
    real = core.ConditionalTable.__post_init__

    def record(self):
        real(self)
        made.append(self)

    monkeypatch.setattr(core.ConditionalTable, "__post_init__", record)

    def count(reset=False):
        out = len(made)
        if reset:
            made.clear()
        return out
    return count


def test_table_is_computed_once_per_prior():
    prior = random_prior(np.random.default_rng(3), ne=2, na=3, nb=2)
    table = marginals_and_conditionals(prior)
    assert marginals_and_conditionals(prior) is table
    # stored on the instance, not shared between equal priors
    twin = JointPrior(prior.p.copy())
    assert marginals_and_conditionals(twin) is not table
    assert "table" not in repr(prior)


def test_table_arrays_are_read_only():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 0, 1] = 0.5  # alice outcome 1 never happens: undefined rows
    table = marginals_and_conditionals(JointPrior(p))
    for f in dataclasses.fields(table):
        arr = getattr(table, f.name)
        first = (0,) * arr.ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[first] = arr[first]
    assert (table.e_given_a[1] == 0.0).all() and not table.defined_a[1]


def _degenerate_priors(rng):
    """Random priors with zero-mass alice outcomes, zero (a, b) pairs,
    -0.0 entries and a denormal entry, each scaled to sum to about 1."""
    for ne, na, nb in ((2, 1, 1), (2, 2, 2), (3, 3, 2), (2, 3, 3), (4, 2, 1)):
        p = rng.gamma(1.0, size=(ne, na, nb))
        tensors = [p]
        for a, b, zero in itertools.product(range(na), range(nb), (0.0, -0.0)):
            q = p.copy()
            q[:, a, b] = zero                # an undefined pair
            tensors.append(q.copy())
            q[:, a, :] = zero                # an undefined alice outcome
            tensors.append(q)
        q = p.copy()
        q[rng.random(q.shape) < 0.4] = -0.0  # scattered -0.0 entries
        tensors.append(q)
        q = p.copy()
        q[0, 0, 0] = 1e-320                  # a denormal-mass outcome
        tensors.append(q)
        yield from (q / q.sum() for q in tensors if q.sum() > 0.0)


def test_table_matches_frozen_zero_filled_table_bit_for_bit():
    for n, p in enumerate(_degenerate_priors(np.random.default_rng(29))):
        prior = JointPrior(p)
        want = conditional_table_frozen(prior)
        table = marginals_and_conditionals(prior)
        for f in dataclasses.fields(table):
            got = getattr(table, f.name)
            assert got.dtype == want[f.name].dtype, (n, f.name)
            assert np.array_equal(got, want[f.name]), (n, f.name)
            if got.dtype.kind == "f":
                assert np.array_equal(np.signbit(got),
                                      np.signbit(want[f.name])), (n, f.name)


def test_verify_chain_builds_one_table(tables_built):
    rng = np.random.default_rng(5)
    prior = random_prior(rng, ne=2, na=3, nb=2)
    score = quadratic_score()
    pi, pi_star = random_scheme(rng, prior, 2), random_scheme(rng, prior, 3)
    if belief.sender_objective(prior, score, pi_star) < \
            belief.sender_objective(prior, score, pi):
        pi, pi_star = pi_star, pi
    prior = JointPrior(prior.p)  # the ordering above built the first's table
    tables_built(reset=True)

    belief.sender_objective(prior, score, pi_star)
    belief.sender_objective(prior, score, pi)
    oracle.deviation_check(prior, score, pi, pi_star)
    oracle.cross_belief_utilities(prior, score, pi, pi_star)
    belief.alice_total_utility(prior, score, pi_star)
    belief.bob_utility_of_scheme(prior, score, pi_star)
    assert tables_built() == 1


@pytest.mark.parametrize("solve", [
    lambda prior: exact.classify_substitutes(prior, quadratic_score(),
                                             tangent_k=3),
    lambda prior: fptas.fptas_a_const(prior, quadratic_score(), 0.5,
                                      grid_k=4),
    lambda prior: fptas.fptas_eb_const(prior, quadratic_score(), 0.5,
                                       grid_k=2),
    lambda prior: oracle.oracle_optimal(prior, quadratic_score(), 0.25),
], ids=["classify", "fptas-a", "fptas-eb", "oracle"])
@pytest.mark.parametrize("na", [2, 3])
def test_solver_builds_one_table(tables_built, solve, na):
    prior = random_prior(np.random.default_rng(na), ne=2, na=na, nb=2)
    tables_built(reset=True)
    solve(prior)
    assert tables_built() == 1


def test_piecewise_classify_builds_one_table(tables_built):
    rng = np.random.default_rng(11)
    for na in (2, 3):
        prior = random_prior(rng, ne=2, na=na, nb=2)
        score = random_piecewise(rng, ne=2, k=3)
        tables_built(reset=True)
        exact.classify_substitutes(prior, score)
        assert tables_built() == 1


# -- values stored on priors and schemes ------------------------------------

@pytest.fixture
def evaluations(monkeypatch):
    """Counts, per prior table, the ``weighted_g`` evaluations of V's
    (a, b) terms (key "V") and of a scheme's E_{s,b} term (key: the
    scheme's signal count), and the ``violations`` checks per scheme."""
    counts = collections.Counter()
    checked = []
    tables = []
    real_g = _kernels.weighted_g
    real_check = SignalingScheme.violations

    def weighted_g(numer, mass, score):
        if any(mass is t.mu_ab for t in tables):
            counts["V"] += 1
        elif numer.ndim == 3:
            counts[numer.shape[0]] += 1
        return real_g(numer, mass, score)

    def violations(self, prior):
        checked.append(self)
        return real_check(self, prior)

    monkeypatch.setattr(_kernels, "weighted_g", weighted_g)
    monkeypatch.setattr(SignalingScheme, "violations", violations)

    def checks(scheme):
        return sum(x is scheme for x in checked)

    def watch(prior):
        tables.append(marginals_and_conditionals(prior))
        return prior
    return counts, checks, watch


def _fresh(prior, *schemes):
    """Equal but distinct copies, with nothing stored on them yet."""
    return (JointPrior(prior.p.copy()),) + tuple(
        SignalingScheme(s.signal_labels, s.pi.copy()) for s in schemes)


def test_verify_chain_evaluates_each_value_once(evaluations):
    counts, checks, watch = evaluations
    rng = np.random.default_rng(7)
    prior = watch(random_prior(rng, ne=2, na=3, nb=2))
    score = log_score()
    actual = random_scheme(rng, prior, 4)

    # the benchmark's verify solve: the oracle, then its simulate step
    believed = oracle.oracle_optimal(prior, score, 0.25, 2).scheme
    assert believed.n_signals != actual.n_signals
    actual.validate(prior)
    if belief.sender_objective(prior, score, actual) >= \
            belief.sender_objective(prior, score, believed):
        oracle.deviation_check(prior, score, believed, actual)
    else:
        oracle.deviation_check(prior, score, actual, believed)
    oracle.cross_belief_utilities(prior, score, believed, actual)
    belief.alice_total_utility(prior, score, actual)
    belief.bob_utility_of_scheme(prior, score, actual)
    assert counts == {"V": 1, believed.n_signals: 1, actual.n_signals: 1}
    assert checks(actual) == checks(believed) == 1


def test_validation_is_redone_for_another_prior(evaluations):
    _, checks, _ = evaluations
    rng = np.random.default_rng(8)
    prior_a, prior_b = (random_prior(rng, ne=2, na=2, nb=2) for _ in "ab")
    score = quadratic_score()
    scheme = random_scheme(rng, prior_a, 2)
    belief.bob_utility_of_scheme(prior_a, score, scheme)
    scheme.validate(prior_a)
    assert checks(scheme) == 1
    # the columns split mu_A(a), not prior B's marginal
    with pytest.raises(ValidationError, match="column sums"):
        scheme.validate(prior_b)
    with pytest.raises(ValidationError, match="column sums"):
        belief.bob_utility_of_scheme(prior_b, score, scheme)
    with pytest.raises(ValidationError, match="column sums"):
        oracle.cross_belief_utilities(prior_b, score, scheme, scheme)
    twin = JointPrior(prior_a.p.copy())
    scheme.validate(twin)
    scheme.validate(prior_a)
    assert checks(scheme) == 6


def test_another_score_object_recomputes(evaluations):
    counts, _, watch = evaluations
    rng = np.random.default_rng(10)
    prior = watch(random_prior(rng, ne=2, na=2, nb=2))
    scheme = random_scheme(rng, prior, 3)
    first, twin = quadratic_score(), quadratic_score()
    assert first == twin and first is not twin
    for score in (first, first, twin):
        core.total_value(prior, score)
        belief.bob_utility_of_scheme(prior, score, scheme)
    assert counts == {"V": 2, 3: 2}
    # a score of another kind gets its own values, not the stored ones
    fresh_prior, fresh_scheme = _fresh(prior, scheme)
    for score in (log_score(), random_piecewise(rng, ne=2, k=3)):
        assert core.total_value(prior, score) == \
            core.total_value(fresh_prior, score)
        assert belief.bob_utility_of_scheme(prior, score, scheme) == \
            belief.bob_utility_of_scheme(fresh_prior, score, fresh_scheme)


def test_non_finite_value_is_raised_on_every_call(evaluations):
    counts, _, watch = evaluations
    prior = watch(random_prior(np.random.default_rng(12), ne=2, na=2, nb=2))
    # G = 1e308 * (p_0 + p_1) + 1e308 overflows to +inf everywhere
    score = piecewise_score([(np.array([1e308, 1e308]), 1e308)])
    with np.errstate(over="ignore"):
        for _ in range(2):
            with pytest.raises(NonFiniteScore, match="not finite"):
                core.total_value(prior, score)
    assert counts["V"] == 2


def test_stored_values_stay_out_of_repr_and_eq():
    rng = np.random.default_rng(13)
    prior = random_prior(rng, ne=2, na=2, nb=2)
    score = quadratic_score()
    scheme = random_scheme(rng, prior, 2)
    oracle.cross_belief_utilities(prior, score, scheme, scheme)
    belief.alice_total_utility(prior, score, scheme)
    bare_prior = JointPrior(prior.p)
    bare_scheme = SignalingScheme(scheme.signal_labels, scheme.pi)
    assert prior == bare_prior and repr(prior) == repr(bare_prior)
    assert scheme == bare_scheme and repr(scheme) == repr(bare_scheme)


def _differential_priors(rng):
    """Random priors, and copies with a zero-mass alice outcome and with a
    zero-mass (a, b) pair."""
    for ne, na, nb in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
        p = rng.gamma(1.0, size=(ne, na, nb))
        thin_a, thin_ab = p.copy(), p.copy()
        thin_a[:, 1, :] = 0.0
        thin_ab[:, 0, 1] = 0.0
        for q in (p, thin_a, thin_ab):
            yield JointPrior(q / q.sum())


def _verify_chain_floats(prior, score, pi, pi_star, fresh):
    """Every float the verify chain's public functions return, in one
    order; with ``fresh``, each call gets its own copies of the prior and
    the schemes, so nothing stored on one call reaches another."""
    def args(*schemes):
        return _fresh(prior, *schemes) if fresh else (prior,) + schemes

    def call(fn, *schemes, extra=()):
        p, *rest = args(*schemes)
        return fn(p, score, *rest, *extra)

    out = []
    report = call(oracle.oracle_optimal, extra=(0.25, 2))
    out += [report.bob_utility, report.total_value_V,
            report.diagnostics["scan_objective"], *report.scheme.pi.ravel()]
    out.append(call(core.total_value))
    for s in (pi, pi_star):
        out.append(call(belief.sender_objective, s))
        out.append(call(belief.bob_utility_of_scheme, s))
        out.append(call(belief.alice_total_utility, s))
    for believed, actual in ((pi, pi_star), (pi_star, pi_star), (pi, pi),
                             (pi_star, pi)):
        c = call(oracle.cross_belief_utilities, believed, actual)
        out += [c.bob_utility, c.alice_utility, c.off_path_mass,
                c.divergence_mass]
    check = call(oracle.deviation_check, pi, pi_star)
    out += [check.passed] + [check.details[k] for k in sorted(check.details)]
    return [struct.pack("d", float(x)) for x in out]


@pytest.mark.parametrize("kind", ["quadratic", "log", "spherical",
                                  "piecewise"])
def test_shared_and_fresh_objects_give_the_same_bits(kind):
    rng = np.random.default_rng(31)
    for prior in _differential_priors(rng):
        score = {"quadratic": quadratic_score(),
                 "log": log_score(),
                 "spherical": spherical_score(
                     holder=HolderParams(1.0, 0.5, 0.5)),
                 "piecewise": random_piecewise(rng, prior.n_events, k=4)}[kind]
        pi, pi_star = random_scheme(rng, prior, 2), random_scheme(rng, prior, 3)
        probe_pi, probe_star = _fresh(prior, pi, pi_star)[1:]
        if belief.sender_objective(prior, score, probe_star) < \
                belief.sender_objective(prior, score, probe_pi):
            pi, pi_star = pi_star, pi
        prior = JointPrior(prior.p)    # the ordering stored values on prior
        fresh = _verify_chain_floats(prior, score, pi, pi_star, fresh=True)
        shared = _verify_chain_floats(prior, score, pi, pi_star, fresh=False)
        assert shared == fresh
