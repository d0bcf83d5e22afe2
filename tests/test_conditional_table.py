"""One ConditionalTable per prior: computed once, shared, read-only."""

import dataclasses
import itertools

import numpy as np
import pytest

from abasolve import belief, core, exact, fptas, oracle
from abasolve.core import JointPrior, marginals_and_conditionals
from abasolve.scoring import quadratic_score

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
