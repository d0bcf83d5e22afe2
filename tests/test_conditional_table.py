"""One ConditionalTable per prior: computed once, shared, read-only."""

import dataclasses

import numpy as np
import pytest

from abasolve import belief, core, exact, fptas, oracle
from abasolve.core import JointPrior, marginals_and_conditionals
from abasolve.scoring import quadratic_score

from helpers import random_piecewise, random_prior, random_scheme


def _arrays(table):
    return [getattr(table, f.name)
            for f in dataclasses.fields(table) if f.init]


@pytest.fixture
def tables_built(monkeypatch):
    """Counts (computed, zero-filled) tables built since the last reset.

    A zero-filled table shares ``mu_a`` with the table it was filled from;
    a computed one brings its own.
    """
    made = []
    real = core.ConditionalTable.__post_init__

    def record(self):
        real(self)
        made.append(self)

    monkeypatch.setattr(core.ConditionalTable, "__post_init__", record)

    def counts(reset=False):
        computed = len({id(t.mu_a) for t in made})
        out = (computed, len(made) - computed)
        if reset:
            made.clear()
        return out
    return counts


def test_table_is_computed_once_per_prior():
    prior = random_prior(np.random.default_rng(3), ne=2, na=3, nb=2)
    table = marginals_and_conditionals(prior)
    assert marginals_and_conditionals(prior) is table
    assert table.zero_filled() is table.zero_filled()
    # stored on the instance, not shared between equal priors
    twin = JointPrior(prior.p.copy())
    assert marginals_and_conditionals(twin) is not table
    assert "table" not in repr(prior)


def test_table_arrays_are_read_only():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 0, 1] = 0.5  # alice outcome 1 never happens: NaN rows to fill
    table = marginals_and_conditionals(JointPrior(p))
    for t in (table, table.zero_filled()):
        for arr in _arrays(t):
            first = (0,) * arr.ndim
            with pytest.raises(ValueError, match="read-only"):
                arr[first] = arr[first]
    assert np.isnan(table.e_given_a[1]).all()
    assert (table.zero_filled().e_given_a[1] == 0.0).all()


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
    assert tables_built() == (1, 1)


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
    assert tables_built() == (1, 1)


def test_piecewise_classify_builds_one_table(tables_built):
    rng = np.random.default_rng(11)
    for na in (2, 3):
        prior = random_prior(rng, ne=2, na=na, nb=2)
        score = random_piecewise(rng, ne=2, k=3)
        tables_built(reset=True)
        exact.classify_substitutes(prior, score)
        assert tables_built() == (1, 1)
