import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from abasolve.belief import sender_objective
from abasolve.core import (Classification, JointPrior, SignalingScheme,
                           full_reveal_scheme, marginals_and_conditionals,
                           no_reveal_scheme)
from abasolve import _kernels, cli, exact as exact_module, fptas, \
    instances, lp
from abasolve.errors import NumericalFailure, SizeCapExceeded, \
    ValidationError
from abasolve.exact import (build_obedience_lp, build_revelation_signals,
                            certify_obedience, classify_substitutes,
                            obedience_lp_optimum, solve_exact)
from abasolve.lp import solve_lp, tableau_cells
from abasolve.oracle import oracle_optimal
from abasolve.scoring import (default_tangent_grid, linearize_smooth,
                              log_score, piecewise_score, quadratic_score)

from helpers import (arrangement_points_frozen, certify_obedience_loop,
                     classify_against_benchmarks_frozen, compact_lp_highs,
                     cross_frozen, degenerate_cases, merge_profiles_frozen,
                     obedience_lp_loop, posterior_e_given_s_ref,
                     posterior_e_given_sb_ref, random_piecewise,
                     random_prior)


def _linearized_quadratic(prior, k=20):
    grid = default_tangent_grid(quadratic_score(), prior.n_events, k)
    return linearize_smooth(quadratic_score(), grid)


def test_build_revelation_signals_counts():
    assert build_revelation_signals(2, 1).shape == (4, 2)
    assert build_revelation_signals(2, 2).shape == (8, 3)
    assert build_revelation_signals(3, 2).shape == (27, 3)


def test_build_revelation_signals_order_and_cap():
    assert build_revelation_signals(2, 1).tolist() == \
        [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert build_revelation_signals(3, 2).tolist() == \
        [list(p) for p in itertools.product(range(3), repeat=3)]
    with pytest.raises(SizeCapExceeded):
        build_revelation_signals(10, 5, cap=1000)


def test_build_obedience_lp_dimensions(xor_prior):
    score = random_piecewise(np.random.default_rng(0), ne=2, k=2)
    lp = build_obedience_lp(xor_prior, score)
    # k=2, |A|=2, |B|=2: 16 variables; k|S| + k|B||S| obedience rows + |A| eq
    assert lp.n_vars == 16
    assert lp.a_ub.shape == (16 + 32, 16)
    assert lp.a_eq.shape == (2, 16)
    assert lp.b_eq == pytest.approx([0.5, 0.5])


def test_obedience_lp_refuses_the_solver_tableau_before_allocating(
        xor_prior, monkeypatch):
    score = random_piecewise(np.random.default_rng(0), ne=2, k=2)
    program = build_obedience_lp(xor_prior, score)
    cells = tableau_cells(program.n_vars, program.a_ub.shape[0],
                          program.a_eq.shape[0])
    monkeypatch.setattr(lp, "DEFAULT_CELL_CAP", cells - 1)
    with pytest.raises(SizeCapExceeded) as from_solver:
        solve_lp(program)
    assert from_solver.value.required == cells

    def no_build(*args, **kwargs):
        raise AssertionError("LP blocks built before the cap check")

    with monkeypatch.context() as m:
        m.setattr(exact_module, "_obedience_blocks", no_build)
        with pytest.raises(SizeCapExceeded) as from_builder:
            build_obedience_lp(xor_prior, score)
    assert from_builder.value.required == cells
    assert str(from_builder.value) == str(from_solver.value)
    monkeypatch.setattr(lp, "DEFAULT_CELL_CAP", cells)
    solve_lp(build_obedience_lp(xor_prior, score))


def test_build_obedience_lp_matches_loop_reference():
    """The array assembly against the per-signal loop, bit for bit."""
    rng = np.random.default_rng(239)
    for na in (2, 3):
        for nb in (1, 2, 3):
            ne = int(rng.integers(2, 4))
            prior = random_prior(rng, ne=ne, na=na, nb=nb)
            score = random_piecewise(rng, ne, k=int(rng.integers(1, 5)))
            profiles = build_revelation_signals(score.k_pieces, nb)
            got = build_obedience_lp(prior, score, profiles)
            want = obedience_lp_loop(prior, score, profiles)
            for g, w in zip((got.objective, got.a_eq, got.a_ub, got.b_ub),
                            want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_single_action_obedience_vacuous(xor_prior):
    score = piecewise_score([((0.25, -0.25), 0.1)])
    report = solve_exact(xor_prior, score)
    # one action: every marginal-consistent scheme is obedient
    assert report.diagnostics["max_obedience_violation"] <= 1e-12
    assert report.scheme.violations(xor_prior) == []


def test_solve_exact_golden_xor(xor_prior):
    report = solve_exact(xor_prior, _linearized_quadratic(xor_prior))
    assert report.sender_objective == pytest.approx(0.0, abs=1e-7)
    assert report.bob_utility == pytest.approx(0.0, abs=1e-7)
    assert report.classification is Classification.COMPLEMENTS
    assert report.diagnostics["lp_objective"] == pytest.approx(0.0, abs=1e-7)


def test_solve_exact_golden_copy(copy_prior):
    report = solve_exact(copy_prior, _linearized_quadratic(copy_prior))
    assert report.sender_objective == pytest.approx(0.0, abs=1e-7)
    assert report.classification is Classification.SUBSTITUTES


def test_solve_exact_independent(independent_prior):
    score = random_piecewise(np.random.default_rng(1), ne=2, k=3)
    report = solve_exact(independent_prior, score)
    assert report.sender_objective == pytest.approx(0.0, abs=1e-9)
    assert report.classification is Classification.INDIFFERENT


def test_solve_exact_scheme_contract(xor_prior):
    score = random_piecewise(np.random.default_rng(2), ne=2, k=4)
    report = solve_exact(xor_prior, score)
    scheme = report.scheme
    assert scheme.violations(xor_prior) == []
    assert (scheme.signal_masses() > 1e-10).all()  # zero signals pruned
    assert abs(report.sender_objective + report.bob_utility) <= 1e-12
    assert report.sender_objective == \
        pytest.approx(report.diagnostics["lp_objective"], abs=1e-7)
    assert report.diagnostics["lp_duality_gap"] <= 1e-7
    assert report.diagnostics["max_obedience_violation"] <= 1e-7


def test_optimum_dominates_benchmarks():
    rng = np.random.default_rng(3)
    for _ in range(10):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=3)
        report = solve_exact(prior, score)
        full = sender_objective(prior, score, full_reveal_scheme(prior))
        none = sender_objective(prior, score, no_reveal_scheme(prior))
        assert report.diagnostics["lp_objective"] >= max(full, none) - 1e-7


def test_oracle_equivalence_small():
    rng = np.random.default_rng(5)
    for _ in range(5):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=int(rng.integers(1, 5)))
        lp_opt = solve_exact(prior, score).diagnostics["lp_objective"]
        oracle_opt = oracle_optimal(prior, score, grid_step=0.02,
                                    max_signals=2).sender_objective
        assert lp_opt >= oracle_opt - 1e-9   # oracle searches a subset
        assert abs(lp_opt - oracle_opt) <= 1e-3


def _concavification_oracle_binary(prior, score, n_grid=2000):
    """Best sender objective for |A| = 2 via the lower convex envelope of
    u_B over posteriors w = (t, 1-t), evaluated at the prior marginal.

    Independent of both the obedience LP and the fraction-grid oracle: it
    scans posterior pairs straddling mu(a0) with exact mixture weights.
    """
    from abasolve.belief import bob_utility_from_wA

    mu0 = prior.marginal_alice()[0]
    ts = np.linspace(0.0, 1.0, n_grid + 1)
    ub = np.array([bob_utility_from_wA(prior, score, np.array([t, 1.0 - t]))
                   for t in ts])
    left = ts <= mu0 + 1e-12
    right = ts >= mu0 - 1e-12
    tl, ul = ts[left], ub[left]
    tr, ur = ts[right], ub[right]
    span = tr[None, :] - tl[:, None]
    lam = np.where(span > 1e-15, (tr[None, :] - mu0) / np.where(span > 1e-15,
                                                                span, 1.0), 1.0)
    mixed = lam * ul[:, None] + (1.0 - lam) * ur[None, :]
    mixed[(span <= 1e-15) & (np.abs(tl[:, None] - mu0) > 1e-9)] = np.inf
    return -float(mixed.min())


def test_exact_matches_concavification_envelope():
    rng = np.random.default_rng(113)
    for _ in range(8):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=int(rng.integers(2, 5)))
        lp_opt = solve_exact(prior, score).diagnostics["lp_objective"]
        envelope = _concavification_oracle_binary(prior, score)
        assert lp_opt >= envelope - 1e-9   # envelope scan is a restriction
        assert abs(lp_opt - envelope) <= 2e-3


def test_pruned_lp_matches_full_lp():
    # the |A|=2 interval reduction must reproduce the unreduced optimum
    from abasolve.lp import solve_lp

    rng = np.random.default_rng(101)
    for _ in range(10):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=int(rng.integers(2, 5)))
        pruned_opt = solve_exact(prior, score).diagnostics["lp_objective"]
        full_lp = build_obedience_lp(prior, score)
        full_opt = solve_lp(full_lp).objective
        assert pruned_opt == pytest.approx(full_opt, abs=1e-9)


def test_solve_exact_unpruned_path_matches():
    rng = np.random.default_rng(7)
    prior = random_prior(rng, ne=2, na=3, nb=2)
    score = random_piecewise(rng, ne=2, k=3)
    report = solve_exact(prior, score)
    oracle_opt = oracle_optimal(prior, score, grid_step=1 / 12,
                                max_signals=3).sender_objective
    assert report.diagnostics["lp_objective"] >= oracle_opt - 1e-9
    assert report.diagnostics["max_obedience_violation"] <= 1e-7


def test_solve_exact_three_events():
    rng = np.random.default_rng(103)
    prior = random_prior(rng, ne=3, na=2, nb=2)
    score = random_piecewise(rng, ne=3, k=3)
    report = solve_exact(prior, score)
    assert report.scheme.violations(prior) == []
    assert report.diagnostics["max_obedience_violation"] <= 1e-7
    full = sender_objective(prior, score, full_reveal_scheme(prior))
    none = sender_objective(prior, score, no_reveal_scheme(prior))
    assert report.diagnostics["lp_objective"] >= max(full, none) - 1e-7
    oracle_opt = oracle_optimal(prior, score, grid_step=0.02,
                                max_signals=2).sender_objective
    assert report.diagnostics["lp_objective"] >= oracle_opt - 1e-9


def test_classify_golden(xor_prior, copy_prior, independent_prior, quad):
    assert classify_substitutes(xor_prior, quad).classification is \
        Classification.COMPLEMENTS
    assert classify_substitutes(copy_prior, quad).classification is \
        Classification.SUBSTITUTES
    report = classify_substitutes(independent_prior, quad)
    assert report.classification is Classification.INDIFFERENT
    assert report.diagnostics["linearized"] is True


def test_classify_golden_log_and_spherical(xor_prior, copy_prior):
    from abasolve.scoring import log_score, spherical_score
    # log linearizes on the 19 interior tangent points; spherical keeps all 21
    for score in (log_score(), spherical_score()):
        assert classify_substitutes(xor_prior, score).classification is \
            Classification.COMPLEMENTS
        assert classify_substitutes(copy_prior, score).classification is \
            Classification.SUBSTITUTES


def test_classify_neither_exists():
    # a skewed instance where partial revelation strictly wins
    rng = np.random.default_rng(13)
    found = False
    for _ in range(40):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        score = random_piecewise(rng, ne=2, k=4)
        report = solve_exact(prior, score)
        if report.classification is Classification.NEITHER:
            found = True
            break
    assert found


def test_solve_exact_with_null_alice_outcome():
    # an alice outcome of prior probability zero forces its pi column to 0
    p = np.zeros((2, 3, 2))
    p[0, 0, 0] = p[1, 0, 1] = 0.25   # a0: e = b
    p[0, 1, 1] = p[1, 1, 0] = 0.25   # a1: e = not b
    prior = JointPrior(p)            # a2 never happens
    score = random_piecewise(np.random.default_rng(17), ne=2, k=3)
    report = solve_exact(prior, score)
    assert report.scheme.violations(prior) == []
    assert report.scheme.pi[:, 2] == pytest.approx(np.zeros(report.scheme.n_signals))
    assert report.diagnostics["max_obedience_violation"] <= 1e-7


def test_solve_exact_rejects_smooth(xor_prior, quad):
    with pytest.raises(ValidationError):
        solve_exact(xor_prior, quad)


def test_obedience_lp_and_certificate_reject_smooth(xor_prior, quad):
    with pytest.raises(ValidationError, match="piecewise G only"):
        build_obedience_lp(xor_prior, quad)
    with pytest.raises(ValidationError, match="piecewise G only"):
        certify_obedience(xor_prior, quad, full_reveal_scheme(xor_prior))


def test_certify_obedience_detects_violation(xor_prior):
    score = piecewise_score([((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0)])
    scheme = full_reveal_scheme(xor_prior)
    # deliberately wrong recommendations: conditional posteriors are point
    # masses, so some recommended action must be suboptimal
    recs = [(0, (0, 0)), (0, (0, 0))]
    assert certify_obedience(xor_prior, score,
                             _labelled(scheme, recs)) > 0.5


@pytest.mark.parametrize("bad", ("a0", "0-0-9", "0-0", "0-0-0-0", "0-x-1"))
def test_certify_obedience_rejects_labels_that_are_not_profiles(xor_prior,
                                                                bad):
    score = piecewise_score([((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0)])
    pi = full_reveal_scheme(xor_prior).pi
    with pytest.raises(ValidationError, match=f"signal label '{bad}' is not"):
        certify_obedience(xor_prior, score,
                          SignalingScheme(("0-0-0", bad), pi))
    # a label on a signal below SUPPORT_MASS is never read
    silent = SignalingScheme(("0-0-0", "0-0-1", bad),
                             np.vstack((pi, np.zeros((1, 2)))))
    assert certify_obedience(xor_prior, score, silent) >= 0.0


def _profiles(rng, scheme, k, nb):
    """Random recommendation profiles (i0, (i_b, ...)), one per signal."""
    return [(int(rng.integers(k)), tuple(rng.integers(k, size=nb).tolist()))
            for _ in scheme.signal_labels]


def _labelled(scheme, profiles):
    labels = ["-".join(str(i) for i in (i0, *ib)) for i0, ib in profiles]
    return SignalingScheme(tuple(labels), scheme.pi)


def test_certify_obedience_matches_loop_reference():
    """Batched certificate against the per-signal, per-b loop, with
    recommendations decoded from labels."""
    rng = np.random.default_rng(227)
    for ne, na, nb in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 1)):
        for prior, scheme in degenerate_cases(rng, ne, na, nb):
            score = random_piecewise(rng, ne, k=4)
            profiles = _profiles(rng, scheme, score.k_pieces, nb)
            want = certify_obedience_loop(prior, score, scheme, profiles)
            assert want > 0.0
            assert certify_obedience(prior, score,
                                     _labelled(scheme, profiles)) == \
                pytest.approx(want, abs=1e-12)


def test_certify_obedience_skips_below_mass_threshold(monkeypatch):
    """A disobeyed signal, and a disobeyed (s, b) pair, each of mass
    1e-12: skipped at SUPPORT_MASS, counted when it is lowered to 0."""
    rng = np.random.default_rng(229)
    p = rng.gamma(1.0, size=(2, 2, 2))
    p[:, 0, 1] *= 1e-11                      # mu(b1 | a0) of order 1e-11
    prior = JointPrior(p / p.sum())
    t = marginals_and_conditionals(prior)
    u = np.array([[1.0, -1.0], [-1.0, 1.0], [0.1, 0.1]])
    score = piecewise_score([(row, 0.0) for row in u])
    mu_a = prior.marginal_alice()
    tiny = 1e-12 / t.b_given_a[0, 1]         # pair (s0, b1) has mass 1e-12
    pi = np.array([[tiny, 0.0], mu_a - [tiny, 1e-12], [0.0, 1e-12]])
    scheme = SignalingScheme(("s0", "s1", "s2"), pi)

    def profile(s, flip):
        """Obedient recommendations, but the least preferred action for
        the posterior named by ``flip``: "s" for Pr(e|s), b for Pr(e|s,b)."""
        posts = [posterior_e_given_s_ref(prior, scheme, s, t)] + \
            [posterior_e_given_sb_ref(prior, scheme, s, b, t)
             for b in range(2)]
        acts = [int(np.argmin(u @ q)) if flip == j else int(np.argmax(u @ q))
                for j, q in zip(("s", 0, 1), posts)]
        return acts[0], tuple(acts[1:])

    for flipped in ({"s2": "s"}, {"s0": 1}):     # the signal, then the pair
        recs = [profile(s, flipped.get(s)) for s in scheme.signal_labels]
        labelled = _labelled(scheme, recs)
        assert certify_obedience_loop(prior, score, scheme, recs) == 0.0
        assert certify_obedience(prior, score, labelled) == 0.0
        want = certify_obedience_loop(prior, score, scheme, recs, 0.0)
        assert want > 0.1
        with monkeypatch.context() as m:
            m.setattr(exact_module, "SUPPORT_MASS", 0.0)
            assert certify_obedience(prior, score, labelled) == \
                pytest.approx(want, abs=1e-12)


_prior_entries = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                           st.floats(0.0, 1.0))
_piece_entries = st.one_of(st.sampled_from([-0.5, 0.0, 0.5]),
                           st.floats(-1.0, 1.0))


def _degenerate_prior(rng, ne, na, nb):
    """A random prior; one time in three each, an A or a B outcome (when
    there are two or more) gets zero mass."""
    p = random_prior(rng, ne=ne, na=na, nb=nb).p.copy()
    axis = int(rng.integers(1, 4))
    if axis < 3 and p.shape[axis] > 1:
        np.moveaxis(p, axis, 0)[int(rng.integers(p.shape[axis]))] = 0.0
    return JointPrior(p / p.sum())


def test_solve_exact_matches_obedience_lp_optimum():
    """Against the dense-tableau obedience LP, on |A| and |B| in {1,2,3},
    zero-mass outcomes and duplicate pieces; the compact LP on HiGHS, the
    property test's reference, matches the obedience LP too."""
    rng = np.random.default_rng(251)
    for na, nb in itertools.product((1, 2, 3), repeat=2):
        for _ in range(4):
            ne = int(rng.integers(2, 4))
            prior = _degenerate_prior(rng, ne, na, nb)
            drawn = random_piecewise(rng, ne, k=int(rng.integers(1, 5 - nb)))
            pieces = list(zip(drawn.pieces_r, drawn.pieces_b))
            score = piecewise_score(pieces + pieces[:int(rng.integers(2))])
            reference = obedience_lp_optimum(prior, score)
            assert compact_lp_highs(prior, score) == \
                pytest.approx(reference, abs=1e-9)
            assert solve_exact(prior, score).diagnostics["lp_objective"] == \
                pytest.approx(reference, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), na=st.integers(1, 3), nb=st.integers(1, 3),
       ne=st.integers(2, 3))
def test_solve_exact_matches_obedience_lp_property(data, na, nb, ne):
    """The envelope LP over the arrangement's vertices against the compact
    LP, on priors with zero-mass outcomes and on scores with up to 12
    pieces, duplicate pieces or log tangents near the boundary.  HiGHS
    solves the compact LP: the dense tableau can return a wrong optimum, or
    pivot for minutes, when a prior entry is near 1e-7."""
    p = data.draw(arrays(float, (ne, na, nb), elements=_prior_entries))
    if p.sum() <= 0.0:
        p[0, 0, 0] = 1.0
    prior = JointPrior(p / p.sum())
    # the compact LP has k (|A| + |B|) variables and k^2 |B| + |A| rows
    max_k = 12
    if data.draw(st.booleans()):
        # interior tangents at multiples of 1/tangent_k, down to 1/13:
        # tangent_k - 1 pieces for |E| = 2; 1, 3, 6 or 10 for |E| = 3
        tangent_k = data.draw(st.integers(2, max_k + 1) if ne == 2 else
                              st.integers(3, 6))
        score = linearize_smooth(log_score(), default_tangent_grid(
            log_score(), ne, tangent_k))
    else:
        k = data.draw(st.integers(1, max_k - 1))
        r = data.draw(arrays(float, (k, ne), elements=_piece_entries))
        b = data.draw(arrays(float, (k,), elements=_piece_entries))
        pieces = list(zip(r, b))
        score = piecewise_score(pieces + pieces[:data.draw(st.integers(0, 1))])
    report = solve_exact(prior, score)
    assert report.diagnostics["lp_objective"] == \
        pytest.approx(compact_lp_highs(prior, score), abs=1e-9)
    # vertices that share a profile are one signal, and ties between
    # duplicate pieces go to the lower index
    labels = report.scheme.signal_labels
    assert len(set(labels)) == len(labels)
    later_copies = {j for _, j in score.duplicate_piece_indices()}
    assert not later_copies & {int(i) for s in labels for i in s.split("-")}


@settings(max_examples=120, deadline=None)
@given(data=st.data(), nb=st.integers(1, 2), ne=st.integers(2, 3),
       k=st.integers(1, 5))
def test_solve_exact_at_four_alice_outcomes_matches_compact_lp(data, nb, ne,
                                                               k):
    """The arrangement without the pre-reveal normals is exact at |A| = 4,
    past the reach of the test above: at most C(C(5,2) * 2 + 4, 3) = 2,024
    candidate points, against the compact LP on HiGHS."""
    p = data.draw(arrays(float, (ne, 4, nb), elements=_prior_entries))
    if p.sum() <= 0.0:
        p[0, 0, 0] = 1.0
    prior = JointPrior(p / p.sum())
    r = data.draw(arrays(float, (k, ne), elements=_piece_entries))
    b = data.draw(arrays(float, (k,), elements=_piece_entries))
    score = piecewise_score(list(zip(r, b)))
    report = solve_exact(prior, score)
    assert report.diagnostics["lp_objective"] == \
        pytest.approx(compact_lp_highs(prior, score), abs=1e-9)


def test_solve_exact_matches_compact_lp_where_highs_simplex_fails():
    # the four-outcome property test drew this: HiGHS's simplex reports
    # model status Unknown on its compact LP, whose rows mix 5e-9 and 0.5
    prior = JointPrior(np.full((2, 4, 1), 0.125))
    score = piecewise_score([([1e-8, 0.0], 0.0), ([-0.5, 0.0], 0.5),
                             ([0.0, 0.0], 0.5)])
    assert solve_exact(prior, score).diagnostics["lp_objective"] == \
        pytest.approx(compact_lp_highs(prior, score), abs=1e-9)


def test_solve_exact_matches_obedience_lp_log_boundary_tangents():
    # tangents down to 0.1 and posteriors within 1e-9 of the boundary
    rng = np.random.default_rng(229)
    score = linearize_smooth(log_score(),
                             default_tangent_grid(log_score(), 2, 10))
    for na in (2, 3):
        p = random_prior(rng, ne=2, na=na, nb=1).p.copy()
        p[0] *= 1e-9
        prior = JointPrior(p / p.sum())
        assert solve_exact(prior, score).diagnostics["lp_objective"] == \
            pytest.approx(obedience_lp_optimum(prior, score), abs=1e-9)


@pytest.mark.parametrize("ne, na, nb, tangent_k", ((3, 2, 2, 20),
                                                   (2, 3, 2, 6)))
def test_cases_the_obedience_lp_refuses_classify(ne, na, nb, tangent_k):
    """Random quadratic priors whose obedience LP is over the default caps
    (231^3 profiles; 59M tableau cells) now classify."""
    prior = random_prior(np.random.default_rng(0), ne=ne, na=na, nb=nb)
    score = _linearized_quadratic(prior, tangent_k)
    with pytest.raises(SizeCapExceeded):
        obedience_lp_optimum(prior, score)
    report = classify_substitutes(prior, quadratic_score(), tangent_k)
    assert report.classification is not Classification.UNCLASSIFIED
    assert report.scheme.violations(prior) == []
    full = sender_objective(prior, score, full_reveal_scheme(prior))
    none = sender_objective(prior, score, no_reveal_scheme(prior))
    assert report.diagnostics["lp_objective"] >= max(full, none) - 1e-9


def test_solve_exact_builds_no_tableau(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_exact ran the dense tableau")

    for module, name in ((lp, "solve_lp"), (exact_module, "solve_lp"),
                         (_kernels, "simplex_iterate"), (_kernels, "pivot")):
        monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(241)
    for na in (1, 2, 3):
        prior = random_prior(rng, ne=2, na=na, nb=2)
        report = solve_exact(prior, random_piecewise(rng, ne=2, k=4))
        assert report.scheme.violations(prior) == []


def test_solve_exact_refuses_over_cap_before_allocating(xor_prior,
                                                        monkeypatch):
    score = random_piecewise(np.random.default_rng(0), ne=2, k=3)

    def no_build(*args, **kwargs):
        raise AssertionError("built before the cap check")

    # |A| = 2, |B| = 2, k = 3: C(3,2) * 2 = 6 after-reveal normals and 2
    # facets give C(8, 1) = 8 candidate points, counted before anything is
    # built
    for name in ("marginals_and_conditionals", "_obedience_blocks",
                 "_arrangement_points", "_envelope_lp"):
        monkeypatch.setattr(exact_module, name, no_build)
    with pytest.raises(SizeCapExceeded) as refused:
        solve_exact(xor_prior, score, cap_lp_vars=7)
    assert str(refused.value) == \
        "arrangement has 8 candidate points, cap is 7"
    assert refused.value.required == 8
    monkeypatch.undo()
    assert solve_exact(xor_prior, score, cap_lp_vars=8).diagnostics[
        "lp_vars"] <= 2 + 8


def test_solve_exact_over_cap_allocates_nothing():
    rng = np.random.default_rng(233)
    prior = random_prior(rng, ne=2, na=3, nb=3)
    score = random_piecewise(rng, ne=2, k=37)
    # C(C(37,2) * 3 + 3, 2) = C(2001, 2) = 2,001,000 candidates > the 2e6
    # default cap
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded) as refused:
            solve_exact(prior, score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused.value.required == 2001 * 2000 // 2
    assert peak < 256 * 1024


def test_solve_exact_one_alice_outcome_builds_no_arrangement():
    # |A| = 1: Delta_A is one point, so the cap (one candidate) admits any
    # piece count; nothing of size k x k may be built for it
    prior = random_prior(np.random.default_rng(5), ne=3, na=1, nb=2)
    tracemalloc.start()
    try:
        report = classify_substitutes(prior, quadratic_score(), tangent_k=40,
                                      cap_lp_vars=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.diagnostics["pieces"] == 861
    assert report.diagnostics["lp_vars"] == 1
    assert report.classification is Classification.INDIFFERENT
    assert report.scheme.n_signals == 1
    assert peak < 10 * 2**20


# -- self-certification ------------------------------------------------------

def _with_gap(monkeypatch, gap):
    real = fptas.solve_envelope

    def solve_envelope_with_gap(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), duality_gap=gap)

    monkeypatch.setattr(fptas, "solve_envelope", solve_envelope_with_gap)


def test_solve_exact_raises_on_duality_gap(xor_prior, monkeypatch):
    score = random_piecewise(np.random.default_rng(2), ne=2, k=4)
    _with_gap(monkeypatch, fptas.GRID_GAP_TOL)
    assert solve_exact(xor_prior, score).diagnostics["lp_duality_gap"] == \
        fptas.GRID_GAP_TOL
    _with_gap(monkeypatch, 2 * fptas.GRID_GAP_TOL)
    with pytest.raises(NumericalFailure, match="vertex LP duality gap"):
        solve_exact(xor_prior, score)


@pytest.mark.parametrize("na", (2, 3))
def test_solve_exact_raises_when_phase_2_stops_early(monkeypatch, na):
    # solve_envelope has no phase 1: its pivots start from the simplex's
    # vertices, which are not optimal here.  A pivot loop that stops
    # before its first pivot leaves a negative reduced cost, which the
    # duality gap must show.
    prior = random_prior(np.random.default_rng(5), ne=2, na=na, nb=2)
    score = _linearized_quadratic(prior, k=4)
    report = solve_exact(prior, score)
    assert report.diagnostics["lp_iterations"] > 0
    assert report.diagnostics["lp_duality_gap"] <= fptas.GRID_GAP_TOL
    real = _kernels.envelope_iterate

    def stop_at_once(columns, basis, x_b, tol, max_iter, degen_limit):
        return (_kernels._STATUS_OPTIMAL,
                *real(columns, basis, x_b, tol, 0, degen_limit)[1:])

    monkeypatch.setattr(_kernels, "envelope_iterate", stop_at_once)
    with pytest.raises(NumericalFailure, match="duality gap"):
        solve_exact(prior, score)


@pytest.mark.parametrize("shift, raises", ((0.5e-7, False), (1e-6, True)))
def test_solve_exact_checks_lp_value_against_scheme(xor_prior, monkeypatch,
                                                    shift, raises):
    # a constant added to every cost moves the LP value but neither its
    # optimal basis nor the u_B that belief recomputes for the scheme.
    # fptas-a shares the check; its lp_objective is u_B, not its negative
    score = random_piecewise(np.random.default_rng(2), ne=2, k=4)
    solvers = ((solve_exact, 1.0),
               (lambda prior, score: fptas.fptas_a_const(prior, score, 0.5,
                                                         grid_k=12), -1.0))
    want = [solve(xor_prior, score).sender_objective for solve, _ in solvers]
    real = _kernels.ub_grid_wa
    monkeypatch.setattr(_kernels, "ub_grid_wa",
                        lambda *args: real(*args) + shift)
    for (solve, sign), objective in zip(solvers, want):
        if raises:
            with pytest.raises(NumericalFailure, match="sender objective"):
                solve(xor_prior, score)
        else:
            report = solve(xor_prior, score)
            assert report.sender_objective == objective
            assert sign * report.diagnostics["lp_objective"] == \
                pytest.approx(objective - shift, abs=1e-15)


def test_obedience_blocks_computed_once(monkeypatch):
    real = exact_module._obedience_blocks
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(exact_module, "_obedience_blocks", counted)
    for na in (2, 3):
        prior = random_prior(np.random.default_rng(na), ne=2, na=na, nb=2)
        calls.clear()
        solve_exact(prior, _linearized_quadratic(prior, k=4))
        assert len(calls) == 1, na


def test_solve_exact_raises_on_obedience_violation(xor_prior, monkeypatch):
    score = random_piecewise(np.random.default_rng(2), ne=2, k=4)
    tol = exact_module.OBEDIENCE_TOL
    monkeypatch.setattr(exact_module, "certify_obedience",
                        lambda *args, **kwargs: tol)
    assert solve_exact(xor_prior, score).diagnostics[
        "max_obedience_violation"] == tol
    monkeypatch.setattr(exact_module, "certify_obedience",
                        lambda *args, **kwargs: 2 * tol)
    with pytest.raises(NumericalFailure, match="obedience"):
        solve_exact(xor_prior, score)


def test_cli_maps_certificate_failure_to_solver_exit(tmp_path, monkeypatch,
                                                    capsys):
    spaces, prior = instances.xor_instance()
    path = tmp_path / "xor.json"
    instances.write_json(
        instances.instance_to_json(spaces, prior, quadratic_score()), path)
    monkeypatch.setattr(exact_module, "certify_obedience",
                        lambda *args, **kwargs: 1.0)
    assert cli.main(["classify", str(path)]) == cli.EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


# -- bit for bit against the frozen small-solve stages ------------------------
#
# ``_cross``, ``_arrangement_points`` and ``_merge_profiles`` must give what
# their frozen copies in helpers.py give, byte for byte (signed zeros
# included), and the benchmarks the classification the benchmark schemes
# give.

def _bytes(a: np.ndarray):
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_cross_matches_frozen_bit_for_bit(n):
    """Random stacks with 0.0, -0.0, 1.0 and repeated rows, whose minors
    vanish or cancel."""
    rng = np.random.default_rng(300 + n)
    for _ in range(40):
        sub = rng.normal(size=(int(rng.integers(1, 40)), n - 1, n))
        mask = rng.random(sub.shape)
        sub[mask < 0.2] = 0.0
        sub[mask > 0.8] = -0.0
        sub[(mask > 0.5) & (mask < 0.6)] = 1.0
        if n > 2:
            sub[::3, -1] = sub[::3, 0]
        assert _bytes(exact_module._cross(sub)) == _bytes(cross_frozen(sub))


@pytest.mark.parametrize("n", (3, 9, 10))
def test_cross_expands_along_its_first_row_bit_for_bit(n):
    """Each entry is the frozen expansion's sum along the first row over
    the minors of the lower rows, bit for bit; at n >= 9 that sum has 8
    or more terms, which numpy adds pairwise over a contiguous axis, so
    the sum's layout matters.  (The frozen recursion itself takes
    seconds there.)"""
    rng = np.random.default_rng(330 + n)
    sub = rng.normal(size=(4, n - 1, n))
    sub[:, :, ::3] *= 1e16
    got = exact_module._cross(sub)
    for a in range(n):
        lower = exact_module._cross(np.delete(sub[:, 1:], a, axis=-1))
        want = (-1) ** a * (np.delete(sub[:, 0], a, axis=-1) *
                            lower).sum(axis=-1)
        assert got[:, a].tobytes() == want.tobytes()


def _arrangement_cases(rng, na):
    """(prior, score) pairs at |A| = na: a plain prior, one with a zero-mass
    A outcome and one with a zero-mass B outcome, each with duplicate
    pieces and pieces whose utilities have both signs, so ``ue`` holds
    -0.0 where mu(a, b) = 0."""
    for zero_axis in (None, 1, 2):
        nb = int(rng.integers(1, 3))
        ne = int(rng.integers(2, 4))
        p = random_prior(rng, ne=ne, na=na, nb=nb).p.copy()
        if zero_axis is not None and p.shape[zero_axis] > 1:
            np.moveaxis(p, zero_axis, 0)[
                int(rng.integers(p.shape[zero_axis]))] = 0.0
        k = int(rng.integers(2, 5 if na < 5 else 4))
        drawn = random_piecewise(rng, ne, k=k)
        pieces = list(zip(drawn.pieces_r, drawn.pieces_b))
        yield JointPrior(p / p.sum()), piecewise_score(pieces + pieces[:1])


@pytest.mark.parametrize("na", (1, 2, 3, 4, 5))
def test_arrangement_points_and_merge_match_frozen_bit_for_bit(na):
    """The candidate points, then the scheme read off the LP's support:
    labels and pi, against the frozen arrangement and merge."""
    rng = np.random.default_rng(310 + na)
    for prior, score in _arrangement_cases(rng, na):
        table = marginals_and_conditionals(prior)
        ue = exact_module._obedience_blocks(table, score)
        points = exact_module._arrangement_points(ue)
        assert _bytes(points) == _bytes(arrangement_points_frozen(ue))
        cost = _kernels.ub_grid_wa(points, table, score)
        sol = lp.solve_envelope((cost, points), table.mu_a)
        support, weights = sol.support(exact_module.SUPPORT_MASS)
        labels, pi = exact_module._merge_profiles(points[support], weights,
                                                  ue)
        want_labels, want_pi = merge_profiles_frozen(points[support],
                                                     weights, ue)
        assert labels == want_labels
        assert _bytes(pi) == _bytes(want_pi)
        report = solve_exact(prior, score)
        assert report.scheme.signal_labels == want_labels
        assert _bytes(report.scheme.pi) == _bytes(want_pi)


@pytest.mark.parametrize("na, nb, k", ((4, 3, 8), (5, 2, 7)))
def test_arrangement_points_chunk_memory_stays_bounded(na, nb, k):
    """Over 100,000 subsets, in several chunks: the points are the frozen
    form's, which takes 65,536 subsets at a time, bit for bit, and the
    peak stays under 24 MB, where chunks of 65,536 subsets through
    ``_cross``'s widest level reach 36 MB at |A| = 4 and 76 MB at 5."""
    ue = np.random.default_rng(na).normal(size=(1 + nb, k, na))
    want = arrangement_points_frozen(ue)
    tracemalloc.start()
    try:
        points = exact_module._arrangement_points(ue)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _bytes(points) == _bytes(want)
    assert peak < 24_000_000


def test_merge_profiles_matches_frozen_bit_for_bit():
    """Support points that share profiles in any order, with -0.0 entries,
    which a pi row's sum from 0.0 turns into 0.0."""
    rng = np.random.default_rng(320)
    for na in (2, 3, 4):
        for _ in range(30):
            nb, k = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            ue = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(1 + nb, k, na))
            w = rng.dirichlet(np.ones(na), size=int(rng.integers(1, na + 1)))
            w[rng.random(w.shape) < 0.3] = -0.0
            w[int(rng.integers(w.shape[0]))] = w[0]
            weights = rng.random(w.shape[0])
            labels, pi = exact_module._merge_profiles(w, weights, ue)
            want_labels, want_pi = merge_profiles_frozen(w, weights, ue)
            assert labels == want_labels
            assert _bytes(pi) == _bytes(want_pi)


_NAMED_PRIORS = {"xor": instances.xor_instance,
                 "copy": instances.copy_instance,
                 "independent": instances.independent_instance}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), na=st.integers(1, 3), nb=st.integers(1, 3),
       ne=st.integers(2, 3))
def test_benchmarks_match_the_benchmark_schemes(data, na, nb, ne):
    """The full- and no-revelation objectives read from u_B at the vertices
    and at mu_A / M lie within 1e-12 of ``belief.sender_objective`` of the
    two benchmark schemes, and ``solve_exact`` classifies as the frozen
    comparison against those schemes does, on random priors (zero-mass
    outcomes included) and the bundled instances."""
    name = data.draw(st.sampled_from(["random", *_NAMED_PRIORS]))
    if name == "random":
        p = data.draw(arrays(float, (ne, na, nb), elements=_prior_entries))
        if p.sum() <= 0.0:
            p[0, 0, 0] = 1.0
        prior = JointPrior(p / p.sum())
    else:
        prior = _NAMED_PRIORS[name]()[1]
        ne = na = nb = 2
    kind = data.draw(st.sampled_from(["pieces", "quadratic", "log"]))
    if kind == "pieces":
        k = data.draw(st.integers(1, 6))
        r = data.draw(arrays(float, (k, ne), elements=_piece_entries))
        b = data.draw(arrays(float, (k,), elements=_piece_entries))
        score = piecewise_score(list(zip(r, b)))
    else:
        smooth = quadratic_score() if kind == "quadratic" else log_score()
        # up to 7 pieces at |E| = 2, 15 at |E| = 3
        score = linearize_smooth(smooth, default_tangent_grid(
            smooth, ne, data.draw(st.integers(3, 8 if ne == 2 else 4))))
    table = marginals_and_conditionals(prior)
    mu = table.mu_a
    u = _kernels.ub_grid_wa(np.vstack((np.eye(mu.size), mu / mu.sum())),
                            table, score)
    full, none = exact_module._benchmark_objectives(mu, u[:-1], u[-1])
    report = solve_exact(prior, score)
    want, want_full, want_none = classify_against_benchmarks_frozen(
        prior, score, report.diagnostics["lp_objective"])
    assert abs(full - want_full) <= 1e-12
    assert abs(none - want_none) <= 1e-12
    assert report.classification is want
