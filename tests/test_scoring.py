import math

import numpy as np
import pytest

from abasolve.errors import BoundaryTangent, ValidationError
from abasolve.scoring import (HolderParams, ScoreKind, ScoreSpec,
                              check_holder, default_tangent_grid, eval_G,
                              expected_report_score, holder_from_niceness,
                              linearize_smooth, log_score, piecewise_score,
                              quadratic_score, score_R, spherical_score)

from helpers import (SCORES, duplicate_piece_indices_loop,
                     expected_report_score_ref, linearize_smooth_loop,
                     random_piecewise, random_simplex)

LN_HALF = -0.6931471805599453


def test_eval_G_quadratic():
    q = quadratic_score()
    assert eval_G(q, np.array([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)
    assert eval_G(q, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_eval_G_log_boundary():
    lg = log_score()
    assert eval_G(lg, np.array([0.5, 0.5])) == pytest.approx(LN_HALF, abs=1e-9)
    # boundary point evaluates the limit 0*log 0 = 0
    assert eval_G(lg, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_eval_G_spherical():
    sp = spherical_score()
    assert eval_G(sp, np.array([0.5, 0.5])) == pytest.approx(math.sqrt(0.5))


def test_score_R_quadratic():
    q = quadratic_score()
    # 2*0.7 - (0.49 + 0.09)
    assert score_R(q, np.array([0.7, 0.3]), 0) == pytest.approx(0.82, abs=1e-12)


def test_score_R_log():
    lg = log_score()
    w = np.array([0.5, 0.5])
    assert score_R(lg, w, 0) == pytest.approx(LN_HALF, abs=1e-9)
    assert score_R(lg, w, 1) == pytest.approx(LN_HALF, abs=1e-9)
    assert score_R(lg, np.array([1.0, 0.0]), 1) == float("-inf")


@pytest.mark.parametrize("e", [-1, 3])
def test_score_R_refuses_out_of_range_event(e):
    # -1 would score the last event, 3 = |E| is past the end
    with pytest.raises(ValidationError,
                       match=rf"event e={e} is out of range \[0, 3\)"):
        score_R(quadratic_score(), np.array([0.2, 0.3, 0.5]), e)


def test_properness_identity_all_kinds():
    rng = np.random.default_rng(3)
    scores = [quadratic_score(), log_score(), spherical_score(),
              random_piecewise(rng, ne=3, k=4)]
    for score in scores:
        for _ in range(50):
            w = random_simplex(rng, 3)
            expect = sum(w[e] * score_R(score, w, e) for e in range(3))
            assert expected_report_score(score, w, w) == \
                pytest.approx(eval_G(score, w), abs=1e-9)
            assert expect == pytest.approx(eval_G(score, w), abs=1e-9)


def test_properness_strict():
    rng = np.random.default_rng(5)
    for score in (quadratic_score(), log_score()):
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            w = random_simplex(rng, n)
            w2 = random_simplex(rng, n)
            gap = expected_report_score(score, w, w) - \
                expected_report_score(score, w2, w)
            assert gap >= 0.0
            if np.abs(w - w2).sum() > 1e-6:
                assert gap > 0.0


def test_decision_problem_from_pieces():
    score = piecewise_score([((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0)])
    u = score.utilities
    assert u.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    # max-affine reconstruction at the uniform point
    p = np.array([0.5, 0.5])
    assert max(float(u[i] @ p) for i in range(2)) == \
        pytest.approx(eval_G(score, p), abs=1e-12) == 0.0


def test_decision_problem_single_piece():
    score = piecewise_score([((0.0, 0.0), 0.0)])
    assert score.utilities.tolist() == [[0.0, 0.0]]
    assert eval_G(score, np.array([0.3, 0.7])) == 0.0


def test_decision_problem_reconstruction_random():
    rng = np.random.default_rng(9)
    score = random_piecewise(rng, ne=3, k=5)
    u = score.utilities
    for _ in range(1000):
        p = random_simplex(rng, 3)
        expect = float((u @ p).max())
        assert eval_G(score, p) == pytest.approx(expect, abs=1e-9)


def test_linearize_tangency():
    q = quadratic_score()
    lin = linearize_smooth(q, [np.array([0.5, 0.5])])
    assert eval_G(lin, np.array([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)


def test_linearize_three_tangents():
    q = quadratic_score()
    pts = [np.array([0.25, 0.75]), np.array([0.5, 0.5]),
           np.array([0.75, 0.25])]
    lin = linearize_smooth(q, pts)
    # tangent planes at (0.6, 0.4) reach 0.275, 0.5, 0.475
    val = eval_G(lin, np.array([0.6, 0.4]))
    assert val == pytest.approx(0.5, abs=1e-12)
    assert val <= eval_G(q, np.array([0.6, 0.4])) + 1e-12 == \
        pytest.approx(0.52, abs=1e-12)


def test_linearize_single_tangent_strict_underestimate():
    q = quadratic_score()
    lin = linearize_smooth(q, [np.array([0.5, 0.5])])
    assert eval_G(lin, np.array([0.9, 0.1])) < eval_G(q, np.array([0.9, 0.1]))


def test_linearize_lower_bound_property():
    rng = np.random.default_rng(13)
    for score in (quadratic_score(), log_score()):
        pts = [random_simplex(rng, 3) * 0.98 + 0.01 / 3 for _ in range(5)]
        lin = linearize_smooth(score, pts)
        for _ in range(1000):
            p = random_simplex(rng, 3)
            assert eval_G(lin, p) <= eval_G(score, p) + 1e-9
        for p in pts:
            assert eval_G(lin, p) == pytest.approx(eval_G(score, p), abs=1e-9)


def test_linearize_log_boundary_tangent():
    with pytest.raises(BoundaryTangent):
        linearize_smooth(log_score(), [np.array([1.0, 0.0])])
    # the message names the first boundary point
    pts = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(BoundaryTangent, match=r"\[0\.0, 1\.0\]"):
        linearize_smooth(log_score(), pts)


def test_default_tangent_grid_sizes():
    assert default_tangent_grid(quadratic_score(), 2, 20).shape == (21, 2)
    assert default_tangent_grid(log_score(), 2, 20).shape == (19, 2)


def test_check_holder_quadratic_passes():
    score = quadratic_score(holder=HolderParams(2.0, 1.0, 0.5))
    assert check_holder(score, n_events=2, sample_pairs=1000).passed


def test_check_holder_bad_alpha_fails_with_witness():
    score = quadratic_score(holder=HolderParams(0.1, 1.0, 0.5))
    report = check_holder(score, n_events=2, sample_pairs=1000, rng_seed=1)
    assert not report.passed
    x, y = report.witness["x"], report.witness["y"]
    gap = abs(eval_G(quadratic_score(), x) - eval_G(quadratic_score(), y))
    assert gap > 0.1 * np.abs(x - y).sum() + 1e-9


def test_holder_from_niceness():
    assert holder_from_niceness(1.0, 2) == (1.0, 1.0)
    assert holder_from_niceness(0.5, 4) == (2.0, 0.5)
    for n in (2, 5, 11):
        assert holder_from_niceness(1.0, n)[0] == 1.0


def test_niceness_of_builtin_g():
    # quadratic: g(x) = x^2 - x is 1-nice
    g = lambda x: x * x - x
    eps = np.linspace(1e-6, 1.0, 300)
    assert g(0.0) == g(1.0) == 0.0
    assert np.all(np.maximum(np.abs(g(eps)), np.abs(g(1 - eps))) <= eps + 1e-12)
    # log: g(x) = x ln x satisfies the bound at lambda = 0.6 everywhere
    # (at lambda = 0.9 it fails for moderate eps; see the decisions ledger)
    gl = lambda x: np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    eps = np.linspace(1e-9, 0.01, 300)
    assert np.all(np.maximum(np.abs(gl(eps)), np.abs(gl(1 - eps)))
                  <= eps ** 0.6 + 1e-12)
    assert abs(gl(0.01)) > 0.01 ** 0.9  # the 0.9 claim is numerically false


def test_resolved_holder_requires_user_params_for_spherical():
    with pytest.raises(ValidationError):
        spherical_score().resolved_holder(2)
    sp = spherical_score(holder=HolderParams(1.0, 1.0, 0.5))
    assert sp.resolved_holder(2) == (1.0, 1.0, 0.5)
    assert sp.resolved_bound(2) == 1.0


@pytest.mark.parametrize("value", (math.inf, math.nan, 0.0, -1.0))
def test_holder_alpha_and_bound_L_must_be_finite_and_positive(value):
    with pytest.raises(ValidationError, match="holder parameters"):
        HolderParams(value, 1.0)
    with pytest.raises(ValidationError, match="finite and positive"):
        ScoreSpec(ScoreKind.QUADRATIC, bound_L=value)


def test_piecewise_requires_pieces():
    with pytest.raises(ValidationError):
        piecewise_score([])
    with pytest.raises(ValidationError):
        quadratic_score().__class__(ScoreKind.QUADRATIC,
                                    pieces_r=np.ones((1, 2)),
                                    pieces_b=np.zeros(1))


def test_duplicate_piece_indices_matches_pairwise_loop():
    # small integer coefficients plant many copies, and "*= -0.0" zeroes
    # entries with both signs: -0.0 must group with 0.0, as == groups them
    rng = np.random.default_rng(31)
    for ne, k in ((1, 1), (2, 2), (2, 9), (3, 40), (2, 200)):
        r = rng.integers(-1, 2, size=(k, ne)).astype(float)
        b = rng.integers(-1, 2, size=k).astype(float)
        r[rng.random(r.shape) < 0.3] *= -0.0
        b[rng.random(k) < 0.3] *= -0.0
        score = ScoreSpec(ScoreKind.PIECEWISE, r, b)
        want = duplicate_piece_indices_loop(score)
        assert score.duplicate_piece_indices() == want
        if k >= 9:
            assert want
    signed = piecewise_score([((0.0, -0.0), 0.0), ((-0.0, 0.0), -0.0),
                              ((0.0, 0.0), 1.0), ((-0.0, -0.0), 0.0)])
    assert signed.duplicate_piece_indices() == [(0, 1), (0, 3), (1, 3)]
    assert quadratic_score().duplicate_piece_indices() == []


def _report_pairs(rng, ne):
    """(reports, beliefs) rows: interior, boundary zeros on either side (a
    log report with a zero where the belief is positive scores -inf), and
    dyadic points where tied pieces meet."""
    w = rng.dirichlet(np.ones(ne), size=40)
    q = rng.dirichlet(np.ones(ne), size=40)
    w[:10, 0] = 0.0
    q[5:15, -1] = 0.0
    w[20:25] = np.eye(ne)[rng.integers(ne, size=5)]
    w[25:30] = 1.0 / ne
    w, q = w / w.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)
    return w, q


@pytest.mark.parametrize("kind", list(SCORES) + ["tied"])
def test_expected_report_score_rows_match_scalar_reference(kind):
    rng = np.random.default_rng(239)
    for ne in (2, 3, 4):
        if kind == "tied":
            # two copies of each piece, and pieces meeting at the centre
            pieces = [(np.eye(ne)[e], 0.0) for e in range(ne)] * 2
            score = piecewise_score(pieces)
        else:
            score = SCORES[kind](rng, ne)
        w, q = _report_pairs(rng, ne)
        want = [expected_report_score_ref(score, wi, qi)
                for wi, qi in zip(w, q)]
        got = expected_report_score(score, w, q)
        assert got.shape == (40,)
        for g, r in zip(got, want):
            assert g == r or abs(g - r) <= 1e-12, (g, r)
        single = expected_report_score(score, w[0], q[0])
        assert isinstance(single, float)
        assert single == want[0] or abs(single - want[0]) <= 1e-12
        if kind == "log":
            assert np.isneginf(got).any()


@pytest.mark.parametrize("kind", list(SCORES))
def test_expected_report_score_refuses_unequal_lengths(kind):
    score = SCORES[kind](np.random.default_rng(241), 3)
    report, belief = np.full(3, 1 / 3), np.array([0.5, 0.5])
    for w, q, n_w, n_q in ((report, belief, 3, 2), (belief, report, 2, 3),
                           (np.tile(report, (4, 1)), np.tile(belief, (4, 1)),
                            3, 2)):
        with pytest.raises(ValidationError, match=f"report length {n_w} and "
                           f"belief length {n_q} differ"):
            expected_report_score(score, w, q)


@pytest.mark.parametrize("score", [quadratic_score(), log_score(),
                                   spherical_score()],
                         ids=["quadratic", "log", "spherical"])
def test_linearize_smooth_matches_loop_reference(score):
    for ne, k in ((2, 20), (3, 9), (4, 6)):
        grid = default_tangent_grid(score, ne, k)
        lin = linearize_smooth(score, grid)
        slopes, offsets = linearize_smooth_loop(score, grid)
        assert lin.pieces_r == pytest.approx(slopes, abs=1e-12)
        assert lin.pieces_b == pytest.approx(offsets, abs=1e-12)
        assert linearize_smooth(score, list(grid)).pieces_r == \
            pytest.approx(slopes, abs=1e-12)


def test_linearize_rejects_origin_and_empty():
    with pytest.raises(ValidationError, match="origin"):
        linearize_smooth(spherical_score(), np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="at least one"):
        linearize_smooth(quadratic_score(), [])
