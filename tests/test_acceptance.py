"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from abasolve.belief import (alice_total_utility, bob_utility_from_wA,
                             bob_utility_of_scheme, sender_objective)
from abasolve.core import (Classification, SignalingScheme,
                           full_reveal_scheme, no_reveal_scheme, total_value)
from abasolve.exact import certify_obedience, classify_substitutes, solve_exact
from abasolve.fptas import (epsilon_for_delta, fptas_a_const, grid_size_K,
                            sample_k_uniform)
from abasolve.instances import (copy_instance, independent_instance,
                                xor_instance)
from abasolve.oracle import deviation_check, oracle_optimal
from abasolve.scoring import (expected_report_score, log_score,
                              quadratic_score)

from helpers import random_piecewise, random_prior, random_scheme


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def random_suite():
    """The 20 seeded random 2x2x2 instances shared by criteria 1, 3, 11."""
    out = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        prior = random_prior(rng, 2, 2, 2)
        k = int(rng.integers(1, 5))
        score = random_piecewise(rng, ne=2, k=k)
        out.append((prior, score))
    return out


@pytest.fixture(scope="module")
def solved_suite(random_suite):
    reports = {}
    t0 = time.time()
    for i, (prior, score) in enumerate(random_suite):
        exact_report = solve_exact(prior, score)
        oracle_report = oracle_optimal(prior, score, grid_step=1 / 50,
                                       max_signals=2)
        reports[i] = (exact_report, oracle_report)
    reports["elapsed"] = time.time() - t0
    return reports


def test_criterion_1_oracle_lp_agreement(random_suite, solved_suite):
    t0 = time.time()
    worst, worst_grid = 0.0, 0.0
    for i, (prior, score) in enumerate(random_suite):
        exact_report, oracle_report = solved_suite[i]
        lp_opt = exact_report.diagnostics["lp_objective"]
        diff = abs(lp_opt - oracle_report.sender_objective)
        worst = max(worst, diff)
        full = sender_objective(prior, score, full_reveal_scheme(prior))
        none = sender_objective(prior, score, no_reveal_scheme(prior))
        if abs(lp_opt - max(full, none)) <= 1e-9:
            # optimum exactly representable on the oracle grid
            worst_grid = max(worst_grid, diff)
    elapsed = solved_suite["elapsed"] + (time.time() - t0)
    ok = worst <= 1e-3 and worst_grid <= 1e-6 and elapsed <= 60.0
    _verdict(1, "oracle-LP agreement", ok,
             f"worst {worst:.3e}, on-grid {worst_grid:.3e}, {elapsed:.1f}s")


def test_criterion_2_golden_classifications():
    t0 = time.time()
    expected = {
        "xor": (xor_instance, Classification.COMPLEMENTS),
        "copy": (copy_instance, Classification.SUBSTITUTES),
        "independent": (independent_instance, Classification.INDIFFERENT),
    }
    got = {}
    for name, (builder, _) in expected.items():
        _, prior = builder()
        # tangent_k=20 linearizes the quadratic rule at 21 grid points
        got[name] = classify_substitutes(prior, quadratic_score(),
                                         tangent_k=20).classification
    elapsed = time.time() - t0
    ok = all(got[n] is expected[n][1] for n in expected) and elapsed <= 5.0
    _verdict(2, "golden classifications", ok,
             f"{ {n: c.value for n, c in got.items()} }, {elapsed:.1f}s")


def test_criterion_3_fptas_guarantee(random_suite, solved_suite):
    t0 = time.time()
    delta = 0.05
    worst_slack = -np.inf
    for i, (prior, score) in enumerate(random_suite):
        # documented cap override keeps the 20-run budget; a coarser grid
        # only raises the objective, so the bound below gets harder
        report = fptas_a_const(prior, score, delta, cap_grid_points=200_000)
        alpha, beta, _ = score.resolved_holder(prior.n_events)
        L = score.resolved_bound(prior.n_events)
        eps = epsilon_for_delta(delta, prior.n_bob, L, alpha, beta)
        bound = solved_suite[i][1].bob_utility + delta + 4 * L * eps
        worst_slack = max(worst_slack, report.bob_utility - bound)
    elapsed = time.time() - t0
    ok = worst_slack <= 1e-9 and elapsed <= 120.0
    _verdict(3, "FPTAS guarantee", ok,
             f"worst slack {worst_slack:.3e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def random_pairs():
    pairs = []
    rng = np.random.default_rng(2024)
    for i in range(100):
        prior = random_prior(rng, ne=2, na=2, nb=2)
        scheme = random_scheme(rng, prior, n_signals=int(rng.integers(1, 4)))
        score = quadratic_score() if i % 2 == 0 else log_score()
        pairs.append((prior, scheme, score))
    return pairs


def test_criterion_4_constant_sum(random_pairs):
    worst = 0.0
    for prior, scheme, score in random_pairs:
        gap = abs(alice_total_utility(prior, score, scheme) +
                  bob_utility_of_scheme(prior, score, scheme) -
                  total_value(prior, score))
        worst = max(worst, gap)
    _verdict(4, "constant-sum identity", worst <= 1e-9, f"worst {worst:.3e}")


def test_criterion_5_jensen(random_pairs):
    worst = min(bob_utility_of_scheme(prior, score, scheme)
                for prior, scheme, score in random_pairs)
    _verdict(5, "Jensen nonnegativity", worst >= -1e-9, f"min {worst:.3e}")


def test_criterion_6_deviation_chain():
    _, prior = xor_instance()
    quad = quadratic_score()
    full = full_reveal_scheme(prior)
    noise = SignalingScheme(("a0", "a1"),
                            np.vstack([prior.marginal_alice() / 2] * 2))
    report = deviation_check(prior, quad, full, noise)
    values = (report.details["u_b_cross"], report.details["u_b_star"],
              report.details["u_b_own"])
    ok = report.passed and \
        abs(values[0] + 0.5) <= 1e-9 and abs(values[1]) <= 1e-9 and \
        abs(values[2] - 0.5) <= 1e-9
    rng = np.random.default_rng(4096)
    holds = 0
    for _ in range(50):
        p = random_prior(rng, ne=2, na=2, nb=2)
        s1 = random_scheme(rng, p, int(rng.integers(1, 4)))
        s2 = random_scheme(rng, p, int(rng.integers(1, 4)))
        if sender_objective(p, quad, s1) > sender_objective(p, quad, s2):
            s1, s2 = s2, s1
        chain = deviation_check(p, quad, s1, s2)
        ok = ok and chain.passed
        holds += chain.passed
    _verdict(6, "deviation chain", ok,
             f"XOR values {tuple(round(v, 9) for v in values)}, "
             f"{holds}/50 random pairs")


def test_criterion_7_properness():
    rng = np.random.default_rng(8192)
    ok = True
    worst = np.inf
    for score in (quadratic_score(), log_score()):
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(n))
            w2 = rng.dirichlet(np.ones(n))
            gap = expected_report_score(score, w, w) - \
                expected_report_score(score, w2, w)
            ok = ok and gap >= 0.0
            if np.abs(w - w2).sum() >= 1e-3:
                worst = min(worst, gap)
                ok = ok and gap >= 1e-8
    _verdict(7, "properness", ok, f"min separated gap {worst:.3e}")


def test_criterion_8_continuity_bound():
    _, prior = xor_instance()
    quad = quadratic_score()
    alpha, beta, L = 2.0, 1.0, 1.0
    eps = 0.01
    radius = 0.5 * eps ** (1.0 / beta)
    bound = 3 * prior.n_bob * eps * L + 3 * alpha * eps ** (1 - beta) + 1e-9
    rng = np.random.default_rng(16384)
    worst = 0.0
    checked = 0
    while checked < 1000:
        w = rng.dirichlet((1.0, 1.0))
        step = rng.uniform(-radius, radius) / 2
        w2 = w + np.array([step, -step])
        if (w2 < 0).any() or (w2 > 1).any():
            continue
        gap = abs(bob_utility_from_wA(prior, quad, w) -
                  bob_utility_from_wA(prior, quad, w2))
        worst = max(worst, gap)
        checked += 1
    _verdict(8, "continuity bound", worst <= bound,
             f"worst {worst:.3e} <= {bound:.3e}")


def test_criterion_9_grid_monotonicity():
    quad = quadratic_score()
    ok = True
    for builder in (xor_instance, copy_instance, independent_instance):
        _, prior = builder()
        coarse = fptas_a_const(prior, quad, delta=0.05, grid_k=10)
        fine = fptas_a_const(prior, quad, delta=0.05, grid_k=20)
        ok = ok and fine.diagnostics["lp_objective"] <= \
            coarse.diagnostics["lp_objective"] + 1e-9
    _verdict(9, "grid monotonicity", ok)


def test_criterion_10_sampling_lemma():
    rng = np.random.default_rng(32768)
    w = np.array([0.3, 0.7])
    eps = 0.5
    k = grid_size_K(2, eps)
    assert k == 17
    draws = sample_k_uniform(w, k, 10_000, rng)
    frac = float((np.abs(draws - w).sum(axis=1) >= eps).mean())
    mean_err = float(np.abs(draws.mean(axis=0) - w).max())
    ok = frac <= 0.51 and mean_err <= 0.02
    _verdict(10, "sampling bound", ok,
             f"tail fraction {frac:.4f}, mean error {mean_err:.4f}")


def test_criterion_11_obedience_certification(random_suite, solved_suite):
    worst = 0.0
    for i, (prior, score) in enumerate(random_suite):
        report = solved_suite[i][0]
        worst = max(worst, certify_obedience(prior, score, report.scheme))
    _verdict(11, "obedience certification", worst <= 1e-7,
             f"worst violation {worst:.3e}")
