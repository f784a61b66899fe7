"""Acceptance suite: ten quantitative criteria, one test (and one
pass/fail line under -v) per criterion.

Each test prints a summary line with the measured margins so a tee'd run
documents not just pass/fail but how much headroom each criterion had.
"""

import math

import numpy as np
import pytest

from cdlab.analysis import (
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    fenchel_legendre,
    log_mgf,
    mixing_residual_curves,
    propagate_moments,
    rate_function,
    scaled_cumulant,
)
from cdlab.detectors import distributed_closed_form, distributed_init, distributed_step
from cdlab.experiment import (
    ExperimentPlan,
    compare_detectors,
    fit_exponent,
    run_monte_carlo,
    score_agreement,
)
from cdlab.model import Hypothesis, build_model, local_innovations, sample_observations
from cdlab.network import check_geometric_decay, validate_assumption
from cdlab.scenarios import CORPUS, build_scenario

H0, H1 = Hypothesis.H0, Hypothesis.H1

# scenarios with network sizes 1, 2, 3, 5, 8 for the consensus identity
CONSENSUS_SCENARIOS = ("n1", "identity2", "ref3", "rand5", "n8")


def test_criterion_01_chernoff_closed_form():
    identity_model, _, _ = build_scenario("identity2")
    correlated_model, _, _ = build_scenario("correlated2")
    assert chernoff_information(identity_model) == 0.25
    err = abs(chernoff_information(correlated_model) - 1.0 / 6.0)
    assert err <= 1e-12
    print(f"[criterion 01] PASS: identity exact 0.25; correlated error {err:.2e} <= 1e-12")


def test_criterion_02_rate_function_duality():
    worst = 0.0
    for name in ("identity2", "correlated2", "ref3"):
        model, _, _ = build_scenario(name)
        sigma = math.sqrt(model.llr_variance)
        grid = np.linspace(model.llr_mean0 - 2 * sigma, model.llr_mean1 + 2 * sigma, 41)
        for hyp in (H0, H1):
            for t in grid:
                dual = fenchel_legendre(lambda lam: log_mgf(model, hyp, lam), float(t))
                worst = max(worst, abs(dual - rate_function(model, hyp, float(t))))
    assert worst <= 1e-6
    print(f"[criterion 02] PASS: max duality gap {worst:.2e} <= 1e-6 (3 models, both hypotheses, 41-point grids)")


def test_criterion_03_mean_consensus_identity():
    n_trials, k_max = 1000, 1000
    worst = 0.0
    for name in CONSENSUS_SCENARIOS:
        model, schedule, _ = build_scenario(name)
        n = model.n_sensors
        rng = np.random.default_rng(32003)
        x = d = None
        for k in range(1, k_max + 1):
            etas = local_innovations(model, sample_observations(model, H1, rng, n_trials))
            score = etas.sum(axis=1)
            if k == 1:
                x = n * etas
                d = score
            else:
                x = ((k - 1) / k) * (x @ schedule.weight_at(k - 1).T) + (n / k) * etas
                d = ((k - 1) * d + score) / k
            gap = np.abs(x.mean(axis=1) - d) / np.maximum(1.0, np.abs(d))
            worst = max(worst, float(gap.max()))
            assert gap.max() <= 1e-10, f"{name}: consensus identity broken at k={k}"
    print(f"[criterion 03] PASS: worst relative node-average vs centralized gap {worst:.2e} <= 1e-10 "
          f"(1000 trials, k <= 1000, N in 1/2/3/5/8)")


def test_criterion_04_contraction_envelope():
    checked = []
    for name in CORPUS:
        _, schedule, _ = build_scenario(name)
        assert validate_assumption(schedule).passed
        report = check_geometric_decay(schedule, max_gap=200)  # raises on any violation
        assert report.passed
        assert report.worst_ratio <= 1.0
        checked.append(f"{name}:{report.worst_ratio:.3f}")
    print(f"[criterion 04] PASS: zero envelope violations over gaps 1..200; "
          f"worst measured/bound ratios {', '.join(checked)}")


def test_criterion_05_closed_form_equals_recursion():
    model, schedule, _ = build_scenario("ref3")
    rng = np.random.default_rng(32005)
    worst = 0.0
    for _ in range(100):
        ys = sample_observations(model, H1, rng, 50)
        state = distributed_init(model, ys[0])
        for k in range(1, 50):
            state = distributed_step(state, model, schedule, ys[k])
        direct = distributed_closed_form(model, schedule, ys)
        worst = max(worst, float(np.abs(state.x - direct).max()))
    assert worst <= 1e-10
    print(f"[criterion 05] PASS: max |recursion - closed form| {worst:.2e} <= 1e-10 "
          f"(100 random 50-step streams)")


def test_criterion_06_moments_match_monte_carlo():
    model, schedule, _ = build_scenario("ref3")
    assert schedule.window == 2
    n_trials, checkpoints = 100_000, (5, 50)
    rng = np.random.default_rng(32006)
    traj = propagate_moments(model, schedule, max(checkpoints), keep=checkpoints)
    x = None
    worst = 0.0
    for k in range(1, max(checkpoints) + 1):
        etas = local_innovations(model, sample_observations(model, H1, rng, n_trials))
        if k == 1:
            x = 3.0 * etas
        else:
            x = ((k - 1) / k) * (x @ schedule.weight_at(k - 1).T) + (3.0 / k) * etas
        if k in checkpoints:
            mu, p = traj.mean_at(k), traj.cov_at(k)
            emp_mu = x.mean(axis=0)
            emp_p = np.cov(x.T)
            for i in range(3):
                se = math.sqrt(p[i, i] / n_trials)
                pull = abs(emp_mu[i] - mu[i]) / se
                worst = max(worst, pull)
                assert pull <= 4.0, f"mean node {i + 1} at k={k}: {pull:.2f} se"
                for j in range(3):
                    se_c = math.sqrt((p[i, i] * p[j, j] + p[i, j] ** 2) / n_trials)
                    pull_c = abs(emp_p[i, j] - p[i, j]) / se_c
                    worst = max(worst, pull_c)
                    assert pull_c <= 4.0, f"cov ({i + 1},{j + 1}) at k={k}: {pull_c:.2f} se"
    print(f"[criterion 06] PASS: all moment pulls <= 4 se at k in {{5, 50}} "
          f"(worst {worst:.2f} se, 1e5 trials, window-2 reference scenario)")


def test_criterion_07_per_node_rate_gap():
    lines = []
    for name in ("ref3", "rand5"):
        model, schedule, config = build_scenario(name)
        plan = ExperimentPlan(
            model=model, schedule=schedule, k_checkpoints=(1,), n_trials=1, master_seed=0
        )
        report = compare_detectors(plan, k_early=100, k_late=500, gap_tolerance=0.02)
        assert report["verdict"] == "pass", f"{name}: {report}"
        for entry in report["nodes"]:
            assert entry["within_tolerance"], f"{name} node {entry['node']}"
            assert entry["gap_shrinks"], f"{name} node {entry['node']}"
        worst = max(e["gap_late"] for e in report["nodes"])
        lines.append(f"{name} worst gap(500) {worst:.2e} vs tolerance {report['gap_tolerance']:.2e}")
    print(f"[criterion 07] PASS: {'; '.join(lines)}")


def test_criterion_08_exponent_trend_toward_chernoff():
    """Fitted decay rates over nested windows [k, 2k] approach C monotonically.

    The exact Gaussian tail satisfies Q(x) < exp(-x^2/2), so pe(k) <
    exp(-k C) and every finite-window fit sits above C, decreasing toward
    it; the approach is monotone and the last window must land within 15%
    of C.  (Stated with the correct approach direction; an increase toward
    C from below is impossible for this curve.)
    """
    model, _, _ = build_scenario("ref3")
    c = chernoff_information(model)
    curve = centralized_error_curve(model, np.arange(1, 2049))
    rates = [fit_exponent(curve, (k, 2 * k)).rate for k in (64, 128, 256, 512, 1024)]
    gaps = [abs(r - c) for r in rates]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), f"approach not monotone: {rates}"
    assert rates[-1] >= 0.85 * c
    assert all(np.isfinite(rates))
    print(f"[criterion 08] PASS: |rate - C| monotone over nested windows "
          f"({', '.join(f'{r / c:.4f}C' for r in rates)}); last {rates[-1] / c:.4f}C >= 0.85C")


def test_criterion_09_residual_bound_and_cumulant_limit():
    model, schedule, _ = build_scenario("ref3")
    sig2 = model.llr_variance
    mus = (-1.0, -0.1, 0.1, 1.0)
    worst_ratio = 0.0
    for hyp in (H0, H1):
        ks, values, bounds = mixing_residual_curves(model, schedule, 500, mus, hypothesis=hyp)
        for mu, mu_values, mu_bounds in zip(mus, values, bounds):
            assert np.all(np.abs(mu_values) <= mu_bounds[:, None]), f"mu={mu} hyp={int(hyp)}"
            worst_ratio = max(worst_ratio, float((np.abs(mu_values) / mu_bounds[:, None]).max()))
    traj = propagate_moments(model, schedule, 1000)
    worst_final = 0.0
    for mu in mus:
        limit = model.llr_mean1 * mu + sig2 * mu * mu / 2.0
        gaps = []
        for k in (10, 100, 1000):
            gap = max(
                abs(scaled_cumulant(model, schedule, H1, k, mu, node, trajectory=traj) - limit)
                for node in (1, 2, 3)
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2], f"mu={mu}: no decreasing trend {gaps}"
        tol = 2e-3 * max(1.0, mu * mu * sig2)
        assert gaps[2] <= tol, f"mu={mu}: final gap {gaps[2]:.2e} > {tol:.2e}"
        worst_final = max(worst_final, gaps[2] / tol)
    print(f"[criterion 09] PASS: |residual| <= bound for all mu/node/hypothesis on k in [2, 500] "
          f"(worst |value|/bound {worst_ratio:.1e}); cumulant limit gap decreasing, "
          f"final <= {worst_final:.2f}x tolerance at k=1000")


def test_criterion_10_monte_carlo_agreement():
    n_trials, sigma, min_prob = 100_000, 3.0, 1e-3
    cells = passing = 0
    per_scenario = []
    for name in CORPUS:
        model, schedule, config = build_scenario(name)
        plan = ExperimentPlan(
            model=model,
            schedule=schedule,
            k_checkpoints=tuple(config.checkpoints),
            n_trials=n_trials,
            master_seed=config.master_seed,
        )
        result = run_monte_carlo(plan)
        k_max = int(result.ks.max())
        exact_nodes = exact_error_curves(model, propagate_moments(model, schedule, k_max), ks=result.ks)
        exact_cen = centralized_error_curve(model, result.ks)
        local_cells = local_passing = 0
        pairs = list(zip(exact_nodes, result.node_curves))
        pairs.append((exact_cen, result.centralized_curve))
        for exact, estimate in pairs:
            for pos in range(exact.ks.size):
                for p, p_hat in (
                    (float(exact.alpha[pos]), float(estimate.alpha[pos])),
                    (float(exact.beta[pos]), float(estimate.beta[pos])),
                ):
                    if p < min_prob:
                        continue
                    local_cells += 1
                    se = math.sqrt(p * (1.0 - p) / n_trials)
                    if abs(p_hat - p) <= sigma * se:
                        local_passing += 1
        scored = score_agreement(pairs, n_trials, min_prob, sigma)
        assert scored[:2] == (local_cells, local_passing), name
        cells += local_cells
        passing += local_passing
        per_scenario.append(f"{name} {local_passing}/{local_cells}")
    fraction = passing / cells
    assert fraction >= 0.99, f"agreement fraction {fraction:.4f} < 0.99 ({per_scenario})"
    print(f"[criterion 10] PASS: {passing}/{cells} cells within 3 binomial se "
          f"({fraction:.2%} >= 99%; per scenario: {', '.join(per_scenario)})")
