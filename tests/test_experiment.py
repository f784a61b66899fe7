"""Tests for the Monte Carlo engine, exponent fits and comparison reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cdlab.analysis import ErrorCurve, propagate_moments, exact_error_curves
from cdlab.detectors import centralized_init, centralized_step, distributed_init, distributed_step
from cdlab.errors import (
    InsufficientPoints,
    ParameterError,
    ShapeError,
    ZeroProbabilityInWindow,
)
from cdlab.experiment import (
    CHUNK_TRIALS,
    ExperimentPlan,
    compare_detectors,
    fit_exponent,
    run_monte_carlo,
    score_agreement,
    subexponential_factor,
)
from cdlab.model import Hypothesis, build_model
from cdlab.network import ScheduleSpec, build_schedule

H0, H1 = Hypothesis.H0, Hypothesis.H1


def alt3_scenario():
    model = build_model(
        np.zeros(3), 0.6 * np.ones(3), [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
    )
    schedule = build_schedule(
        ScheduleSpec(n_nodes=3, topology="alternating-links", link_cycle=(((1, 2),), ((2, 3),)))
    )
    return model, schedule


def alt3_plan(**overrides):
    model, schedule = alt3_scenario()
    base = dict(
        model=model,
        schedule=schedule,
        k_checkpoints=(1, 2, 5),
        n_trials=300,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def synthetic_curve(ks, log_pe):
    ks = np.asarray(ks, dtype=int)
    log_pe = np.asarray(log_pe, dtype=float)
    return ErrorCurve(
        node="syn",
        ks=ks,
        log_alpha=log_pe.copy(),
        log_beta=log_pe.copy(),
        log_pe=log_pe,
        priors=(0.5, 0.5),
        source="synthetic",
    )


# ── plan validation ───────────────────────────────────────────────────────


class TestExperimentPlan:
    def test_checkpoints_sorted_and_deduplicated(self):
        plan = alt3_plan(k_checkpoints=(5, 1, 2, 5))
        assert plan.k_checkpoints == (1, 2, 5)

    def test_bad_checkpoints_rejected(self):
        with pytest.raises(ParameterError):
            alt3_plan(k_checkpoints=())
        with pytest.raises(ParameterError):
            alt3_plan(k_checkpoints=(0, 3))

    def test_bad_trials_and_seed_rejected(self):
        with pytest.raises(ParameterError):
            alt3_plan(n_trials=0)
        with pytest.raises(ParameterError):
            alt3_plan(master_seed=-1)

    def test_bad_priors_rejected(self):
        with pytest.raises(ParameterError):
            alt3_plan(priors=(0.5, 0.6))
        with pytest.raises(ParameterError):
            alt3_plan(priors=(0.0, 1.0))

    def test_size_mismatch_rejected(self):
        model = build_model([0.0, 0.0], [1.0, 1.0], np.eye(2))
        _, schedule = alt3_scenario()
        with pytest.raises(ShapeError):
            ExperimentPlan(
                model=model,
                schedule=schedule,
                k_checkpoints=(1,),
                n_trials=10,
                master_seed=0,
            )


# ── the Monte Carlo engine ────────────────────────────────────────────────


class TestRunMonteCarlo:
    def test_counts_match_per_trial_replica(self):
        """Bitwise agreement with a scalar re-simulation from the same keys.

        The replica draws the documented noise block per (hypothesis, step,
        chunk), hands row t to the step-by-step detector API, and counts
        wrong decisions at the same checkpoints.
        """
        plan = alt3_plan()
        result = run_monte_carlo(plan, threads=1)
        model, schedule = plan.model, plan.schedule
        n = model.n_sensors
        for hyp in (H0, H1):
            mean = model.mean(hyp)
            blocks = {
                k: np.random.default_rng((plan.master_seed, int(hyp), k, 0)).standard_normal(
                    (plan.n_trials, n)
                )
                for k in range(1, 6)
            }
            node_counts = np.zeros((3, n), dtype=int)
            cen_counts = np.zeros(3, dtype=int)
            for t in range(plan.n_trials):
                ys = {k: mean + blocks[k][t] @ model.noise_chol.T for k in blocks}
                dist = distributed_init(model, ys[1])
                cen = centralized_step(centralized_init(model), model, ys[1])
                for pos, k_stop in enumerate(plan.k_checkpoints):
                    while dist.k < k_stop:
                        dist = distributed_step(dist, model, schedule, ys[dist.k + 1])
                        cen = centralized_step(cen, model, ys[cen.k + 1])
                    wrong_dist = dist.x > 0.0 if hyp == H0 else dist.x <= 0.0
                    wrong_cen = cen.value > 0.0 if hyp == H0 else cen.value <= 0.0
                    node_counts[pos] += wrong_dist
                    cen_counts[pos] += int(wrong_cen)
            if hyp == H0:
                assert np.array_equal(result.false_alarm_counts, node_counts)
                assert np.array_equal(result.cen_false_alarm_counts, cen_counts)
            else:
                assert np.array_equal(result.miss_counts, node_counts)
                assert np.array_equal(result.cen_miss_counts, cen_counts)

    def test_thread_count_does_not_change_counts(self, monkeypatch):
        # an ambient operator cap would silently collapse the pooled run
        monkeypatch.delenv("CDL_THREADS", raising=False)
        plan = alt3_plan(n_trials=2 * CHUNK_TRIALS + 500, k_checkpoints=(2, 6))
        serial = run_monte_carlo(plan, threads=1)
        pooled = run_monte_carlo(plan, threads=4)
        assert pooled.threads > 1
        assert np.array_equal(serial.false_alarm_counts, pooled.false_alarm_counts)
        assert np.array_equal(serial.miss_counts, pooled.miss_counts)
        assert np.array_equal(serial.cen_false_alarm_counts, pooled.cen_false_alarm_counts)
        assert np.array_equal(serial.cen_miss_counts, pooled.cen_miss_counts)
        assert serial.n_chunks == 3

    def test_repeat_run_is_bitwise_identical(self):
        plan = alt3_plan(n_trials=1000, k_checkpoints=(3, 9))
        a = run_monte_carlo(plan)
        b = run_monte_carlo(plan)
        assert np.array_equal(a.false_alarm_counts, b.false_alarm_counts)
        assert np.array_equal(a.miss_counts, b.miss_counts)
        assert a.paired_gap == b.paired_gap

    def test_seed_changes_counts(self):
        base = run_monte_carlo(alt3_plan(n_trials=2000, k_checkpoints=(4,)))
        other = run_monte_carlo(alt3_plan(n_trials=2000, k_checkpoints=(4,), master_seed=8))
        assert not np.array_equal(base.false_alarm_counts, other.false_alarm_counts)

    def test_paired_statistics_agree(self):
        """Node average of the consensus state is the centralized statistic."""
        result = run_monte_carlo(alt3_plan(n_trials=4000, k_checkpoints=(1, 7, 30)))
        assert result.paired_gap <= 1e-9

    def test_estimates_track_exact_curves(self):
        """Each empirical rate within 4 exact-binomial stderr, 20000 trials."""
        model, schedule = alt3_scenario()
        plan = ExperimentPlan(
            model=model,
            schedule=schedule,
            k_checkpoints=(5, 25),
            n_trials=20_000,
            master_seed=11,
        )
        result = run_monte_carlo(plan)
        exact = exact_error_curves(model, propagate_moments(model, schedule, 25), ks=[5, 25])
        for i, curve in enumerate(exact):
            mc = result.node_curves[i]
            for pos in range(2):
                for p, p_hat in (
                    (curve.alpha[pos], mc.alpha[pos]),
                    (curve.beta[pos], mc.beta[pos]),
                ):
                    se = math.sqrt(p * (1.0 - p) / plan.n_trials)
                    assert abs(p_hat - p) <= 4.0 * se

    def test_zero_counts_get_rule_of_three(self):
        model = build_model(np.zeros(2), 20.0 * np.ones(2), np.eye(2))
        schedule = build_schedule(ScheduleSpec(n_nodes=2, topology="static", edges=((1, 2),)))
        plan = ExperimentPlan(
            model=model,
            schedule=schedule,
            k_checkpoints=(5, 6),
            n_trials=100,
            master_seed=3,
        )
        result = run_monte_carlo(plan)
        assert result.false_alarm_counts.max() == 0
        curve = result.node_curves[0]
        assert np.all(curve.se_alpha == 3.0 / plan.n_trials)
        assert np.all(np.isneginf(curve.log_alpha))
        assert np.all(curve.alpha == 0.0)

    def test_single_trial_is_bernoulli(self):
        result = run_monte_carlo(alt3_plan(n_trials=1, k_checkpoints=(3,)))
        for curve in result.node_curves + (result.centralized_curve,):
            assert curve.alpha[0] in (0.0, 1.0)
            assert curve.beta[0] in (0.0, 1.0)

    def test_curve_lookup_by_node(self):
        result = run_monte_carlo(alt3_plan())
        assert result.curve(2).node == "2"
        assert result.curve("cen") is result.centralized_curve
        with pytest.raises(KeyError):
            result.curve(9)

    def test_thread_env_cap(self, monkeypatch):
        monkeypatch.setenv("CDL_THREADS", "1")
        plan = alt3_plan(n_trials=CHUNK_TRIALS + 10)
        assert run_monte_carlo(plan).threads == 1
        monkeypatch.setenv("CDL_THREADS", "zebra")
        with pytest.raises(ParameterError):
            run_monte_carlo(plan)
        monkeypatch.setenv("CDL_THREADS", "0")
        with pytest.raises(ParameterError):
            run_monte_carlo(plan)


# ── exponent fits ─────────────────────────────────────────────────────────


class TestFitExponent:
    def test_exact_line_recovered(self):
        ks = np.arange(10, 101, 10)
        curve = synthetic_curve(ks, -0.3 * ks + 1.2)
        fit = fit_exponent(curve, (10, 100))
        assert fit.rate == pytest.approx(0.3, rel=1e-12)
        assert fit.intercept == pytest.approx(1.2, rel=1e-12)
        assert fit.residual <= 1e-12
        assert fit.n_points == ks.size
        assert fit.window == (10, 100)

    def test_window_restricts_points(self):
        ks = np.arange(1, 21)
        log_pe = np.where(ks <= 10, -1.0 * ks, -2.0 * ks)
        fit = fit_exponent(synthetic_curve(ks, log_pe), (11, 20))
        assert fit.rate == pytest.approx(2.0, rel=1e-12)
        assert fit.n_points == 10

    def test_zero_estimates_are_dropped(self):
        ks = np.arange(10, 61, 10)
        log_pe = (-0.5 * ks).astype(float)
        log_pe[2] = -np.inf
        fit = fit_exponent(synthetic_curve(ks, log_pe), (10, 60))
        assert fit.rate == pytest.approx(0.5, rel=1e-12)
        assert fit.n_points == ks.size - 1

    def test_too_few_checkpoints(self):
        curve = synthetic_curve([5, 50, 70], [-1.0, -10.0, -14.0])
        with pytest.raises(InsufficientPoints):
            fit_exponent(curve, (1, 4))
        with pytest.raises(InsufficientPoints):
            fit_exponent(curve, (40, 60))
        with pytest.raises(InsufficientPoints):
            fit_exponent(curve, (40, 80))

    def test_all_zero_window(self):
        curve = synthetic_curve(
            [5, 6, 7, 8], [-np.inf, -np.inf, -1.0, -2.0]
        )
        with pytest.raises(ZeroProbabilityInWindow):
            fit_exponent(curve, (5, 8))

    def test_bad_window_rejected(self):
        curve = synthetic_curve([5, 6, 7], [-1.0, -2.0, -3.0])
        with pytest.raises(ParameterError):
            fit_exponent(curve, (0, 7))
        with pytest.raises(ParameterError):
            fit_exponent(curve, (7, 7))

    def test_polynomial_prefactor_biases_rate_down(self):
        """pe = k e^{-k/4}: the fitted rate undershoots 1/4 and recovers
        as the window moves right."""
        ks = np.arange(100, 4001)
        curve = synthetic_curve(ks, np.log(ks) - 0.25 * ks)
        near = fit_exponent(curve, (100, 500))
        far = fit_exponent(curve, (2000, 4000))
        assert 0.2 < near.rate < 0.25
        assert near.rate < far.rate < 0.25


class TestSubexponentialFactor:
    def test_pure_exponential_gives_unit_factor(self):
        ks = np.arange(1, 30)
        curve = synthetic_curve(ks, -0.25 * ks)
        assert subexponential_factor(curve, 0.25) == pytest.approx(
            np.ones_like(ks, dtype=float), rel=1e-12
        )

    def test_recovers_polynomial_part(self):
        ks = np.arange(1, 50)
        log_pe = -0.25 * ks - 0.5 * np.log(ks)
        curve = synthetic_curve(ks, log_pe)
        assert subexponential_factor(curve, 0.25) == pytest.approx(ks**-0.5, rel=1e-12)

    def test_centralized_factor_grows_at_most_polynomially(self):
        """log F / log k stays bounded on the exact centralized curve."""
        from cdlab.analysis import centralized_error_curve, chernoff_information

        model = build_model([0.0, 0.0], [1.0, 1.0], np.eye(2))
        ks = np.arange(10, 1001)
        curve = centralized_error_curve(model, ks)
        factor = subexponential_factor(curve, chernoff_information(model))
        ratio = np.abs(np.log(factor)) / np.log(ks)
        assert ratio.max() <= 1.0

    def test_bad_chernoff_rejected(self):
        curve = synthetic_curve([1, 2], [-1.0, -2.0])
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                subexponential_factor(curve, bad)


# ── the comparison report ─────────────────────────────────────────────────


class TestCompareDetectors:
    def test_reference_scenario_passes(self):
        report = compare_detectors(alt3_plan())
        assert report["verdict"] == "pass"
        assert report["verdict_note"] is None
        assert report["assumption_check"]["passed"] is True
        assert report["chernoff_information"] == pytest.approx(0.075, rel=1e-12)
        assert report["contraction"]["window"] == 2
        assert len(report["nodes"]) == 3
        for entry in report["nodes"]:
            assert entry["gap_late"] < entry["gap_early"]
            assert entry["gap_late"] <= report["gap_tolerance"]

    def test_report_is_json_serializable(self):
        report = compare_detectors(alt3_plan(), k_early=20, k_late=80)
        text = json.dumps(report, sort_keys=True)
        assert "chernoff_information" in text

    def test_centralized_rate_approaches_chernoff_from_above(self):
        """Q(x) < exp(-x^2/2), so the finite-k exponent sits above C."""
        report = compare_detectors(alt3_plan(), k_early=100, k_late=2000)
        c = report["chernoff_information"]
        assert report["centralized"]["rate_early"] > c
        assert report["centralized"]["rate_late"] > c
        assert report["centralized"]["rate_late"] < report["centralized"]["rate_early"]

    def test_single_node_gap_vanishes(self):
        model = build_model([0.0], [1.0], [[1.0]])
        schedule = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        plan = ExperimentPlan(
            model=model, schedule=schedule, k_checkpoints=(1,), n_trials=10, master_seed=0
        )
        report = compare_detectors(plan)
        for entry in report["nodes"]:
            assert abs(entry["gap_early"]) <= 1e-14
            assert abs(entry["gap_late"]) <= 1e-14

    def test_invalid_schedule_suppresses_verdict(self):
        model, schedule = alt3_scenario()
        overclaimed = dataclasses.replace(schedule, min_weight=0.9)
        plan = ExperimentPlan(
            model=model,
            schedule=overclaimed,
            k_checkpoints=(1,),
            n_trials=10,
            master_seed=0,
        )
        report = compare_detectors(plan)
        assert report["verdict"] is None
        assert "suppressed" in report["verdict_note"]
        assert report["assumption_check"]["passed"] is False

    def test_disconnected_matrices_flag_the_window_check(self):
        """Identity mixing never connects: the report must say so and
        withhold any optimality claim."""
        model, schedule = alt3_scenario()
        frozen_eye = np.broadcast_to(np.eye(3), schedule.matrices.shape).copy()
        frozen_eye.setflags(write=False)
        broken = dataclasses.replace(schedule, matrices=frozen_eye)
        plan = ExperimentPlan(
            model=model, schedule=broken, k_checkpoints=(1,), n_trials=10, master_seed=0
        )
        report = compare_detectors(plan)
        assert report["verdict"] is None
        checks = {c["name"]: c["passed"] for c in report["assumption_check"]["checks"]}
        assert checks["window-connectivity"] is False

    def test_bad_checkpoint_order_rejected(self):
        with pytest.raises(ParameterError):
            compare_detectors(alt3_plan(), k_early=500, k_late=100)

    def test_reuses_a_longer_trajectory(self):
        plan = alt3_plan()
        model, schedule = plan.model, plan.schedule
        own = compare_detectors(plan, k_early=20, k_late=80)
        reused = compare_detectors(
            plan, k_early=20, k_late=80, trajectory=propagate_moments(model, schedule, 300)
        )
        assert json.dumps(reused, sort_keys=True) == json.dumps(own, sort_keys=True)
        with pytest.raises(ParameterError):
            compare_detectors(
                plan, k_early=20, k_late=80, trajectory=propagate_moments(model, schedule, 79)
            )


# ── agreement scoring ─────────────────────────────────────────────────────


def _curve(alpha, beta):
    ks = np.arange(1, len(alpha) + 1)
    log_alpha, log_beta = np.log(alpha), np.log(beta)
    return ErrorCurve(
        node="1",
        ks=ks,
        log_alpha=log_alpha,
        log_beta=log_beta,
        log_pe=np.logaddexp(log_alpha, log_beta) - math.log(2.0),
        priors=(0.5, 0.5),
        source="test",
    )


class TestScoreAgreement:
    def test_cells_passing_and_worst_pull(self):
        """n = 10000: se(0.1) = 0.003 and se(0.5) = 0.005; cells below 1e-3 are not judged."""
        exact = _curve([0.1, 0.5, 1e-4], [0.1, 0.5, 1e-4])
        estimate = _curve([0.106, 0.52, 0.5], [0.1, 0.5, 0.5])
        cells, passing, worst_pull = score_agreement([(exact, estimate)], 10_000, 1e-3, 3.0)
        assert (cells, passing) == (4, 3)
        assert worst_pull == pytest.approx(4.0, rel=1e-9)

    def test_no_judged_cells(self):
        exact = _curve([1e-5], [1e-5])
        assert score_agreement([(exact, exact)], 10_000, 1e-3, 3.0) == (0, 0, 0.0)
