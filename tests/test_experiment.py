"""Tests for the Monte Carlo engine and comparison reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cdlab.analysis import ErrorCurve, propagate_moments, exact_error_curves
from cdlab.errors import NoConnectedWindow, ParameterError, ShapeError
from cdlab.experiment import (
    CHUNK_TRIALS,
    ExperimentPlan,
    Thresholds,
    _run_chunk,
    compare_detectors,
    run_monte_carlo,
    score_agreement,
)
from cdlab.model import Hypothesis, build_model
from cdlab.network import ScheduleSpec, WeightSchedule, build_schedule
from corpus import scenario_config
from test_acceptance import ASYMMETRIC_W
from oracles import (
    centralized_init,
    centralized_step,
    distributed_init,
    distributed_step,
    fit_exponent,
    limiting_rate,
    subexponential_factor,
)

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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_trials": 2.9},
            {"n_trials": 300.0},
            {"n_trials": True},
            {"master_seed": 1.5},
            {"master_seed": False},
            {"k_checkpoints": (1.7, 3)},
            {"k_checkpoints": (True, 3)},
        ],
    )
    def test_non_integers_rejected_not_truncated(self, overrides):
        with pytest.raises(ParameterError):
            alt3_plan(**overrides)

    def test_numpy_integers_accepted(self):
        plan = alt3_plan(n_trials=np.int64(300), master_seed=np.uint32(7), k_checkpoints=np.arange(1, 4))
        assert (plan.n_trials, plan.master_seed, plan.k_checkpoints) == (300, 7, (1, 2, 3))
        assert all(type(v) is int for v in (plan.n_trials, plan.master_seed, *plan.k_checkpoints))

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
    @staticmethod
    def assert_counts_match_per_trial_replica(plan):
        """Bitwise agreement with a scalar re-simulation from the same keys.

        The replica draws the documented noise block per (hypothesis, step,
        chunk), hands row t to the step-by-step detector API, and counts
        wrong decisions at the same checkpoints.
        """
        result = run_monte_carlo(plan, threads=1)
        model, schedule = plan.model, plan.schedule
        n = model.n_sensors
        n_ck = len(plan.k_checkpoints)
        for hyp in (H0, H1):
            mean = model.m1 if hyp == H1 else model.m0
            blocks = {
                k: np.random.default_rng((plan.master_seed, int(hyp), k, 0)).standard_normal(
                    (plan.n_trials, n)
                )
                for k in range(1, plan.k_checkpoints[-1] + 1)
            }
            node_counts = np.zeros((n_ck, n), dtype=int)
            cen_counts = np.zeros(n_ck, dtype=int)
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

    def test_counts_match_per_trial_replica(self):
        self.assert_counts_match_per_trial_replica(alt3_plan())

    @pytest.mark.parametrize(
        "name, means",
        [
            ("rand5", None),
            ("correlated2", ([0.0, 0.0], [1.0, 0.4])),
            ("n1", None),
            ("correlated2", ([0.3, -0.5], [1.1, 0.1])),
        ],
        ids=["rand5", "correlated2", "n1", "correlated2-m0-nonzero"],
    )
    def test_counts_match_per_trial_replica_on_corpus_schedules(self, name, means):
        """rand5 wraps its period-4 schedule, n1 is the 1 x 1 case, and
        correlated2's noise with unequal mean shifts makes diag(w) L differ
        from L diag(w).  With m0 != 0 the kernel's offset, +-(w (m1 - m0) / 2),
        and the replica's w (y - (m0 + m1) / 2) are no longer the same
        floating-point expression."""
        config = scenario_config(name)
        model = config.build_model()
        if means is not None:
            model = build_model(*means, model.cov)
        plan = ExperimentPlan(
            model=model,
            schedule=config.build_schedule(),
            k_checkpoints=(1, 2, 5, 11),
            n_trials=300,
            master_seed=7,
        )
        self.assert_counts_match_per_trial_replica(plan)

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

    def test_extra_trials_leave_earlier_trials_alone(self):
        """More trials only append chunks: the first CHUNK_TRIALS trials keep their draws."""
        plan = alt3_plan(n_trials=CHUNK_TRIALS, k_checkpoints=(2, 6))
        base = run_monte_carlo(plan, threads=1)
        longer = run_monte_carlo(dataclasses.replace(plan, n_trials=CHUNK_TRIALS + 500), threads=1)
        for hyp, nodes, cen in (
            (H0, "false_alarm_counts", "cen_false_alarm_counts"),
            (H1, "miss_counts", "cen_miss_counts"),
        ):
            _, node_tail, cen_tail, _ = _run_chunk(plan, hyp, 1, 500)
            assert np.array_equal(getattr(longer, nodes), getattr(base, nodes) + node_tail)
            assert np.array_equal(getattr(longer, cen), getattr(base, cen) + cen_tail)

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

    def test_paired_gap_is_measured(self):
        """The gap is rounding noise, not a constant: ref3 at 8192 trials, seed 3
        reads about 1.2e-15, so a gap forced to zero fails."""
        plan = scenario_config("ref3").build_plan(n_trials=8192, master_seed=3)
        assert 0.0 < run_monte_carlo(plan).paired_gap <= 1e-9

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
        exact = exact_error_curves(propagate_moments(model, schedule, range(1, 26)), ks=[5, 25])
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

    def test_thread_env_cap(self, monkeypatch):
        monkeypatch.setenv("CDL_THREADS", "1")
        plan = alt3_plan(n_trials=CHUNK_TRIALS + 10)
        assert run_monte_carlo(plan).threads == 1
        assert run_monte_carlo(plan, threads=2).threads == 1  # the cap holds for an explicit count too
        monkeypatch.setenv("CDL_THREADS", "zebra")
        with pytest.raises(ParameterError):
            run_monte_carlo(plan)
        monkeypatch.setenv("CDL_THREADS", "0")
        with pytest.raises(ParameterError):
            run_monte_carlo(plan)

    @pytest.mark.parametrize("threads", [2.5, True, 0])
    def test_thread_count_is_an_integer(self, threads, monkeypatch):
        """2.5 does not run as 2 threads nor True as 1: the integer rule refuses both."""
        monkeypatch.delenv("CDL_THREADS", raising=False)
        with pytest.raises(ParameterError, match="thread count must be an integer >= 1"):
            run_monte_carlo(alt3_plan(n_trials=10), threads=threads)


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


def test_oracle_fit_reads_only_its_window():
    """Criterion 08's least-squares rate: an exact line inside the window is
    recovered, and the steeper points outside it are not fitted."""
    ks = np.arange(1, 21)
    curve = synthetic_curve(ks, np.where(ks <= 10, -1.0 * ks, -2.0 * ks + 3.0))
    assert fit_exponent(curve, (11, 20)) == pytest.approx(2.0, rel=1e-12)
    assert fit_exponent(curve, (1, 10)) == pytest.approx(1.0, rel=1e-12)


# ── the comparison report ─────────────────────────────────────────────────


class TestCompareDetectors:
    def test_reference_scenario_passes(self):
        report = compare_detectors(*alt3_scenario())
        assert report["verdict"] == "pass"
        assert report["verdict_note"] is None
        assert report["assumption_check"]["passed"] is True
        assert report["chernoff_information"] == pytest.approx(0.075, rel=1e-12)
        assert report["contraction"]["window"] == 2
        assert len(report["nodes"]) == 3
        for entry in report["nodes"]:
            assert entry["gap_late"] < entry["gap_early"]
            assert entry["gap_late"] <= report["gap_tolerance"]

    def test_tolerance_is_the_line(self):
        """n8's largest late gap is about 0.0186 C: a tolerance 1% below it
        fails and 1% above it passes, so the tolerance is applied as given."""
        config = scenario_config("n8")
        model, schedule = config.build_model(), config.build_schedule()
        report = compare_detectors(model, schedule, config.thresholds)
        assert report["verdict"] == "pass"
        ratio = max(entry["gap_late"] for entry in report["nodes"]) / report["chernoff_information"]
        assert ratio == pytest.approx(0.0186, rel=1e-2)
        for factor, verdict in ((0.99, "fail"), (1.01, "pass")):
            thresholds = dataclasses.replace(config.thresholds, gap_tolerance=factor * ratio)
            assert compare_detectors(model, schedule, thresholds)["verdict"] == verdict

    def test_a_growing_gap_fails(self):
        """ref3 at k_early = 100 and k_late = 101 with gap_tolerance 0.05
        (0.00375 absolute): every node is within tolerance, but node 1's gap
        grows from 0.00104 to 0.00178, so the verdict is fail.  100 and 101
        lie in different phases of ref3's period-2 schedule; a shrink rule
        that compares checkpoints of one phase, as the ROADMAP's closed-form
        rate item proposes, may move this witness."""
        config = scenario_config("ref3")
        report = compare_detectors(config.build_model(), config.build_schedule(), Thresholds(k_early=100, k_late=101, gap_tolerance=0.05))
        assert all(entry["within_tolerance"] for entry in report["nodes"])
        node1 = report["nodes"][0]
        assert node1["node"] == "1"
        assert node1["gap_late"] > node1["gap_early"]
        assert node1["gap_shrinks"] is False
        assert report["verdict"] == "fail"

    def test_report_is_json_serializable(self):
        report = compare_detectors(*alt3_scenario(), Thresholds(k_early=20, k_late=80))
        text = json.dumps(report, sort_keys=True)
        assert "chernoff_information" in text

    def test_centralized_rate_approaches_chernoff_from_above(self):
        """Q(x) < exp(-x^2/2), so the finite-k exponent sits above C."""
        report = compare_detectors(*alt3_scenario(), Thresholds(k_early=100, k_late=2000))
        c = report["chernoff_information"]
        assert report["centralized"]["rate_early"] > c
        assert report["centralized"]["rate_late"] > c
        assert report["centralized"]["rate_late"] < report["centralized"]["rate_early"]

    def test_single_node_gap_vanishes(self):
        model = build_model([0.0], [1.0], [[1.0]])
        schedule = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        report = compare_detectors(model, schedule)
        for entry in report["nodes"]:
            assert abs(entry["gap_early"]) <= 1e-14
            assert abs(entry["gap_late"]) <= 1e-14

    def test_single_node_scenario_passes(self):
        """n1's node is its own fusion centre: its gaps are rounding noise."""
        config = scenario_config("n1")
        report = compare_detectors(config.build_model(), config.build_schedule(), config.thresholds)
        assert report["verdict"] == "pass"
        assert report["nodes"][0]["gap_shrinks"] is True

    def test_invalid_schedule_suppresses_verdict(self):
        """Rows summing to 0.9, which build_schedule refuses, built by hand."""
        model, schedule = alt3_scenario()
        leaky = WeightSchedule(matrices=0.9 * schedule.matrices)
        report = compare_detectors(model, leaky)
        assert report["verdict"] is None
        assert "suppressed" in report["verdict_note"]
        assert report["assumption_check"]["passed"] is False
        structure = report["assumption_check"]["checks"][0]
        assert structure["name"] == "symmetric-stochastic"
        assert {f["issue"] for f in structure["failures"]} == {"row-sum"}

    def test_asymmetric_schedule_is_kept_from_pass_only_by_the_suppression(self):
        """ref3's model on the row-stochastic W of rows (.6, .4, 0), (.2, .6, .2),
        (0, .4, .6): every node's limiting rate is 0.073636, 1.8% below C = 0.075.
        Yet node 2 passes on its own figures: its late gap 0.00145 is within
        the 0.0015 tolerance and has shrunk.  The suppression on the failed
        assumption check is all that keeps it from a pass."""
        config = scenario_config("ref3")
        model = config.build_model()
        asymmetric = WeightSchedule(matrices=ASYMMETRIC_W[None])
        assert limiting_rate(model, asymmetric) == pytest.approx([0.073636] * 3, abs=1e-6)
        report = compare_detectors(model, asymmetric, config.thresholds)
        assert report["verdict"] is None
        assert "suppressed" in report["verdict_note"]
        assert report["gap_tolerance"] == pytest.approx(0.0015, rel=1e-12)
        node = report["nodes"][1]
        assert node["gap_late"] == pytest.approx(0.00145, abs=1e-5)
        assert node["gap_early"] == pytest.approx(0.00179, abs=1e-5)
        assert node["within_tolerance"] and node["gap_shrinks"]

    def test_disconnected_matrices_flag_the_window_check(self):
        """Identity mixing never connects: build_schedule refuses the matrices,
        and a schedule holding them is reported, not raised on.  There is no
        window and so no envelope, the window-connectivity check fails, and
        the verdict is suppressed with its note."""
        model, schedule = alt3_scenario()
        frozen_eye = np.broadcast_to(np.eye(3), schedule.matrices.shape).copy()
        frozen_eye.setflags(write=False)
        with pytest.raises(NoConnectedWindow):
            build_schedule(ScheduleSpec(n_nodes=3, topology="explicit", matrices=tuple(frozen_eye)))
        broken = dataclasses.replace(schedule, matrices=frozen_eye)
        report = compare_detectors(model, broken)
        assert report["contraction"] == {"min_weight": 1.0, "window": None, "amplitude": None, "ratio": None}
        assert report["verdict"] is None
        assert "suppressed" in report["verdict_note"]
        checks = {check["name"]: check for check in report["assumption_check"]["checks"]}
        assert checks["window-connectivity"]["failures"] == [{"window": 2, "issue": "disconnected-union"}]
        assert [name for name, check in checks.items() if not check["passed"]] == ["window-connectivity"]

    def test_bad_checkpoint_order_rejected(self):
        with pytest.raises(ParameterError):
            compare_detectors(*alt3_scenario(), Thresholds(k_early=500, k_late=100))

    def test_reuses_a_longer_trajectory(self):
        """A trajectory over the visit rule's k and past them is read, bit for bit,
        as the one compare_detectors would propagate over ``visits()``."""
        model, schedule = alt3_scenario()
        short = Thresholds(k_early=20, k_late=80)
        own = compare_detectors(model, schedule, short)
        reused = compare_detectors(model, schedule, short, propagate_moments(model, schedule, [*short.visits(), 300]))
        assert json.dumps(reused, sort_keys=True) == json.dumps(own, sort_keys=True)
        with pytest.raises(ParameterError):
            compare_detectors(model, schedule, short, propagate_moments(model, schedule, range(1, 80)))

    def test_trajectory_must_visit_both_checkpoints(self):
        """A trajectory that reaches k_late but skipped k_early is refused, not
        read at a neighbouring k: `analyze` adds both to the k it visits."""
        model, schedule = alt3_scenario()
        short = Thresholds(k_early=20, k_late=80)
        sparse = propagate_moments(model, schedule, [1, 2, 4, 8, 16, 32, 64, 80])
        with pytest.raises(ParameterError, match="no moments at k=20"):
            compare_detectors(model, schedule, short, sparse)
        visited = propagate_moments(model, schedule, [1, 2, 4, 8, 16, 20, 32, 64, 80])
        own, jumped = compare_detectors(model, schedule, short), compare_detectors(model, schedule, short, visited)
        assert jumped["verdict"] == own["verdict"]
        for key in ("rate_early", "rate_late"):
            assert [node[key] for node in jumped["nodes"]] == pytest.approx([node[key] for node in own["nodes"]], rel=1e-12)


# ── agreement scoring ─────────────────────────────────────────────────────


def _curve(alpha, beta):
    ks = np.arange(1, len(alpha) + 1)
    with np.errstate(divide="ignore"):
        log_alpha, log_beta = np.log(alpha), np.log(beta)
    return ErrorCurve(
        node="1",
        ks=ks,
        log_alpha=log_alpha,
        log_beta=log_beta,
        log_pe=np.logaddexp(log_alpha, log_beta) - math.log(2.0),
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

    def test_certain_cell_passes_only_at_its_exact_count(self):
        """A cell of exact probability 1, a node at variance 0, has no spread:
        n = 10000 errors pass with pull 0, which hides no other cell's pull
        (2.0 here), and one fewer fails with an infinite pull."""
        exact = _curve([0.0, 0.1], [1.0, 0.1])
        assert score_agreement([(exact, _curve([0.0, 0.1], [1.0, 0.106]))], 10_000, 1e-3, 3.0) == (3, 3, pytest.approx(2.0))
        cells, passing, worst_pull = score_agreement([(exact, _curve([0.0, 0.1], [0.9999, 0.1]))], 10_000, 1e-3, 3.0)
        assert (cells, passing, worst_pull) == (3, 2, math.inf)

    def test_no_judged_cells(self):
        exact = _curve([1e-5], [1e-5])
        assert score_agreement([(exact, exact)], 10_000, 1e-3, 3.0) == (0, 0, 0.0)
