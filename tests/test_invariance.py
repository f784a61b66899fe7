"""Relations the laboratory must obey that need no oracle: two ways to one answer.

* **Jumped and stepped.**  ``analyze`` and ``simulate`` visit only their
  checkpoints, ``k_early`` and ``k_late`` (``Thresholds.visits``), and so jump
  over the whole periods of long gaps.  A trajectory over that set and one
  that steps through every k must agree: the moments at each visit within
  ``REL``, and the mixing residual rows at each checkpoint, differences
  that carry the rounding of k steps, within ``REL`` and ``RESIDUAL_FLOOR``.
  Checked on the corpus and on the benchmark's 256-node ring, which steps
  through row-padded factors.
* **Period unrolling.**  The schedule [W1, ..., WP] repeated twice is the
  same schedule.  The exact curves take another path through the jump (a
  period map of 2P steps, half as many periods), so they agree within
  ``REL``; the Monte Carlo kernel reads W(k) by the same index modulo the
  period, so its counts are bit-identical.
* **Node relabelling.**  Permuting m0, m1, C and every W(k) together
  permutes the node moments, curves and rates, and leaves the centralized
  curve, the decay verdict and the rate verdict alone.
* **Affine model change.**  (a m0 + b, a m1 + b, a^2 C) has the same
  innovations, so every exact figure stays.
The last two run at the default visits plus 1e6, where the squaring chain
serves the doubling checkpoints and the jump reaches 1e6, and at 1e9 and
1e12.  Past 1e6 a relabelled rand5 drifts from itself linearly in k:
rounding in running-sum coordinates compounds along the consensus
direction (ROADMAP item 10).  Those depths are strict expected failures.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from cdlab.analysis import centralized_error_curve, exact_error_curves, mixing_residual_curves, propagate_moments
from cdlab.cli import RESIDUAL_HORIZON, RESIDUAL_MUS
from cdlab.config import scenario_from_dict, scenario_from_file
from cdlab.experiment import ExperimentPlan, compare_detectors, run_monte_carlo
from cdlab.model import build_model
from cdlab.network import WeightSchedule, check_geometric_decay
from corpus import CORPUS, GOLDEN_TRIALS, build_scenario
from test_golden import REL, RESIDUAL_FLOOR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_SEED = 3


@pytest.fixture
def scenario(monkeypatch, ring_config):
    """scenario(name) -> (model, schedule, config) for a corpus name, "ring64", the
    two-matching ring with checkpoints doubling to 1024, or "ring256", the ring
    built by perfbench's own ``ring_config()``."""

    def build(name):
        if name == "ring64":
            config = scenario_from_file(ring_config(64, 1024))
            return config.build_model(), config.build_schedule(), config
        if name != "ring256":
            return build_scenario(name)
        monkeypatch.syspath_prepend(str(PERFBENCH))
        config = scenario_from_dict(importlib.import_module("run").ring_config())
        return config.build_model(), config.build_schedule(), config

    return build


@pytest.mark.parametrize("name", [*CORPUS, "ring256"])
def test_jumped_and_stepped_trajectories_agree(name, scenario):
    model, schedule, config = scenario(name)
    visits = config.thresholds.visits(config.checkpoints)
    jumped = propagate_moments(model, schedule, visits)
    stepped = propagate_moments(model, schedule, range(1, visits[-1] + 1))
    for got, want in zip(jumped.moments_at(visits), stepped.moments_at(visits)):
        np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
    ks = [k for k in config.checkpoints if 2 <= k <= RESIDUAL_HORIZON]
    rows = [mixing_residual_curves(model, schedule, traj, ks, RESIDUAL_MUS).rows() for traj in (jumped, stepped)]
    for (mu, k, got, bound), (_, _, want, want_bound) in zip(*rows, strict=True):
        np.testing.assert_allclose(got, want, rtol=REL, atol=RESIDUAL_FLOOR, err_msg=f"{name} mu={mu} k={k}")
        assert bound == want_bound


def unrolled(schedule: WeightSchedule) -> WeightSchedule:
    """[W1, ..., WP] repeated twice: period 2P, the same W(k) at every k."""
    return WeightSchedule(matrices=np.concatenate([schedule.matrices, schedule.matrices]))


@pytest.mark.parametrize("name", ["ref3", "rand5", "n8", "ring256"])
def test_unrolled_period_gives_the_same_exact_curves(name, scenario):
    model, schedule, config = scenario(name)
    twice = unrolled(schedule)
    assert twice.period == 2 * schedule.period
    curves = []
    for s in (schedule, twice):
        trajectory = propagate_moments(model, s, config.thresholds.visits(config.checkpoints))
        curves.append(exact_error_curves(model, trajectory, ks=config.checkpoints))
    for got, want in zip(*curves, strict=True):
        assert got.node == want.node
        np.testing.assert_allclose(got.log_pe, want.log_pe, rtol=REL, atol=0.0, err_msg=f"{name} node {got.node}")


@pytest.mark.parametrize("name", ["ref3", "rand5", "n8"])
def test_unrolled_period_gives_the_same_counts(name):
    model, schedule, config = build_scenario(name)
    results = [
        run_monte_carlo(ExperimentPlan(model, s, config.checkpoints, GOLDEN_TRIALS, GOLDEN_SEED))
        for s in (schedule, unrolled(schedule))
    ]
    for field in ("false_alarm_counts", "miss_counts", "cen_false_alarm_counts", "cen_miss_counts"):
        assert np.array_equal(getattr(results[0], field), getattr(results[1], field)), field


def rotated(model, schedule):
    """Node i relabelled i + 1 (mod N): m0, m1, C and every W(k) permuted
    together.  Returns the model, the schedule and ``perm``, new node j being
    old node perm[j]."""
    perm = np.roll(np.arange(model.n_sensors), 1)
    cov = model.cov[np.ix_(perm, perm)]
    moved = build_model(model.m0[perm], model.m1[perm], cov), WeightSchedule(matrices=schedule.matrices[:, perm][:, :, perm])
    return *moved, perm


def affine(model, schedule, a=3.0, b=-1.25):
    """The model seen through y -> a y + b: the innovations, and so every exact figure, are the same."""
    return build_model(a * model.m0 + b, a * model.m1 + b, a * a * model.cov), schedule, slice(None)


RELATIONS = {"relabelled": rotated, "affine": affine}
RELATION_SCENARIOS = ("ref3", "rand5", "n8", "ring64")
# depths past REL under a relation: the drift of ROADMAP item 10 (4.8e-9 at 1e9, 4.8e-6 at 1e12)
DRIFTS = {("rand5", "relabelled", 10**9), ("rand5", "relabelled", 10**12)}


def node_figures(model, schedule, visits):
    """The node moments and exact log pe at ``visits``, each (len(visits), N)."""
    trajectory = propagate_moments(model, schedule, visits)
    log_pe = np.array([curve.log_pe for curve in exact_error_curves(model, trajectory)]).T
    return trajectory, {"mean": trajectory.means, "variance": trajectory.variances, "log_pe": log_pe}


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("name", RELATION_SCENARIOS)
def test_relation_keeps_every_exact_figure(name, relation, scenario):
    """At the default visits plus 1e6: node moments, curves and rates move with
    the nodes; the centralized curve and rates, the decay verdict and the rate
    verdict stay, all within ``REL``."""
    model, schedule, config = scenario(name)
    visits = [*config.thresholds.visits(config.checkpoints), 10**6]
    moved_model, moved_schedule, perm = RELATIONS[relation](model, schedule)
    reports = []
    for m, s in ((model, schedule), (moved_model, moved_schedule)):
        trajectory, figures = node_figures(m, s, visits)
        report = compare_detectors(m, s, config.thresholds, trajectory)
        figures["rates"] = np.array([[node[key] for node in report["nodes"]] for key in ("rate_early", "rate_late")])
        figures["centralized"] = centralized_error_curve(m, visits).log_pe
        reports.append((figures, report, check_geometric_decay(s).passed))
    (want, want_report, want_decay), (got, got_report, got_decay) = reports
    for key, value in got.items():
        expected = want[key] if key == "centralized" else want[key][:, perm]
        np.testing.assert_allclose(value, expected, rtol=REL, atol=0.0, err_msg=f"{name} {relation} {key}")
    for key in ("rate_early", "rate_late"):
        assert got_report["centralized"][key] == pytest.approx(want_report["centralized"][key], rel=REL, abs=0.0)
    assert got_report["verdict"] == want_report["verdict"]
    assert got_decay == want_decay


@pytest.mark.parametrize(
    "name, relation, depth",
    [
        pytest.param(
            *cell,
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 10: rounding compounds along the consensus direction")]
            if cell in DRIFTS
            else [],
        )
        for cell in ((name, relation, depth) for name in RELATION_SCENARIOS for relation in RELATIONS for depth in (10**9, 10**12))
    ],
)
def test_relation_at_depth(name, relation, depth, scenario):
    """The node moments and curves at one deep k under each relation, within ``REL``."""
    model, schedule, config = scenario(name)
    visits = [*config.thresholds.visits(config.checkpoints), depth]
    moved_model, moved_schedule, perm = RELATIONS[relation](model, schedule)
    _, want = node_figures(model, schedule, visits)
    _, got = node_figures(moved_model, moved_schedule, visits)
    for key, value in got.items():
        np.testing.assert_allclose(value[-1], want[key][-1, perm], rtol=REL, atol=0.0, err_msg=f"{name} {relation} {key} at {depth}")
