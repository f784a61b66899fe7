"""Relations the laboratory must obey that need no oracle: two ways to one answer.

* **Jumped and stepped.**  ``analyze`` and ``simulate`` visit only their
  checkpoints, ``k_early`` and ``k_late`` (``Thresholds.visits``), and so jump
  over the whole periods of long gaps.  A trajectory over that set and one
  that steps through every k must agree at each checkpoint: the moments
  within ``REL``, and the mixing residual rows, differences that carry the
  rounding of k steps, within ``REL`` and ``RESIDUAL_FLOOR``.  Checked on the
  corpus and on the benchmark's 256-node ring, which steps through
  row-padded factors.
* **Period unrolling.**  The schedule [W1, ..., WP] repeated twice is the
  same schedule.  The exact curves take another path through the jump (a
  period map of 2P steps, half as many periods), so they agree within
  ``REL``; the Monte Carlo kernel reads W(k) by the same index modulo the
  period, so its counts are bit-identical.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from cdlab.analysis import exact_error_curves, mixing_residual_curves, propagate_moments
from cdlab.cli import RESIDUAL_HORIZON, RESIDUAL_MUS
from cdlab.config import scenario_from_dict
from cdlab.experiment import ExperimentPlan, run_monte_carlo
from cdlab.network import WeightSchedule
from corpus import CORPUS, GOLDEN_TRIALS, build_scenario
from test_golden import REL, RESIDUAL_FLOOR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_SEED = 3


@pytest.fixture
def scenario(monkeypatch):
    """scenario(name) -> (model, schedule, config) for a corpus name or "ring256",
    the ring built by perfbench's own ``ring_config()``."""

    def build(name):
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
    for got, want in zip(jumped.moments_at(config.checkpoints), stepped.moments_at(config.checkpoints)):
        np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
    ks = [k for k in config.checkpoints if 2 <= k <= RESIDUAL_HORIZON]
    rows = [mixing_residual_curves(model, schedule, traj, ks, RESIDUAL_MUS).rows() for traj in (jumped, stepped)]
    for (mu, k, got, bound), (_, _, want, want_bound) in zip(*rows, strict=True):
        np.testing.assert_allclose(got, want, rtol=REL, atol=RESIDUAL_FLOOR, err_msg=f"{name} mu={mu} k={k}")
        assert bound == want_bound


def unrolled(schedule: WeightSchedule) -> WeightSchedule:
    """[W1, ..., WP] repeated twice: period 2P, the same W(k) at every k."""
    return WeightSchedule(matrices=np.concatenate([schedule.matrices, schedule.matrices]))


@pytest.mark.parametrize("name", ["ref3", "rand5", "n8"])
def test_unrolled_period_gives_the_same_exact_curves(name):
    model, schedule, config = build_scenario(name)
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
