"""Unit tests for both detectors.

Key oracles: hand arithmetic for tiny streams, a batch-recompute oracle
for the running mean, and the recursion-vs-closed-form cross-check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab.errors import ParameterError, ShapeError
from cdlab.model import Hypothesis, build_model
from cdlab.network import ScheduleSpec, WeightSchedule, build_schedule
from oracles import (
    centralized_init,
    centralized_step,
    decide,
    distributed_closed_form,
    distributed_init,
    distributed_step,
    llr,
    local_innovations,
    weight_at,
)


def identity_pair():
    return build_model([0.0, 0.0], [1.0, 1.0], np.eye(2))


def pair_schedule():
    return build_schedule(ScheduleSpec(n_nodes=2, topology="static", edges=((1, 2),)))


def alt3_scenario():
    model = build_model(
        np.zeros(3), np.ones(3), [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
    )
    schedule = build_schedule(
        ScheduleSpec(n_nodes=3, topology="alternating-links", link_cycle=(((1, 2),), ((2, 3),)))
    )
    return model, schedule


def run_both(model, schedule, ys):
    cen = centralized_init(model)
    dis = distributed_init(model, ys[0])
    cen = centralized_step(cen, model, ys[0])
    history = [(cen, dis)]
    for y in ys[1:]:
        cen = centralized_step(cen, model, y)
        dis = distributed_step(dis, model, schedule, y)
        history.append((cen, dis))
    return history


# ── centralized ───────────────────────────────────────────────────────────


class TestCentralized:
    def test_midpoint_observation_scores_zero(self):
        m = identity_pair()
        state = centralized_step(centralized_init(m), m, (m.m0 + m.m1) / 2.0)
        assert state.k == 1
        assert state.value == pytest.approx(0.0, abs=1e-15)

    def test_constant_stream_keeps_single_score(self):
        m = identity_pair()
        y = np.array([0.8, -0.1])
        state = centralized_init(m)
        for _ in range(7):
            state = centralized_step(state, m, y)
        assert state.value == pytest.approx(llr(m, y), rel=1e-12)

    def test_three_scores_average_to_one(self):
        # identity model: L(y) = y1 + y2 - 1, so these ys yield L = 1, -2, 4
        m = identity_pair()
        state = centralized_init(m)
        for y in ([1.0, 1.0], [-0.5, -0.5], [2.5, 2.5]):
            state = centralized_step(state, m, np.array(y))
        assert state.k == 3
        assert state.value == pytest.approx(1.0, rel=1e-12)

    def test_batch_recompute_oracle(self):
        """Running mean after k steps equals the batch mean of the k scores."""
        m = identity_pair()
        ys = np.random.default_rng(11).normal(size=(40, 2))
        state = centralized_init(m)
        for y in ys:
            state = centralized_step(state, m, y)
        assert state.value == pytest.approx(float(np.mean(llr(m, ys))), rel=1e-12)


# ── distributed ───────────────────────────────────────────────────────────


class TestDistributed:
    def test_init_midpoint_is_zero(self):
        m = identity_pair()
        state = distributed_init(m, (m.m0 + m.m1) / 2.0)
        assert state.k == 1
        assert state.x == pytest.approx(np.zeros(2), abs=1e-15)

    def test_init_scales_innovations_by_node_count(self):
        # eta((1,0)) = (0.5, -0.5) for the identity model
        state = distributed_init(identity_pair(), np.array([1.0, 0.0]))
        assert state.x == pytest.approx([1.0, -1.0], rel=1e-15)

    def test_single_node_reduces_to_centralized(self):
        m = build_model([0.0], [1.0], [[1.0]])
        s = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        ys = np.random.default_rng(3).normal(size=(25, 1))
        for cen, dis in run_both(m, s, ys):
            assert dis.x[0] == pytest.approx(cen.value, rel=1e-12, abs=1e-15)

    def test_identity_weights_decouple_nodes(self):
        """W(k) = I (diagnostic only): x_i(k) = (N/k) sum_j eta_i(j)."""
        m, _ = alt3_scenario()
        frozen = np.eye(3)[None, :, :]
        s = WeightSchedule(matrices=frozen)
        ys = np.random.default_rng(4).normal(size=(9, 3))
        state = distributed_init(m, ys[0])
        for y in ys[1:]:
            state = distributed_step(state, m, s, y)
        etas = np.array([local_innovations(m, y) for y in ys])
        assert state.x == pytest.approx(3.0 / 9.0 * etas.sum(axis=0), rel=1e-12)

    def test_mean_consensus_identity(self):
        """Node average of x(k) reproduces the centralized running mean."""
        m, s = alt3_scenario()
        ys = np.random.default_rng(5).normal(size=(60, 3))
        for cen, dis in run_both(m, s, ys):
            err = abs(float(dis.x.mean()) - cen.value)
            assert err <= 1e-10 * max(1.0, abs(cen.value))

    def test_shape_mismatch_rejected(self):
        m, s = alt3_scenario()
        state = distributed_init(m, np.zeros(3))
        with pytest.raises(ShapeError):
            distributed_step(state, m, s, np.zeros(4))

    def test_permutation_equivariance(self):
        """Relabeling nodes permutes the trajectory entrywise."""
        m, s = alt3_scenario()
        perm = np.array([2, 0, 1])
        pmat = np.eye(3)[perm]
        m_p = build_model(m.m0[perm], m.m1[perm], m.cov[np.ix_(perm, perm)])
        mats = tuple(pmat @ w @ pmat.T for w in s.matrices)
        s_p = build_schedule(ScheduleSpec(n_nodes=3, topology="explicit", matrices=mats))
        ys = np.random.default_rng(6).normal(size=(12, 3))
        state = distributed_init(m, ys[0])
        state_p = distributed_init(m_p, ys[0][perm])
        for y in ys[1:]:
            state = distributed_step(state, m, s, y)
            state_p = distributed_step(state_p, m_p, s_p, y[perm])
        assert state_p.x == pytest.approx(state.x[perm], rel=1e-10)


class TestClosedForm:
    def test_two_step_product_oracle(self):
        m, s = alt3_scenario()
        ys = np.random.default_rng(7).normal(size=(2, 3))
        eta1, eta2 = (local_innovations(m, y) for y in ys)
        expect = 3.0 / 2.0 * (weight_at(s, 1) @ eta1 + eta2)
        assert distributed_closed_form(m, s, ys) == pytest.approx(expect, rel=1e-12)

    def test_matches_recursion_after_fifty_steps(self):
        m, s = alt3_scenario()
        ys = np.random.default_rng(8).normal(size=(50, 3))
        state = distributed_init(m, ys[0])
        for y in ys[1:]:
            state = distributed_step(state, m, s, y)
        closed = distributed_closed_form(m, s, ys)
        scale = max(1.0, float(np.abs(state.x).max()))
        assert float(np.abs(closed - state.x).max()) <= 1e-10 * scale

    def test_perfect_averaging_collapses_history(self):
        """W = J: x_i(k) = (1/k) sum_{j<k} L(j) + (N/k) eta_i(k)."""
        m = identity_pair()
        s = pair_schedule()  # single edge on 2 nodes gives W = J exactly
        ys = np.random.default_rng(9).normal(size=(10, 2))
        scores = llr(m, ys)
        eta_last = local_innovations(m, ys[-1])
        expect = scores[:-1].sum() / 10.0 + 2.0 / 10.0 * eta_last
        assert distributed_closed_form(m, s, ys) == pytest.approx(expect, rel=1e-12)

    def test_short_stream_rejected(self):
        m, s = alt3_scenario()
        with pytest.raises(IndexError):
            distributed_closed_form(m, s, [np.zeros(3)])

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_equals_recursion_property(self, seed, k):
        m, s = alt3_scenario()
        ys = np.random.default_rng(seed).normal(size=(k, 3))
        state = distributed_init(m, ys[0])
        for y in ys[1:]:
            state = distributed_step(state, m, s, y)
        closed = distributed_closed_form(m, s, ys)
        scale = max(1.0, float(np.abs(state.x).max()))
        assert float(np.abs(closed - state.x).max()) <= 1e-10 * scale


# ── decisions ─────────────────────────────────────────────────────────────


class TestDecide:
    def test_boundary_goes_to_null(self):
        assert decide(0.0) is Hypothesis.H0

    def test_tiny_positive_accepts_alternative(self):
        assert decide(1e-9) is Hypothesis.H1

    def test_negative_accepts_null(self):
        assert decide(-3.2) is Hypothesis.H0

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            decide(float("nan"))
        with pytest.raises(ParameterError):
            decide(float("inf"))
