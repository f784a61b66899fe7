"""Unit tests for the Gaussian hypothesis pair.

Expected values are frozen from independent oracles: explicit 2x2 adjugate
inverses, hand linear algebra for identity covariance, and large-sample
moment estimates for the sampler.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from cdlab.config import covariance_matrix, scenario_from_file
from cdlab.errors import (
    DegenerateCovariance,
    IndistinguishableHypotheses,
    ParameterError,
    ShapeError,
)
from cdlab.model import Hypothesis, build_model, innovation_stats
from corpus import CORPUS, build_scenario
from oracles import llr, local_innovations, sample_observations


def identity_pair():
    return build_model([0.0, 0.0], [1.0, 1.0], np.eye(2))


def correlated_pair(rho=0.5):
    return build_model([0.0, 0.0], [1.0, 1.0], [[1.0, rho], [rho, 1.0]])


@st.composite
def random_models(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    elems = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    m0 = np.array(draw(st.lists(elems, min_size=n, max_size=n)))
    shift = np.array(draw(st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=n, max_size=n)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    cov = a @ a.T + 0.5 * np.eye(n)
    return build_model(m0, m0 + shift, cov)


# ── construction ──────────────────────────────────────────────────────────


class TestBuildModel:
    def test_identity_two_sensor_closed_form(self):
        """With cov = I the weights are just m1 - m0."""
        m = identity_pair()
        assert m.innovation_weights == pytest.approx([1.0, 1.0], abs=1e-15)
        assert m.llr_variance == pytest.approx(2.0, abs=1e-15)

    def test_correlated_pair_matches_direct_inverse(self):
        """Oracle: explicit 2x2 inverse [[d,-b],[-c,a]]/det."""
        rho = 0.5
        m = correlated_pair(rho)
        det = 1.0 - rho * rho
        inv = np.array([[1.0, -rho], [-rho, 1.0]]) / det
        v = inv @ np.array([1.0, 1.0])
        assert v == pytest.approx([2.0 / 3.0, 2.0 / 3.0], rel=1e-15)
        assert m.innovation_weights == pytest.approx(v, rel=1e-12)
        assert m.llr_variance == pytest.approx(4.0 / 3.0, rel=1e-12)
        sv = m.cov @ m.innovation_weights
        assert sv == pytest.approx(m.m1 - m.m0, rel=1e-10)

    def test_single_sensor(self):
        m = build_model([0.0], [2.0], [[4.0]])
        assert m.innovation_weights == pytest.approx([0.5])
        assert m.llr_variance == pytest.approx(1.0)

    def test_equal_means_rejected(self):
        with pytest.raises(IndistinguishableHypotheses):
            build_model([0.0, 0.0], [0.0, 0.0], np.eye(2))

    def test_rank_deficient_covariance_rejected(self):
        with pytest.raises(DegenerateCovariance):
            build_model([0.0, 0.0], [1.0, 1.0], np.ones((2, 2)))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(DegenerateCovariance):
            build_model([0.0, 0.0], [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DegenerateCovariance):
            build_model([0.0, 0.0], [1.0, 1.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_model([0.0, 0.0], [1.0, 1.0, 1.0], np.eye(2))
        with pytest.raises(ShapeError):
            build_model([0.0, 0.0], [1.0, 1.0], np.eye(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            build_model([0.0, np.nan], [1.0, 1.0], np.eye(2))

    def test_arrays_are_read_only(self):
        m = identity_pair()
        for arr in (m.m0, m.m1, m.cov, m.innovation_weights, m.noise_chol):
            with pytest.raises(ValueError):
                arr[0] = 9.0  # type: ignore[index]

    @given(random_models())
    @settings(max_examples=50, deadline=None)
    def test_weights_solve_the_linear_system(self, m):
        resid = m.cov @ m.innovation_weights - (m.m1 - m.m0)
        scale = max(1.0, float(np.abs(m.m1 - m.m0).max()))
        assert float(np.abs(resid).max()) <= 1e-10 * scale

    @pytest.mark.parametrize("name", CORPUS + ("ring256",))
    def test_weights_match_cholesky_solve(self, name):
        """Weights against a Cholesky-solve oracle, relative to the largest
        weight.  Measured: 0 on n1 and identity2, 1.4e-16 to 3.3e-16 on the
        other corpus models, 8.3e-16 on the 256-node exponential(0.5) model."""
        if name == "ring256":
            m = build_model(np.zeros(256), np.full(256, 0.3), covariance_matrix("exponential(0.5)", 256))
        else:
            m = build_scenario(name)[0]
        ref = cho_solve((m.noise_chol, True), m.m1 - m.m0)
        deviation = np.abs(m.innovation_weights - ref).max() / np.abs(ref).max()
        assert deviation <= 4e-15


# ── llr and innovations ───────────────────────────────────────────────────


class TestLlr:
    def test_midpoint_observation_scores_zero(self):
        m = correlated_pair()
        assert llr(m, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_observation_frozen_value(self):
        # (2/3, 2/3) . ((1,0) - (1/2,1/2)) = 0;  (2/3, 2/3) . (1/2,1/2) = 2/3
        m = correlated_pair()
        assert llr(m, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
        assert llr(m, [1.0, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_batch_llr_matches_scalar(self):
        m = correlated_pair()
        ys = np.random.default_rng(0).normal(size=(7, 2))
        batch = llr(m, ys)
        assert batch == pytest.approx([llr(m, y) for y in ys], rel=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            llr(identity_pair(), [1.0, 2.0, 3.0])

    @given(random_models(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_llr_is_sum_of_local_innovations(self, m, seed):
        y = sample_observations(m, Hypothesis.H1, np.random.default_rng(seed), size=1)[0]
        eta = local_innovations(m, y)
        assert eta.shape == (m.n_sensors,)
        assert llr(m, y) == pytest.approx(float(eta.sum()), rel=1e-12, abs=1e-12)


class TestInnovationStats:
    def test_frozen_correlated_values(self):
        # H1 mean = v * (m1-m0)/2 = (1/3, 1/3); cov = outer(v,v)*S = 4/9 * [[1,.5],[.5,1]]
        mean, cov = innovation_stats(correlated_pair())
        assert mean == pytest.approx([1.0 / 3.0, 1.0 / 3.0], rel=1e-12)
        expect = 4.0 / 9.0 * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert cov == pytest.approx(expect, rel=1e-12)

    @given(random_models())
    @settings(max_examples=50, deadline=None)
    def test_totals_recover_llr_statistics(self, m):
        """The H1 innovation mean sums to the H1 llr mean, llr_variance / 2, and the
        covariance's grand sum is llr_variance: the pair carries the llr's law."""
        mean, cov = innovation_stats(m)
        assert m.llr_variance > 0
        assert float(mean.sum()) == pytest.approx(m.llr_variance / 2.0, rel=1e-10, abs=1e-12)
        assert float(cov.sum()) == pytest.approx(m.llr_variance, rel=1e-10)

    def test_each_n_by_n_input_is_held_once(self, ring_config):
        """On the 256-node ring the model holds the config's read-only covariance
        itself and no Cholesky factor until sampling reads one, so building it
        keeps under 0.5 N x N (512 kB each; seen: 0.01); innovation_stats forms
        its covariance in one buffer and peaks under 1.5 N x N (seen: 1.25, of
        which 0.25 is numpy's ufunc buffers for the broadcast outer product,
        2 N x N at N = 64).  A copied covariance, a held factor or a second
        buffer each add a whole N x N: a model holding a copy and the factor
        keeps 2.02, and a product formed apart from the outer product and then
        copied read-only peaks at 2.01."""
        config = scenario_from_file(ring_config(256, 1024))
        nn = 256 * 256 * 8
        tracemalloc.start()
        try:
            model = config.build_model()
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            innovation_stats(model)
            peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert model.cov is config.covariance
        assert kept < 0.5 * nn
        assert peak < 1.5 * nn
        writable = np.array(config.covariance)
        assert not np.shares_memory(build_model(config.m0, config.m1, writable).cov, writable)


# ── sampling ──────────────────────────────────────────────────────────────


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        m = correlated_pair()
        a = sample_observations(m, Hypothesis.H1, np.random.default_rng(123), size=1)
        b = sample_observations(m, Hypothesis.H1, np.random.default_rng(123), size=1)
        assert np.array_equal(a, b)

    def test_hypotheses_shift_the_mean_only(self):
        m = correlated_pair()
        a = sample_observations(m, Hypothesis.H0, np.random.default_rng(7), size=1)[0]
        b = sample_observations(m, Hypothesis.H1, np.random.default_rng(7), size=1)[0]
        assert b - a == pytest.approx(m.m1 - m.m0, rel=1e-12)

    def test_empirical_moments_match(self):
        """Oracle: large-sample covariance within 5% Frobenius of cov."""
        m = correlated_pair(rho=0.3)
        ys = sample_observations(m, Hypothesis.H0, np.random.default_rng(2024), 100_000)
        emp = np.cov(ys.T)
        frob = np.linalg.norm(emp - m.cov) / np.linalg.norm(m.cov)
        assert frob < 0.05
        assert ys.mean(axis=0) == pytest.approx(m.m0, abs=0.02)

    def test_batch_rows_match_sequential_draws(self):
        m = correlated_pair()
        batch = sample_observations(m, Hypothesis.H1, np.random.default_rng(5), 3)
        seq = np.random.default_rng(5).standard_normal((3, 2))
        assert np.array_equal(batch, m.m1 + seq @ m.noise_chol.T)
