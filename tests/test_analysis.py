"""Unit tests for rate functions, moment propagation and error curves.

Oracles: hand plug-in arithmetic for quadratic forms, scipy.stats normal
tails for curve values, Monte Carlo for the log-MGF and the propagated
moments, and the exact-decomposition cross-check for the mixing residual.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from cdlab.analysis import (
    MomentTrajectory,
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    fenchel_legendre,
    fixed_threshold_rates,
    log_mgf,
    log_q_function,
    mixing_residual,
    mixing_residual_curves,
    propagate_moments,
    rate_function,
    scaled_cumulant,
)
from cdlab.errors import (
    DegenerateVariance,
    MaximizerAtBoundary,
    ParameterError,
    ThresholdOutOfRange,
)
from cdlab.model import Hypothesis, build_model, innovation_stats, llr, local_innovations, sample_observations
from cdlab.network import ScheduleSpec, build_schedule, contraction_bound
from cdlab.scenarios import build_scenario

H0, H1 = Hypothesis.H0, Hypothesis.H1


def identity_pair():
    return build_model([0.0, 0.0], [1.0, 1.0], np.eye(2))


def correlated_pair():
    return build_model([0.0, 0.0], [1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])


def alt3_scenario():
    model = build_model(
        np.zeros(3), 0.6 * np.ones(3), [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
    )
    schedule = build_schedule(
        ScheduleSpec(n_nodes=3, topology="alternating-links", link_cycle=(((1, 2),), ((2, 3),)))
    )
    return model, schedule


def pair_scenario():
    # single-edge pair: W = J exactly
    model = identity_pair()
    schedule = build_schedule(ScheduleSpec(n_nodes=2, topology="static", edges=((1, 2),)))
    return model, schedule


# ── Q function ────────────────────────────────────────────────────────────


class TestQFunction:
    def test_log_tail_matches_linear_regime(self):
        xs = np.array([-2.0, 0.0, 1.0, 5.0])
        assert log_q_function(xs) == pytest.approx(np.log(norm.sf(xs)), rel=1e-12)

    def test_log_tail_survives_deep_arguments(self):
        val = float(log_q_function(300.0))
        assert np.isfinite(val)
        assert val < -40000.0


# ── rate function, Chernoff information, log-MGF ──────────────────────────


class TestRateFunction:
    def test_zero_at_own_mean(self):
        m = correlated_pair()
        assert rate_function(m, H0, m.llr_mean0) == 0.0
        assert rate_function(m, H1, m.llr_mean1) == 0.0

    def test_identity_model_at_origin(self):
        assert rate_function(identity_pair(), H0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_hypothesis_shift_identity_on_grid(self):
        """I1(t) - I0(t) + t = 0 for the Gaussian pair."""
        m = correlated_pair()
        for t in np.linspace(-3.0, 3.0, 31):
            gap = rate_function(m, H1, t) - rate_function(m, H0, t) + t
            assert gap == pytest.approx(0.0, abs=1e-12)


class TestChernoffInformation:
    def test_identity_model_exact(self):
        assert chernoff_information(identity_pair()) == 0.25

    def test_correlated_model_frozen_fraction(self):
        assert chernoff_information(correlated_pair()) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_equals_null_rate_at_origin(self):
        m = correlated_pair()
        assert chernoff_information(m) == rate_function(m, H0, 0.0)


class TestLogMgf:
    def test_normalization(self):
        assert log_mgf(correlated_pair(), H0, 0.0) == 0.0

    def test_unit_argument_identity(self):
        """E0[e^L] = 1 forces the value 0 at lambda = 1."""
        for m in (identity_pair(), correlated_pair()):
            assert log_mgf(m, H0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_monte_carlo_oracle(self):
        """Empirical log-mean of e^{L/2} over 1e6 samples, 3 stderr."""
        m = identity_pair()
        ys = sample_observations(m, H0, np.random.default_rng(314), 1_000_000)
        scores = llr(m, ys)
        x = np.exp(0.5 * scores)
        emp = float(logsumexp(0.5 * scores) - math.log(scores.size))
        se = float(x.std(ddof=1) / (x.mean() * math.sqrt(scores.size)))
        assert abs(emp - log_mgf(m, H0, 0.5)) <= 3.0 * se


# ── Fenchel-Legendre transform ────────────────────────────────────────────


class TestFenchelLegendre:
    def test_self_dual_quadratic(self):
        f = lambda lam: lam * lam / 2.0
        for t in (-1.0, 0.0, 2.0):
            assert fenchel_legendre(f, t) == pytest.approx(t * t / 2.0, abs=1e-8)

    def test_matches_closed_form_rate(self):
        m = identity_pair()
        dual = fenchel_legendre(lambda lam: log_mgf(m, H0, lam), 0.0)
        assert dual == pytest.approx(0.25, abs=1e-6)

    def test_duality_on_grid(self):
        m = correlated_pair()
        sigma = math.sqrt(m.llr_variance)
        grid = np.linspace(m.llr_mean0 - 2 * sigma, m.llr_mean1 + 2 * sigma, 41)
        for l in (H0, H1):
            for t in grid:
                dual = fenchel_legendre(lambda lam: log_mgf(m, l, lam), float(t))
                assert dual == pytest.approx(rate_function(m, l, float(t)), abs=1e-6)

    def test_interval_excluding_maximizer_raises(self):
        f = lambda lam: lam * lam / 2.0
        with pytest.raises(MaximizerAtBoundary):
            fenchel_legendre(f, 2.0, interval=(-1.0, 1.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(ParameterError):
            fenchel_legendre(lambda lam: lam * lam, 0.0, interval=(1.0, 1.0))


class TestFixedThresholdRates:
    def test_symmetric_point(self):
        m = correlated_pair()
        a, b = fixed_threshold_rates(m, 0.0)
        assert a == pytest.approx(-m.llr_variance / 8.0, rel=1e-14)
        assert b == pytest.approx(-m.llr_variance / 8.0, rel=1e-14)

    def test_identity_model_plugin_values(self):
        a, b = fixed_threshold_rates(identity_pair(), 0.5)
        assert a == pytest.approx(-0.5625, rel=1e-13)
        assert b == pytest.approx(-0.0625, rel=1e-13)

    def test_boundary_rejected(self):
        m = identity_pair()
        for gamma in (m.llr_mean0, m.llr_mean1, -5.0, 5.0):
            with pytest.raises(ThresholdOutOfRange):
                fixed_threshold_rates(m, gamma)

    @given(st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_rates_strictly_negative(self, frac):
        m = correlated_pair()
        gamma = frac * m.llr_mean1
        a, b = fixed_threshold_rates(m, gamma)
        assert a < 0.0
        assert b < 0.0

    def test_tail_slope_oracle(self):
        """(1/k) log of the exact Gaussian tails approaches both rates."""
        m = identity_pair()
        gamma, k = 0.5, 4000
        sigma = math.sqrt(m.llr_variance)
        a_rate, b_rate = fixed_threshold_rates(m, gamma)
        log_alpha = float(log_q_function((gamma - m.llr_mean0) * math.sqrt(k) / sigma))
        log_beta = float(log_q_function((m.llr_mean1 - gamma) * math.sqrt(k) / sigma))
        assert log_alpha / k == pytest.approx(a_rate, abs=2e-3)
        assert log_beta / k == pytest.approx(b_rate, abs=2e-3)


# ── moment propagation ────────────────────────────────────────────────────


def reference_moments_h0(model, schedule, k_max):
    """Plain full-covariance recursion under H0, every P(k) kept."""
    stats = innovation_stats(model)
    m_eta = stats.mean0
    s_eta = stats.cov
    n = model.n_sensors
    mu = n * m_eta
    p = n * n * s_eta
    means, covs = [mu], [p]
    for k in range(1, k_max):
        w = schedule.weight_at(k)
        shrink = k / (k + 1.0)
        gain = n / (k + 1.0)
        mu = shrink * (w @ mu) + gain * m_eta
        p = shrink * shrink * (w @ p @ w.T) + gain * gain * s_eta
        p = (p + p.T) / 2.0
        means.append(mu)
        covs.append(p)
    return np.array(means), np.array(covs)


class TestPropagateMoments:
    def test_single_node_closed_form(self):
        m = build_model([0.0], [1.0], [[1.0]])
        s = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        traj = propagate_moments(m, s, 40, keep=(1, 2, 7, 40))
        for k in (1, 2, 7, 40):
            assert traj.mean_at(k)[0] == pytest.approx(m.llr_mean1, rel=1e-12)
            assert traj.cov_at(k)[0, 0] == pytest.approx(m.llr_variance / k, rel=1e-12)
            assert traj.variances[k - 1, 0] == traj.cov_at(k)[0, 0]

    def test_consensus_moment_identities(self):
        """Node-average mean stays llr_mean, grand covariance sum sigma2/k."""
        model, schedule = alt3_scenario()
        ks = (1, 2, 3, 10, 50, 200)
        traj = propagate_moments(model, schedule, 200, keep=ks)
        for k in ks:
            avg = float(traj.mean_at(k, H0).mean())
            assert abs(avg - model.llr_mean0) <= 1e-10 * max(1.0, abs(model.llr_mean0))
            total = float(traj.cov_at(k).sum()) / 9.0
            assert total == pytest.approx(model.llr_variance / k, rel=1e-10)

    def test_hypothesis_symmetry_is_exact(self):
        """The one H1 pass serves H0 bit for bit.

        The reference recursion is driven by the H0 innovation mean, so the
        stored means negated, the stored variances and the kept matrices
        must equal it exactly, on an alternating and a random-subgraph
        schedule.
        """
        rand5_model, rand5_schedule, _ = build_scenario("rand5")
        for model, schedule in (alt3_scenario(), (rand5_model, rand5_schedule)):
            keep = (1, 7, 60)
            traj = propagate_moments(model, schedule, 60, keep=keep)
            means0, covs = reference_moments_h0(model, schedule, 60)
            assert np.array_equal(-traj.means, means0)
            assert np.array_equal(traj.mean_at(7, H0), means0[6])
            assert np.array_equal(traj.variances, np.diagonal(covs, axis1=1, axis2=2))
            assert np.array_equal(traj.covariances, covs[[k - 1 for k in keep]])

    def test_only_kept_covariances_are_stored(self):
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, 30, keep=(30, 4, 4))
        assert traj.keep == (4, 30)
        assert traj.covariances.shape == (2, 3, 3)
        assert propagate_moments(model, schedule, 30).covariances.shape == (0, 3, 3)
        with pytest.raises(ParameterError):
            traj.cov_at(5)
        for keep in ((0,), (31,)):
            with pytest.raises(ParameterError):
                propagate_moments(model, schedule, 30, keep=keep)

    def test_covariances_stay_psd(self):
        model, schedule = alt3_scenario()
        ks = (1, 5, 25, 100)
        traj = propagate_moments(model, schedule, 100, keep=ks)
        for k in ks:
            eigs = np.linalg.eigvalsh(traj.cov_at(k))
            assert eigs.min() >= -1e-12

    def test_monte_carlo_moment_oracle(self):
        """Empirical mean/cov of 20000 simulated x(5) within 4 stderr."""
        model, schedule = alt3_scenario()
        n_trials, k_stop = 20_000, 5
        rng = np.random.default_rng(99)
        x = None
        for k in range(1, k_stop + 1):
            ys = sample_observations(model, H1, rng, n_trials)
            etas = local_innovations(model, ys)
            if x is None:
                x = 3.0 * etas
            else:
                x = ((k - 1) / k) * (x @ schedule.weight_at(k - 1)) + (3.0 / k) * etas
        traj = propagate_moments(model, schedule, k_stop, keep=(k_stop,))
        mu, p = traj.mean_at(k_stop), traj.cov_at(k_stop)
        emp_mu = x.mean(axis=0)
        emp_p = np.cov(x.T)
        for i in range(3):
            se = math.sqrt(p[i, i] / n_trials)
            assert abs(emp_mu[i] - mu[i]) <= 4.0 * se
            for j in range(3):
                se_cov = math.sqrt((p[i, i] * p[j, j] + p[i, j] ** 2) / n_trials)
                assert abs(emp_p[i, j] - p[i, j]) <= 4.0 * se_cov

    def test_bad_horizon_rejected(self):
        model, schedule = alt3_scenario()
        with pytest.raises(ParameterError):
            propagate_moments(model, schedule, 0)


# ── error curves ──────────────────────────────────────────────────────────


class TestErrorCurves:
    def test_single_sensor_tail_oracle(self):
        """alpha(4) = Q(1) for the unit one-sensor model (scipy oracle)."""
        m = build_model([0.0], [1.0], [[1.0]])
        s = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        (curve,) = exact_error_curves(m, propagate_moments(m, s, 4), ks=[4])
        assert curve.alpha[0] == pytest.approx(norm.sf(1.0), rel=1e-12)
        assert curve.beta[0] == pytest.approx(norm.sf(1.0), rel=1e-12)

    def test_centralized_identity_model_oracle(self):
        curve = centralized_error_curve(identity_pair(), [4])
        assert curve.alpha[0] == pytest.approx(norm.sf(math.sqrt(2.0)), rel=1e-12)
        assert curve.node == "cen"

    def test_symmetric_hypotheses_balance_errors(self):
        model, schedule = alt3_scenario()
        for curve in exact_error_curves(model, propagate_moments(model, schedule, 30)):
            assert curve.log_alpha == pytest.approx(curve.log_beta, rel=1e-12)

    def test_priors_weight_the_total(self):
        model, schedule = alt3_scenario()
        curves = exact_error_curves(model, propagate_moments(model, schedule, 10), priors=(0.3, 0.7))
        for curve in curves:
            combined = 0.3 * curve.alpha + 0.7 * curve.beta
            assert curve.pe == pytest.approx(combined, rel=1e-12)

    def test_deep_tail_stays_in_log_space(self):
        curve = centralized_error_curve(identity_pair(), [200_000])
        assert np.isfinite(curve.log_pe[0])
        assert curve.log_pe[0] < -40_000.0
        assert curve.pe[0] == 0.0

    def test_degenerate_variance_rejected(self):
        m = identity_pair()
        flat = MomentTrajectory(
            means=np.zeros((3, 2)), variances=np.zeros((3, 2)), covariances=np.zeros((0, 2, 2))
        )
        with pytest.raises(DegenerateVariance):
            exact_error_curves(m, flat)

    def test_exponent_of_exact_curve_near_chernoff(self):
        """-(1/k) log pe at k = 1e4 within 10% of the Chernoff information."""
        m = identity_pair()
        curve = centralized_error_curve(m, [10_000])
        rate = -float(curve.log_pe[0]) / 10_000
        assert abs(rate - 0.25) <= 0.025

    def test_bad_priors_rejected(self):
        with pytest.raises(ParameterError):
            centralized_error_curve(identity_pair(), [4], priors=(0.5, 0.6))

    def test_bad_checkpoints_rejected(self):
        with pytest.raises(ParameterError):
            centralized_error_curve(identity_pair(), [0, 4])


# ── scaled cumulant and mixing residual ───────────────────────────────────


class TestScaledCumulant:
    def test_zero_argument(self):
        model, schedule = alt3_scenario()
        assert scaled_cumulant(model, schedule, H1, 10, 0.0, 1) == 0.0

    def test_single_node_exact_at_every_k(self):
        m = build_model([0.0], [1.0], [[1.0]])
        s = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        mu = 0.7
        expect = m.llr_mean1 * mu + m.llr_variance * mu * mu / 2.0
        for k in (1, 3, 17, 200):
            assert scaled_cumulant(m, s, H1, k, mu, 1) == pytest.approx(expect, rel=1e-12)

    def test_approaches_limit(self):
        model, schedule = alt3_scenario()
        mu = 0.5
        limit = model.llr_mean1 * mu + model.llr_variance * mu * mu / 2.0
        traj = propagate_moments(model, schedule, 1000)
        near = scaled_cumulant(model, schedule, H1, 1000, mu, 2, trajectory=traj)
        far = scaled_cumulant(model, schedule, H1, 10, mu, 2, trajectory=traj)
        assert abs(near - limit) < abs(far - limit)
        assert abs(near - limit) <= 2e-3 * max(1.0, mu * mu * model.llr_variance)


def full_drift(model, k, mu, node, hypothesis):
    """Ideal-averaging part of the scaled cumulant, last innovation included."""
    stats = innovation_stats(model)
    n = model.n_sensors
    m_eta = stats.mean(hypothesis)
    drift = (k - 1) / k * (
        model.llr_mean(hypothesis) * mu + model.llr_variance * mu * mu / 2.0
    )
    last = (n * mu * m_eta[node - 1] + (n * n / 2.0) * mu * mu * stats.cov[node - 1, node - 1]) / k
    return drift + last


def reference_residual(model, schedule, k, mu, node, hypothesis):
    """Residual value and bound at one (k, node, mu), one scalar at a time."""
    stats = innovation_stats(model)
    n = model.n_sensors
    jmat = np.full((n, n), 1.0 / n)
    a1, a2, a3 = np.zeros(n), np.zeros((n, n)), np.zeros(n)
    for j in range(1, k):
        tw = schedule.weight_at(j) - jmat
        a1 = tw @ (a1 + stats.mean1)
        a3 = tw @ (a3 + stats.cov @ np.ones(n))
        a2 = tw @ (a2 + stats.cov) @ tw.T
    i = node - 1
    sign = 1.0 if hypothesis == H1 else -1.0
    linear = (n / k) * mu * sign * a1[i]
    quadratic = (n * n / (2.0 * k)) * mu * mu * a2[i, i]
    crossed = (n / k) * mu * mu * a3[i]
    m_bar = float(np.abs(stats.mean1).max())
    s_bar = float(np.abs(stats.cov).max())
    b_bar = float(np.abs(stats.cov @ np.ones(n)).max()) / n
    env = contraction_bound(n, schedule.min_weight, schedule.window)
    theta, beta = env.amplitude, env.ratio
    a = abs(mu)
    first = (theta / k) * (n**2 * m_bar * a + n**3 * a * a * b_bar) / (1.0 - beta)
    second = (theta * theta / k) * (n**4 / 2.0) * a * a * s_bar / (1.0 - beta * beta)
    return linear + quadratic + crossed, first + second


class TestMixingResidual:
    def test_perfect_averaging_gives_exact_zero(self):
        model, schedule = pair_scenario()
        for k in (2, 5, 40):
            res = mixing_residual(model, schedule, k, 0.8, 1)
            assert res.value == 0.0
            assert res.bound > 0.0

    def test_exact_decomposition_cross_check(self):
        """Residual equals scaled cumulant minus the ideal-averaging drift."""
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, 60)
        for h in (H0, H1):
            for k in (2, 3, 9, 60):
                for mu in (-1.0, 0.3, 1.0):
                    for node in (1, 2, 3):
                        cum = scaled_cumulant(model, schedule, h, k, mu, node, trajectory=traj)
                        expect = cum - full_drift(model, k, mu, node, h)
                        res = mixing_residual(model, schedule, k, mu, node, hypothesis=h)
                        assert res.value == pytest.approx(expect, abs=1e-12)

    def test_bound_holds_on_alternating_schedule(self):
        model, schedule = alt3_scenario()
        ks, values, bounds = mixing_residual_curves(model, schedule, 200, (-1.0, -0.1, 0.1, 1.0))
        assert values.shape == (4, ks.size, 3)
        assert bounds.shape == (4, ks.size)
        assert np.all(np.abs(values) <= bounds[:, :, None])

    def test_scaled_residual_stays_bounded(self):
        """k * |value| must not grow: the bound is O(1/k)."""
        model, schedule = alt3_scenario()
        ks, values, bounds = mixing_residual_curves(model, schedule, 500, (0.5,))
        scaled = np.abs(values[0]) * ks[:, None]
        assert scaled[200:].max() <= scaled.max() + 1e-12
        assert np.isfinite(scaled).all()

    def test_hypothesis_flip_matches_sign_flip(self):
        model, schedule = alt3_scenario()
        for k in (2, 7, 33):
            a = mixing_residual(model, schedule, k, 0.6, 2, hypothesis=H0).value
            b = mixing_residual(model, schedule, k, -0.6, 2, hypothesis=H1).value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_short_horizon_rejected(self):
        model, schedule = alt3_scenario()
        with pytest.raises(IndexError):
            mixing_residual(model, schedule, 1, 0.5, 1)

    def test_curves_match_single_calls(self):
        """The whole-array sweep equals per-point calls and the scalar loop, bit for bit."""
        model, schedule = alt3_scenario()
        mus = (-1.0, -0.1, 0.1, 1.0)
        for h in (H0, H1):
            ks, values, bounds = mixing_residual_curves(model, schedule, 12, mus, hypothesis=h)
            assert ks.tolist() == list(range(2, 13))
            for m, mu in enumerate(mus):
                for k in (2, 7, 12):
                    for node in (1, 2, 3):
                        single = mixing_residual(model, schedule, k, mu, node, hypothesis=h)
                        value, bound = reference_residual(model, schedule, k, mu, node, h)
                        assert values[m, k - 2, node - 1] == single.value == value
                        assert bounds[m, k - 2] == single.bound == bound
