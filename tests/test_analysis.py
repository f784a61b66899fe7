"""Unit tests for rate functions, moment propagation and error curves.

Oracles: hand plug-in arithmetic for quadratic forms, scipy.stats normal
tails for curve values, Monte Carlo for the log-MGF and the propagated
moments, and the exact-decomposition cross-check for the mixing residual.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, logsumexp
from scipy.stats import norm

from cdlab import analysis, network
from cdlab.analysis import (
    MomentTrajectory,
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    log_q_function,
    mixing_residual_curves,
    propagate_moments,
    ResidualCurves,
)
from cdlab.errors import DegenerateVariance, ParameterError
from cdlab.experiment import ExperimentPlan, Thresholds
from cdlab.model import Hypothesis, build_model, innovation_stats
from cdlab.network import ScheduleSpec, WeightSchedule, _PaddedRows, build_schedule
from corpus import CORPUS, build_scenario
from oracles import (
    MaximizerAtBoundary,
    ThresholdOutOfRange,
    fenchel_legendre,
    fixed_threshold_rates,
    kept_covariance,
    llr,
    local_innovations,
    log_mgf,
    moments_at_k,
    rate_function,
    residual_cube,
    sample_observations,
    scaled_cumulant,
    weight_at,
)

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

    def test_log_tail_matches_log_ndtr(self):
        """Every branch and both sides of each switch (x = 1, x = 30) against
        log_ndtr(-x).  Measured relative deviation: 8.6e-16 for x >= -1 and
        5.7e-14 on [-37, -1), where log_ndtr's erfc loses about x^2 ulps;
        below x = -37, where both lie within 1e-299 of 0, the absolute
        deviation is 5.8e-311."""
        xs = np.concatenate([
            np.linspace(-37.0, 40.0, 7701),
            np.nextafter([1.0, 1.0, 30.0, 30.0], [0.0, 2.0, 0.0, 31.0]),
            np.geomspace(40.0, 1e8, 400),
        ])
        got, ref = log_q_function(xs), log_ndtr(-xs)
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel[xs >= -1.0].max() <= 2e-15
        assert rel.max() <= 1e-13
        deep = np.linspace(-60.0, -37.0, 2301)
        assert np.abs(log_q_function(deep) - log_ndtr(-deep)).max() <= 1e-308
        specials = np.array([np.inf, -np.inf, np.nan])
        np.testing.assert_array_equal(log_q_function(specials), log_ndtr(-specials))

    def test_log_tail_keeps_shape(self):
        scalar = log_q_function(2.0)
        assert scalar.shape == ()
        assert float(scalar) == pytest.approx(math.log(norm.sf(2.0)), rel=1e-14)
        assert log_q_function(np.ones((2, 3))).shape == (2, 3)
        assert log_q_function([]).shape == (0,)


# ── rate function, Chernoff information, log-MGF ──────────────────────────


class TestRateFunction:
    def test_zero_at_own_mean(self):
        m = correlated_pair()
        assert rate_function(m, H0, -m.llr_variance / 2.0) == 0.0
        assert rate_function(m, H1, m.llr_variance / 2.0) == 0.0

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
        grid = np.linspace(-m.llr_variance / 2.0 - 2 * sigma, m.llr_variance / 2.0 + 2 * sigma, 41)
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
        for gamma in (-m.llr_variance / 2.0, m.llr_variance / 2.0, -5.0, 5.0):
            with pytest.raises(ThresholdOutOfRange):
                fixed_threshold_rates(m, gamma)

    @given(st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_rates_strictly_negative(self, frac):
        m = correlated_pair()
        gamma = frac * m.llr_variance / 2.0
        a, b = fixed_threshold_rates(m, gamma)
        assert a < 0.0
        assert b < 0.0

    def test_tail_slope_oracle(self):
        """(1/k) log of the exact Gaussian tails approaches both rates."""
        m = identity_pair()
        gamma, k = 0.5, 4000
        sigma = math.sqrt(m.llr_variance)
        a_rate, b_rate = fixed_threshold_rates(m, gamma)
        log_alpha = float(log_q_function((gamma + m.llr_variance / 2.0) * math.sqrt(k) / sigma))
        log_beta = float(log_q_function((m.llr_variance / 2.0 - gamma) * math.sqrt(k) / sigma))
        assert log_alpha / k == pytest.approx(a_rate, abs=2e-3)
        assert log_beta / k == pytest.approx(b_rate, abs=2e-3)


# ── moment propagation ────────────────────────────────────────────────────


def reference_moments_h0(model, schedule, k_max):
    """Plain full-covariance recursion under H0, every P(k) kept."""
    m_eta, s_eta = innovation_stats(model)
    m_eta = -m_eta  # the H0 innovation mean
    n = model.n_sensors
    mu = n * m_eta
    p = n * n * s_eta
    means, covs = [mu], [p]
    for k in range(1, k_max):
        w = weight_at(schedule, k)
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
        traj = propagate_moments(m, s, range(1, 41), keep=(1, 2, 7, 40))
        for k in (1, 2, 7, 40):
            assert moments_at_k(traj, k)[0][0] == pytest.approx(m.llr_variance / 2.0, rel=1e-12)
            assert kept_covariance(traj, k)[0, 0] == pytest.approx(m.llr_variance / k, rel=1e-12)
            assert traj.variances[k - 1, 0] == kept_covariance(traj, k)[0, 0]

    def test_consensus_moment_identities(self):
        """Node-average H0 mean stays the H0 llr mean -sigma2/2, grand covariance sum sigma2/k."""
        model, schedule = alt3_scenario()
        ks = (1, 2, 3, 10, 50, 200)
        traj = propagate_moments(model, schedule, range(1, 201), keep=ks)
        for k in ks:
            avg = float((-moments_at_k(traj, k)[0]).mean())
            llr_mean0 = -model.llr_variance / 2.0
            assert abs(avg - llr_mean0) <= 1e-10 * max(1.0, abs(llr_mean0))
            total = float(kept_covariance(traj, k).sum()) / 9.0
            assert total == pytest.approx(model.llr_variance / k, rel=1e-10)

    def test_hypothesis_symmetry_is_exact(self, two_matching_ring):
        """The one H1 pass serves H0 bit for bit.

        The reference recursion is driven by the H0 innovation mean, so the
        stored means negated, the stored variances and the kept matrices
        must equal it exactly, on an alternating and a random-subgraph
        schedule and on a 64-node ring propagated through padded operators.
        The fused padded update sums in its own order, so on the ring the
        variances and kept covariances match the plain recursion within
        4e-15 relative (seen: 7.8e-16), the covariances relative to their
        largest entry.
        """
        rand5_model, rand5_schedule, _ = build_scenario("rand5")
        idx = np.arange(64)
        ring_model = build_model(np.zeros(64), 0.3 * np.ones(64), 0.5 ** np.abs(idx[:, None] - idx))
        cases = [
            (*alt3_scenario(), 60),
            (rand5_model, rand5_schedule, 60),
            (ring_model, build_schedule(two_matching_ring(64)), 200),
        ]
        for model, schedule, k_max in cases:
            keep = (1, 7, k_max)
            traj = propagate_moments(model, schedule, range(1, k_max + 1), keep=keep)
            means0, covs = reference_moments_h0(model, schedule, k_max)
            assert np.array_equal(-traj.means, means0)
            assert np.array_equal(-moments_at_k(traj, 7)[0], means0[6])
            kept = covs[[k - 1 for k in keep]]
            if type(schedule.operators()[0]) is _PaddedRows:
                np.testing.assert_allclose(traj.variances, np.diagonal(covs, axis1=1, axis2=2), rtol=4e-15, atol=0.0)
                assert np.all(np.abs(traj.covariances - kept) <= 4e-15 * np.abs(kept).max(axis=(1, 2), keepdims=True))
            else:
                assert np.array_equal(traj.variances, np.diagonal(covs, axis1=1, axis2=2))
                assert np.array_equal(traj.covariances, kept)

    def test_only_kept_covariances_are_stored(self):
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 31), keep=(30, 4, 4))
        assert traj.keep == (4, 30)
        assert traj.covariances.shape == (2, 3, 3)
        assert np.array_equal(np.diagonal(traj.covariances, axis1=1, axis2=2), traj.variances[[3, 29]])
        assert propagate_moments(model, schedule, range(1, 31)).covariances.shape == (0, 3, 3)
        for keep in ((0,), (31,)):
            with pytest.raises(ParameterError):
                propagate_moments(model, schedule, range(1, 31), keep=keep)

    def test_mean_outside_horizon_rejected(self):
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 31))
        for k in (0, -1, 31):
            with pytest.raises(ParameterError):
                traj.moments_at([k])

    def test_covariances_stay_psd(self):
        model, schedule = alt3_scenario()
        ks = (1, 5, 25, 100)
        traj = propagate_moments(model, schedule, range(1, 101), keep=ks)
        for k in ks:
            eigs = np.linalg.eigvalsh(kept_covariance(traj, k))
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
                x = ((k - 1) / k) * (x @ weight_at(schedule, k - 1)) + (3.0 / k) * etas
        traj = propagate_moments(model, schedule, range(1, k_stop + 1), keep=(k_stop,))
        mu, p = moments_at_k(traj, k_stop)[0], kept_covariance(traj, k_stop)
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
            propagate_moments(model, schedule, range(1, 1))

    def test_non_integer_k_rejected_not_truncated(self):
        """A visited or kept k must be an integer: 2.7 is not read as 2, nor True as 1."""
        model, schedule = alt3_scenario()
        for ks, keep in (([2.7, 3.2], ()), ([2, 3], [3.9]), ([True, 3], ()), ([2, 3], [np.float64(3.0)])):
            with pytest.raises(ParameterError, match="must be an integer"):
                propagate_moments(model, schedule, ks, keep=keep)
        traj = propagate_moments(model, schedule, np.arange(1, 6), keep=[np.int32(5)])
        assert traj.ks.tolist() == [1, 2, 3, 4, 5] and traj.keep == (5,)
        assert type(traj.keep[0]) is int


# Every entry point that takes a k, a set of k or a count refuses a
# non-integer: 2.7 is not read as 2, nor True as 1, nor left to fail deeper in.
NON_INTEGER_K_CALLS = {
    "exact_error_curves": lambda m, s, traj: exact_error_curves(traj, ks=[2.7]),
    "centralized_error_curve": lambda m, s, traj: centralized_error_curve(m, [2.7]),
    "centralized_error_curve-bool": lambda m, s, traj: centralized_error_curve(m, [True]),
    "moments_at": lambda m, s, traj: traj.moments_at([4, 2.7]),
    "ExperimentPlan": lambda m, s, traj: ExperimentPlan(m, s, (10, 2.7), 100, 0),
    "Thresholds-k_early": lambda m, s, traj: Thresholds(k_early=99.9),
    "Thresholds-k_late": lambda m, s, traj: Thresholds(k_late=500.5),
    "Thresholds-mc_min_trials": lambda m, s, traj: Thresholds(mc_min_trials=True),
    "mixing_residual_curves": lambda m, s, traj: mixing_residual_curves(m, s, traj, [10.0]),
}


@pytest.mark.parametrize("call", NON_INTEGER_K_CALLS.values(), ids=NON_INTEGER_K_CALLS)
def test_non_integer_k_refused_at_every_entry_point(call):
    model, schedule = alt3_scenario()
    traj = propagate_moments(model, schedule, range(1, 21))
    with pytest.raises(ParameterError, match="must be an integer"):
        call(model, schedule, traj)


def test_curves_come_back_at_sorted_distinct_k():
    model, schedule = alt3_scenario()
    traj = propagate_moments(model, schedule, range(1, 21))
    assert exact_error_curves(traj, ks=[9, 3, 9])[0].ks.tolist() == [3, 9]
    assert centralized_error_curve(model, [9, 3, 9]).ks.tolist() == [3, 9]
    means, _ = traj.moments_at([9, 3, 9])
    assert np.array_equal(means, traj.means[[2, 8]])


# The jump's log tails agree with stepping within 1.4e-14 relative over
# the cases below (largest on correlated2); the tolerance is about 75 times that.
JUMP_REL_TOL = 1e-12


def log_tails(model, traj, ks):
    return np.array([curve.log_alpha for curve in exact_error_curves(traj, ks=ks)])


def ring64(two_matching_ring):
    idx = np.arange(64)
    model = build_model(np.zeros(64), 0.3 * np.ones(64), 0.5 ** np.abs(idx[:, None] - idx))
    return model, build_schedule(two_matching_ring(64))


real_jump = analysis._jump


def past_horizon(*checkpoints):
    """Every k up to 512, then ``checkpoints``: the visit set of analyze."""
    return [*range(1, 513), *checkpoints]


class TestJumpPastTheHorizon:
    @pytest.mark.parametrize("name", CORPUS)
    def test_jump_matches_stepping_on_the_corpus(self, name):
        """From k = 512 to 513, 1000, 1001 and 8192, each from the one before:
        single steps, jumps with one and three leftover steps for P = 2 and
        P = 4, and a deep jump."""
        model, schedule, _ = build_scenario(name)
        targets = [513, 1000, 1001, 8192]
        stepped = propagate_moments(model, schedule, range(1, max(targets) + 1))
        jumped = propagate_moments(model, schedule, past_horizon(*targets))
        assert jumped.ks.tolist() == past_horizon(*targets)
        want = log_tails(model, stepped, targets)
        assert np.all(np.isfinite(want))
        np.testing.assert_allclose(log_tails(model, jumped, targets), want, rtol=JUMP_REL_TOL, atol=0.0)

    def test_jump_matches_stepping_through_sparse_operators(self, two_matching_ring):
        """A 64-node two-matching ring steps through padded factors; the jump is dense."""
        model, schedule = ring64(two_matching_ring)
        assert all(type(op) is _PaddedRows for op in schedule.operators())
        stepped = propagate_moments(model, schedule, range(1, 1025))
        jumped = propagate_moments(model, schedule, past_horizon(1024))
        np.testing.assert_allclose(
            log_tails(model, jumped, [1024]), log_tails(model, stepped, [1024]), rtol=JUMP_REL_TOL, atol=0.0
        )

    def test_padded_steps_match_dense_steps(self, two_matching_ring, monkeypatch):
        """ring64 propagated to k = 1024 through padded factors matches the same
        schedule with every factor dense at every k: means and variances
        within 4e-15 relative (seen: 9.6e-16)."""
        model, schedule = ring64(two_matching_ring)
        padded = propagate_moments(model, schedule, range(1, 1025))
        monkeypatch.setattr(network, "SPARSE_MIN_NODES", 65)
        assert all(type(op) is np.ndarray for op in schedule.operators())
        dense = propagate_moments(model, schedule, range(1, 1025))
        np.testing.assert_allclose(padded.means, dense.means, rtol=4e-15, atol=0.0)
        np.testing.assert_allclose(padded.variances, dense.variances, rtol=4e-15, atol=0.0)

    def test_padded_covariance_stays_symmetric(self, two_matching_ring, irregular64):
        """The fused padded update does not symmetrize: at k = 1024 the
        asymmetry max |P - P'| stays within 8 eps of max |P| (seen: 1.4 eps
        on ring64 and 2.2 eps on the irregular schedule, 1 to 4 nonzeros a row)."""
        model, ring = ring64(two_matching_ring)
        for schedule in (ring, irregular64):
            p = propagate_moments(model, schedule, range(1, 1025), keep=(1024,)).covariances[0]
            assert np.abs(p - p.T).max() <= 8 * np.finfo(float).eps * np.abs(p).max()

    def test_dense_grid_past_the_horizon_is_stepped(self, two_matching_ring, monkeypatch):
        """Gaps too short for squaring to pay are stepped by the stepping body,
        so every k of a dense grid past the horizon matches stepping bit for bit."""
        jumps = []
        monkeypatch.setattr(analysis, "_jump", lambda *a: jumps.append(a[-1]) or real_jump(*a))
        model, schedule = ring64(two_matching_ring)
        stepped = propagate_moments(model, schedule, range(1, 701))
        grid = propagate_moments(model, schedule, past_horizon(*range(513, 701)))
        assert jumps == []
        ks = np.arange(513, 701)
        means, variances = grid.moments_at(ks)
        assert np.array_equal(means, stepped.means[ks - 1])
        assert np.array_equal(variances, stepped.variances[ks - 1])
        # gaps of 8, 180, 1 and 999299 steps: the second pays as a jump, and the
        # last comes off the chain, with the same bits as when it is visited alone
        deep = propagate_moments(model, schedule, past_horizon(520, 700, 701, 10**6))
        assert jumps == [90]
        alone = propagate_moments(model, schedule, [10**6])
        assert jumps == [90]
        assert np.array_equal(deep.moments_at([10**6])[0], alone.means)
        assert np.array_equal(deep.moments_at([10**6])[1], alone.variances)

    def test_memory_past_the_horizon_does_not_grow_with_checkpoints(self, two_matching_ring):
        """Between visits only the current N x N state, the squaring chain and
        at most two pending states are held: 1524 stepped checkpoints past the
        horizon, 200 jumped ones (100, 200, ..., 20000) and the doubling
        checkpoints with 100 and 500, folded from the chain, on the 64-node
        ring each peak within 32 N x N matrices (32 kB each) of what the
        returned moments hold.  A covariance per checkpoint would take 50 MB
        for the first, and a state per pending visit about 7 MB for the
        second.  The padded factors and their gather targets are built inside
        the traced call, so they count too."""
        model, schedule = ring64(two_matching_ring)
        visit_sets = (past_horizon(*range(513, 1537), *range(1600, 4096, 5)), list(range(100, 20001, 100)), self.GEOMETRIC)
        for visits in visit_sets:
            tracemalloc.start()
            try:
                traj = propagate_moments(model, schedule, visits)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = traj.ks.nbytes + traj.means.nbytes + traj.variances.nbytes
            assert traj.ks.tolist() == visits
            assert peak < held + 32 * 64 * 64 * 8, f"{len(visits)} visits up to {visits[-1]}"

    GEOMETRIC = sorted({*[2**i for i in range(11)], 100, 500})

    @pytest.mark.parametrize(
        "visits, compositions, products",
        [
            (GEOMETRIC, 17, 44),  # 29 and 80 when the jumps to 100 and 500 rebuilt the chain's squares
            ([1, 10**6], 25, 69),  # 30 and 79
            (past_horizon(520, 700, 701, 10**6), 36, 98),  # 42 and 110
            ([*GEOMETRIC, 10**9], 48, 125),  # 71 and 193
            (list(range(100, 20001, 100)), 1791, 4776),  # 1800 and 4800
        ],
        ids=["geometric", "lone-deep", "past-horizon", "geometric-deep", "linear"],
    )
    def test_compositions_guard_the_plan(self, visits, compositions, products, two_matching_ring, monkeypatch):
        """The plan of propagate_moments, counted in dense N x N compositions on
        the 64-node ring (period 2), not timed, and in dense products: 3 for a
        map after a map, 2 for a map after a state.  The doubling checkpoints
        come off the squaring chain at one composition each, 100 and 500 fold
        the chain's levels at their binary digits and then take its top, and a
        set the chain does not serve costs at most what it did when every jump
        built its own squares."""
        calls = []
        real = analysis._compose
        monkeypatch.setattr(analysis, "_compose", lambda *a: calls.append(2 if a[0][0] is None else 3) or real(*a))
        model, schedule = ring64(two_matching_ring)
        propagate_moments(model, schedule, visits)
        assert len(calls) <= compositions
        assert sum(calls) <= products

    @pytest.mark.parametrize("later", [[10**9], [700, 3000, 10**6]], ids=["deep", "mixed"])
    def test_later_visits_leave_earlier_bits_alone(self, later, two_matching_ring):
        """Each visit's route is planned from the visits at or before it, so
        adding later visits leaves every earlier one the same bits."""
        model, schedule = ring64(two_matching_ring)
        alone = propagate_moments(model, schedule, self.GEOMETRIC)
        more = propagate_moments(model, schedule, [*self.GEOMETRIC, *later])
        assert np.array_equal(more.moments_at(self.GEOMETRIC)[0], alone.means)
        assert np.array_equal(more.moments_at(self.GEOMETRIC)[1], alone.variances)

    def test_scaled_cumulant_reads_jumped_moments(self):
        model, schedule, _ = build_scenario("ref3")
        stepped = propagate_moments(model, schedule, range(1, 5001))
        jumped = propagate_moments(model, schedule, past_horizon(5000))
        for mu in (-1.0, 0.1):
            want = scaled_cumulant(model, schedule, H1, 5000, mu, 2, trajectory=stepped)
            got = scaled_cumulant(model, schedule, H1, 5000, mu, 2, trajectory=jumped)
            assert got == pytest.approx(want, rel=JUMP_REL_TOL)
        with pytest.raises(ParameterError):
            scaled_cumulant(model, schedule, H1, 4999, 0.1, 2, trajectory=jumped)

    def test_stepped_moments_ignore_deeper_checkpoints(self):
        """Every k up to the horizon is bit-identical with and without a jump requested."""
        model, schedule, _ = build_scenario("rand5")
        alone = propagate_moments(model, schedule, past_horizon(*range(1, 513)), keep=(7, 512))
        deep = propagate_moments(model, schedule, past_horizon(1, 300, 512, 10**9), keep=(7, 512))
        assert alone.ks.tolist() == past_horizon()
        assert deep.ks.tolist() == past_horizon(10**9)
        assert np.array_equal(deep.means[:512], alone.means)
        assert np.array_equal(deep.variances[:512], alone.variances)
        assert np.array_equal(deep.covariances, alone.covariances)
        ks = np.arange(1, 513)
        assert np.array_equal(log_tails(model, deep, ks), log_tails(model, alone, ks))

    def test_lookups_answer_jumped_checkpoints(self):
        model, schedule = alt3_scenario()
        stepped = propagate_moments(model, schedule, range(1, 101))
        traj = propagate_moments(model, schedule, [*range(1, 31), 5, 33, 100])
        assert traj.ks.tolist() == [*range(1, 31), 33, 100]
        for got, want in zip(traj.moments_at([33, 100]), stepped.moments_at([33, 100])):
            np.testing.assert_allclose(got, want, rtol=1e-13)
        assert [int(k) for k in exact_error_curves(traj)[0].ks] == [*range(1, 31), 33, 100]
        for k in (31, 34, 101):
            with pytest.raises(ParameterError):
                traj.moments_at([k])
            with pytest.raises(ParameterError):
                exact_error_curves(traj, ks=[30, k])

    def test_billionth_step_is_finite(self):
        """ref3 at k = 1e9: log10 pe about -3.26e7, through the series branch of log Q."""
        model, schedule, _ = build_scenario("ref3")
        traj = propagate_moments(model, schedule, past_horizon(10**6, 10**9))
        for curve in exact_error_curves(traj, ks=[10**6, 10**9]):
            assert np.all(np.isfinite(curve.log_pe))
            assert curve.log10_pe[1] == pytest.approx(-3.26e7, rel=2e-3)
            assert curve.log10_pe[0] == pytest.approx(-3.26e4, rel=2e-3)


# ── error curves ──────────────────────────────────────────────────────────


class TestErrorCurves:
    def test_single_sensor_tail_oracle(self):
        """alpha(4) = Q(1) for the unit one-sensor model (scipy oracle)."""
        m = build_model([0.0], [1.0], [[1.0]])
        s = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        (curve,) = exact_error_curves(propagate_moments(m, s, range(1, 5)), ks=[4])
        assert curve.alpha[0] == pytest.approx(norm.sf(1.0), rel=1e-12)
        assert curve.beta[0] == pytest.approx(norm.sf(1.0), rel=1e-12)

    def test_centralized_identity_model_oracle(self):
        curve = centralized_error_curve(identity_pair(), [4])
        assert curve.alpha[0] == pytest.approx(norm.sf(math.sqrt(2.0)), rel=1e-12)
        assert curve.node == "cen"

    def test_symmetric_hypotheses_balance_errors(self):
        model, schedule = alt3_scenario()
        for curve in exact_error_curves(propagate_moments(model, schedule, range(1, 31))):
            assert curve.log_alpha == pytest.approx(curve.log_beta, rel=1e-12)

    @pytest.mark.parametrize("name", CORPUS)
    def test_exact_pe_is_alpha_and_beta(self, name):
        """alpha = beta, so the Bayes error (alpha + beta) / 2 is the same log tail, element for element."""
        model, schedule, config = build_scenario(name)
        ks = config.checkpoints
        curves = exact_error_curves(propagate_moments(model, schedule, ks)) + [centralized_error_curve(model, ks)]
        for curve in curves:
            assert np.array_equal(curve.log_pe, curve.log_alpha)
            assert np.array_equal(curve.log_pe, curve.log_beta)

    def test_deep_tail_stays_in_log_space(self):
        curve = centralized_error_curve(identity_pair(), [200_000])
        assert np.isfinite(curve.log_pe[0])
        assert curve.log_pe[0] < -40_000.0
        assert curve.pe[0] == 0.0

    def test_log10_pe_is_the_base_ten_log(self):
        """On ref3's checkpoints, where pe stays above 1e-300, log10_pe is log10(pe)."""
        model, schedule, config = build_scenario("ref3")
        ks = config.checkpoints
        for curve in exact_error_curves(propagate_moments(model, schedule, ks), ks=ks):
            assert np.all(curve.pe > 1e-300)
            np.testing.assert_allclose(curve.log10_pe, np.log10(curve.pe), rtol=1e-12, atol=0.0)

    def test_degenerate_variance_rejected(self):
        """A negative or non-finite variance is an error; 0 is not (below)."""
        m = identity_pair()
        for bad in (-1e-300, np.nan, np.inf):
            variances = np.zeros((3, 2))
            variances[1, 1] = bad
            flat = MomentTrajectory(
                ks=np.arange(1, 4), means=np.zeros((3, 2)), variances=variances, covariances=np.zeros((0, 2, 2))
            )
            with pytest.raises(DegenerateVariance, match="node 2"):
                exact_error_curves(flat)

    def test_zero_variance_is_its_mean(self):
        """At variance 0 the statistic is its H1 mean mu, -mu under H0, and ties
        decide the null: alpha = 1{-mu > 0}, beta = 1{mu <= 0}.  Rows at
        positive variance keep the Gaussian tail."""
        m = identity_pair()
        means = np.array([[1.0, 0.0], [-2.0, 0.5], [0.3, 1.0]])
        variances = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 4.0]])
        traj = MomentTrajectory(ks=np.arange(1, 4), means=means, variances=variances, covariances=np.zeros((0, 2, 2)))
        first, second = exact_error_curves(traj)
        np.testing.assert_array_equal(first.alpha, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(first.beta, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(first.pe, [0.0, 1.0, 0.0])
        assert (second.alpha[0], second.beta[0], second.pe[0]) == (0.0, 1.0, 0.5)
        tail = norm.logsf([0.5, 0.5])
        for log in (second.log_alpha, second.log_beta, second.log_pe):
            np.testing.assert_allclose(log[1:], tail, rtol=1e-14)

    def test_exponent_of_exact_curve_near_chernoff(self):
        """-(1/k) log pe at k = 1e4 within 10% of the Chernoff information."""
        m = identity_pair()
        curve = centralized_error_curve(m, [10_000])
        rate = -float(curve.log_pe[0]) / 10_000
        assert abs(rate - 0.25) <= 0.025

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
        expect = m.llr_variance / 2.0 * mu + m.llr_variance * mu * mu / 2.0
        for k in (1, 3, 17, 200):
            assert scaled_cumulant(m, s, H1, k, mu, 1) == pytest.approx(expect, rel=1e-12)

    def test_approaches_limit(self):
        model, schedule = alt3_scenario()
        mu = 0.5
        limit = model.llr_variance / 2.0 * mu + model.llr_variance * mu * mu / 2.0
        traj = propagate_moments(model, schedule, range(1, 1001))
        near = scaled_cumulant(model, schedule, H1, 1000, mu, 2, trajectory=traj)
        far = scaled_cumulant(model, schedule, H1, 10, mu, 2, trajectory=traj)
        assert abs(near - limit) < abs(far - limit)
        assert abs(near - limit) <= 2e-3 * max(1.0, mu * mu * model.llr_variance)


def full_drift(model, k, mu, node, hypothesis):
    """Ideal-averaging part of the scaled cumulant, last innovation included."""
    m_eta, s_eta = innovation_stats(model)
    sign = 1.0 if hypothesis == H1 else -1.0
    n = model.n_sensors
    drift = (k - 1) / k * (sign * model.llr_variance / 2.0 * mu + model.llr_variance * mu * mu / 2.0)
    last = (n * mu * sign * m_eta[node - 1] + (n * n / 2.0) * mu * mu * s_eta[node - 1, node - 1]) / k
    return drift + last


def reference_residual(model, schedule, k_max, mu, hypothesis):
    """Residual values (k_max - 1, n) at tilt mu, and the bound's terms c1 and c2, each
    (k_max - 1,), of |mu| and mu^2, for k = 2..k_max.

    The independent definition: the disagreement products tPhi(k, j), the
    backward products minus J, summed one step at a time.
    """
    m_eta, s_eta = innovation_stats(model)
    n = model.n_sensors
    jmat = np.full((n, n), 1.0 / n)
    sign = 1.0 if hypothesis == H1 else -1.0
    m_bar = float(np.abs(m_eta).max())
    s_bar = float(np.abs(s_eta).max())
    b_bar = float(np.abs(s_eta @ np.ones(n)).max()) / n
    env = schedule.envelope
    theta, beta = env.amplitude, env.ratio
    a1, a2, a3 = np.zeros(n), np.zeros((n, n)), np.zeros(n)
    values, c1, c2 = [], [], []
    for j in range(1, k_max):
        tw = weight_at(schedule, j) - jmat
        a1 = tw @ (a1 + m_eta)
        a3 = tw @ (a3 + s_eta @ np.ones(n))
        a2 = tw @ (a2 + s_eta) @ tw.T
        k = j + 1
        linear = (n / k) * mu * sign * a1
        quadratic = (n * n / (2.0 * k)) * mu * mu * np.diag(a2)
        crossed = (n / k) * mu * mu * a3
        values.append(linear + quadratic + crossed)
        c1.append((theta / k) * n**2 * m_bar / (1.0 - beta))
        c2.append((theta / k) * n**3 * b_bar / (1.0 - beta) + (theta * theta / k) * (n**4 / 2.0) * s_bar / (1.0 - beta * beta))
    return np.array(values), np.array(c1), np.array(c2)


# The residual is read off the moment trajectory by subtracting the
# ideal-averaging part from the scaled cumulant's two terms, mu * mean_i(k)
# and (k/2) mu^2 var_i(k).  Those carry the rounding of k propagation steps,
# each with N-term inner products, so the floor is N * k * eps times the size
# of the two terms.  Against the disagreement-product loop up to k = 512 (both
# hypotheses, every TILTS) the largest fraction of the floor used is
# 0.15 on the corpus (ref3) and 0.07 on the 256-node benchmark ring.


def rounding_floor(traj, ks, mu):
    """Allowed rounding of the residual at (ks, node) for tilt mu, shape (len(ks), n)."""
    ks = np.asarray(ks)
    col = ks[:, None]
    size = np.abs(mu * traj.means[ks - 1]) + (col / 2.0) * mu * mu * traj.variances[ks - 1]
    return traj.means.shape[1] * col * np.finfo(float).eps * size


# the tilts that residual tests sample, beside the closed form over every tilt
TILTS = (-1.0, -0.1, 0.1, 1.0)


class TestMixingResidual:
    def test_perfect_averaging_gives_exact_zero(self):
        """W = J leaves no disagreement: the residual is zero up to its rounding floor."""
        model, schedule = pair_scenario()
        traj = propagate_moments(model, schedule, range(1, 41))
        ks, values, bounds = residual_cube(model, schedule, traj, range(2, 41), (0.8,))
        assert np.all(np.abs(values[0]) <= rounding_floor(traj, ks, 0.8))
        assert np.all(bounds > 0.0)

    def test_exact_decomposition_cross_check(self):
        """Residual equals scaled cumulant minus the ideal-averaging drift."""
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 61))
        mus = (-1.0, 0.3, 1.0)
        for h in (H0, H1):
            _, values, _ = residual_cube(model, schedule, traj, range(2, 61), mus, hypothesis=h)
            for k in (2, 3, 9, 60):
                for m, mu in enumerate(mus):
                    for node in (1, 2, 3):
                        cum = scaled_cumulant(model, schedule, h, k, mu, node, trajectory=traj)
                        expect = cum - full_drift(model, k, mu, node, h)
                        assert values[m, k - 2, node - 1] == pytest.approx(expect, abs=1e-12)

    def test_bound_holds_on_alternating_schedule(self):
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 201))
        ks, values, bounds = residual_cube(model, schedule, traj, range(2, 201), TILTS)
        assert values.shape == (4, ks.size, 3)
        assert bounds.shape == (4, ks.size)
        assert np.all(np.abs(values) <= bounds[:, :, None])

    def test_scaled_residual_stays_bounded(self):
        """k * |value| must not grow: the bound is O(1/k)."""
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 501))
        ks, values, bounds = residual_cube(model, schedule, traj, range(2, 501), (0.5,))
        scaled = np.abs(values[0]) * ks[:, None]
        assert scaled[200:].max() <= scaled.max() + 1e-12
        assert np.isfinite(scaled).all()

    def test_hypothesis_flip_matches_sign_flip(self):
        """The shipped H1 rows at -0.6 are the H0 product sums at 0.6."""
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 34))
        ks, values, _ = residual_cube(model, schedule, traj, range(2, 34), (-0.6,))
        value, _, _ = reference_residual(model, schedule, 33, 0.6, H0)
        assert np.all(np.abs(values[0] - value) <= rounding_floor(traj, ks, 0.6))

    def test_tie_rule(self):
        """The one summary rule: each node is the lowest within a relative 1e-12 of the maximum, or
        the first NaN; the supremum's witness is the lowest node, then the earliest k, and its tilt
        0 where |a| / c1 wins, else the sign of a b, 1 where a b = 0."""
        ks = np.array([2, 3, 4])
        a = np.array([[1.0, -(1.0 + 5e-13), 0.5], [0.0, np.nan, np.nan], [0.0, 0.0, 0.0]])
        b = np.array([[0.0, 2.0, -2.0 * (1.0 + 2e-12)], [3.0, 3.0, 1.0], [0.0, 0.0, -0.0]])
        c1, c2 = np.array([4.0, 2.0, 1.0]), np.array([4.0, 2.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peaks = list(ResidualCurves(ks, a, b, c1, c2).peaks())
        assert [(k, node_a, node_b) for k, _, node_a, _, _, node_b, _ in peaks] == [(2, 1, 3), (3, 2, 1), (4, 1, 1)]
        k, peak_a, _, c1_2, peak_b, _, c2_2 = peaks[0]
        assert (peak_a, peak_b, c1_2, c2_2) == (1.0 + 5e-13, 2.0 * (1.0 + 2e-12), 4.0, 4.0)
        assert type(peak_a) is float and type(peak_b) is float and math.isnan(peaks[1][1])
        # ratios (|a| + |b|) / (c1 + c2) at k = 2: 1/8, (3 + 5e-13)/8, (2.5 + 4e-12)/8; at k = 4 all 0
        sup = ResidualCurves(ks[[0, 2]], a[[0, 2]], b[[0, 2]], c1[[0, 2]], c2[[0, 2]]).supremum()
        assert sup == {"sup_abs_over_bound": (1.0 + 5e-13 + 2.0) / 8.0, "node": 2, "k": 2, "tilt": -1.0}
        sup = ResidualCurves(ks[[0, 2]], a[[0, 2]] * 100.0, np.zeros((2, 3)), c1[[0, 2]], c2[[0, 2]]).supremum()
        assert sup == {"sup_abs_over_bound": 100.0 * (1.0 + 5e-13) / 4.0, "node": 1, "k": 2, "tilt": 0.0}
        sup = ResidualCurves(ks[[2]], a[[2]], b[[2]], c1[[2]], c2[[2]]).supremum()
        assert sup == {"sup_abs_over_bound": 0.0, "node": 1, "k": 4, "tilt": 0.0}
        sup = ResidualCurves(ks[[0]], np.zeros((1, 3)), -b[[0]], c1[[0]], c2[[0]]).supremum()
        assert sup["node"] == 3 and sup["tilt"] == 1.0
        assert math.isnan(ResidualCurves(ks, a, b, c1, c2).supremum()["sup_abs_over_bound"])

    def test_disconnected_schedule_has_no_bound(self):
        """With no connected window there is no envelope, as report_header and
        check_geometric_decay report it: the bound terms are None, each k still
        has its peaks and nodes, and there is no supremum."""
        model, _ = alt3_scenario()
        schedule = WeightSchedule(matrices=np.array([np.eye(3)] * 2))
        traj = propagate_moments(model, schedule, range(1, 11))
        residual = mixing_residual_curves(model, schedule, traj, range(2, 11))
        assert residual.c1 is None and residual.c2 is None
        peaks = list(residual.peaks())
        assert [k for k, *_ in peaks] == list(range(2, 11))
        assert all(c1 is None and c2 is None for _, _, _, c1, _, _, c2 in peaks)
        assert all(peak_a > 0.0 and peak_b > 0.0 for _, peak_a, _, _, peak_b, _, _ in peaks)
        assert residual.supremum() is None

    def test_k_below_two_or_none_rejected(self):
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 11))
        for ks, message in (([1, 5], "residual k must be an integer >= 2, got 1"), ([0], ">= 2, got 0"), ([], "need at least one")):
            with pytest.raises(ParameterError, match=message):
                mixing_residual_curves(model, schedule, traj, ks)

    def test_residual_reads_only_visited_k(self):
        """A row needs the moments at its own k alone: any visited k serves, in any
        order, and a k the trajectory did not visit is refused by ``moments_at``."""
        model, schedule = alt3_scenario()
        stepped = propagate_moments(model, schedule, range(1, 21))
        _, every, _ = residual_cube(model, schedule, stepped, range(2, 21), (0.5,))
        ks, values, _ = residual_cube(model, schedule, stepped, [20, 3, 7, 3], (0.5,))
        assert ks.tolist() == [3, 7, 20]
        assert np.array_equal(values[0], every[0][[1, 5, 18]])
        sparse = propagate_moments(model, schedule, [1, 3, 5, 7, 20])
        for ks in ([2, 3], [3, 11], [21]):
            with pytest.raises(ParameterError, match="no moments at k="):
                mixing_residual_curves(model, schedule, sparse, ks)

    def test_curves_match_single_calls(self):
        """Values match the scalar disagreement-product loop to rounding; bound terms bit for bit."""
        model, schedule = alt3_scenario()
        traj = propagate_moments(model, schedule, range(1, 13))
        residual = mixing_residual_curves(model, schedule, traj, range(2, 13))
        for h in (H0, H1):
            ks, values, _ = residual_cube(model, schedule, traj, range(2, 13), TILTS, hypothesis=h)
            assert ks.tolist() == list(range(2, 13))
            for m, mu in enumerate(TILTS):
                value, c1, c2 = reference_residual(model, schedule, 12, mu, h)
                assert np.all(np.abs(values[m] - value) <= rounding_floor(traj, ks, mu))
                assert np.array_equal(residual.c1, c1) and np.array_equal(residual.c2, c2)

    @pytest.mark.parametrize("name", ["ref3", "rand5", "n8", "correlated2", "n1"])
    def test_matches_disagreement_products_on_corpus(self, name):
        """The residual derived from the trajectory equals the product sums on every schedule."""
        model, schedule, _ = build_scenario(name)
        traj = propagate_moments(model, schedule, range(1, 513))
        residual = mixing_residual_curves(model, schedule, traj, range(2, 513))
        for h in (H0, H1):
            ks, values, _ = residual_cube(model, schedule, traj, range(2, 513), TILTS, hypothesis=h)
            for m, mu in enumerate(TILTS):
                value, c1, c2 = reference_residual(model, schedule, 512, mu, h)
                assert np.all(np.abs(values[m] - value) <= rounding_floor(traj, ks, mu)), (h, mu)
                assert np.array_equal(residual.c1, c1) and np.array_equal(residual.c2, c2)

    @pytest.mark.parametrize("name", CORPUS)
    def test_supremum_bounds_every_sampled_tilt(self, name):
        """analyze's supremum, on its own trajectory and checkpoints in 2..512, is at least
        |residual| / bound at each of 4001 tilts spread evenly over [-1, 1] (mu = 0, where both
        are 0, excepted), and its witness attains it within the tie rule's relative 1e-12."""
        model, schedule, config = build_scenario(name)
        traj = propagate_moments(model, schedule, config.thresholds.visits(config.checkpoints))
        residual = mixing_residual_curves(model, schedule, traj, [k for k in config.checkpoints if 2 <= k <= 512])
        sup = residual.supremum()
        tilts = np.linspace(-1.0, 1.0, 4001)
        tilts = tilts[tilts != 0.0][:, None, None]
        ratios = np.abs(tilts * residual.a + tilts**2 * residual.b) / (np.abs(tilts) * residual.c1[:, None] + tilts**2 * residual.c2[:, None])
        assert ratios.max() <= sup["sup_abs_over_bound"]
        row, node = residual.ks.tolist().index(sup["k"]), sup["node"] - 1
        a, b, c1, c2 = residual.a[row, node], residual.b[row, node], residual.c1[row], residual.c2[row]
        mu = sup["tilt"]
        attained = abs(a) / c1 if mu == 0.0 else abs(mu * a + b) / (c1 + c2)
        assert sup["sup_abs_over_bound"] * (1.0 - 1e-12) <= attained <= sup["sup_abs_over_bound"]
