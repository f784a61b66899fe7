"""Large-deviations objects and exact Gaussian error analysis.

Snapshot log-likelihood ratios are Gaussian, so every asymptotic object has
a closed form: the rate function is quadratic, its Fenchel-Legendre dual is
the quadratic log-MGF, and the Chernoff information is llr_variance / 8.
The consensus recursion is linear-Gaussian as well, which makes the law of
every node variable x_i(k) exactly Gaussian with moments obtainable by
direct propagation.  Error curves therefore come from normal tail
probabilities, not simulation, and stay meaningful far below 1e-300
because curves store log-probabilities internally.

``mixing_residual`` quantifies how far the finite-k scaled cumulant of a
node variable is from the value it would take under perfect per-step
averaging; its proven bound decays like 1/k with constants from the
contraction envelope, which is the mechanism behind every node matching
the centralized error exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .errors import (
    DegenerateVariance,
    MaximizerAtBoundary,
    ParameterError,
    ThresholdOutOfRange,
)
from .model import GaussianHypothesisPair, Hypothesis, innovation_stats
from .network import WeightSchedule, contraction_bound

__all__ = [
    "MomentTrajectory",
    "ErrorCurve",
    "MixingResidual",
    "log_q_function",
    "rate_function",
    "chernoff_information",
    "log_mgf",
    "fenchel_legendre",
    "fixed_threshold_rates",
    "propagate_moments",
    "exact_error_curves",
    "centralized_error_curve",
    "scaled_cumulant",
    "mixing_residual",
    "mixing_residual_curves",
]

FL_DEFAULT_INTERVAL = (-50.0, 50.0)
FL_XTOL = 1e-10
FL_BOUNDARY_MARGIN = 1e-5
VARIANCE_FLOOR = 1e-300


def log_q_function(x):
    """log Q(x), stable far into the tail (Q underflows near x = 39)."""
    return log_ndtr(-np.asarray(x, dtype=float))


# ── closed-form rate objects ──────────────────────────────────────────────


def rate_function(model: GaussianHypothesisPair, l: Hypothesis, t: float) -> float:
    """Quadratic rate function (t - mean)^2 / (2 variance) of the llr mean."""
    d = float(t) - model.llr_mean(l)
    return d * d / (2.0 * model.llr_variance)


def chernoff_information(model: GaussianHypothesisPair) -> float:
    """Best achievable Bayes error exponent; equals rate_function at t = 0."""
    return model.llr_variance / 8.0


def log_mgf(model: GaussianHypothesisPair, l: Hypothesis, lam: float) -> float:
    lam = float(lam)
    return lam * model.llr_mean(l) + lam * lam * model.llr_variance / 2.0


def fenchel_legendre(f, t: float, interval=FL_DEFAULT_INTERVAL) -> float:
    """sup over lambda of lambda*t - f(lambda) by golden-section search.

    The caller guarantees f is convex on the interval and that the interval
    brackets the maximizer with some margin; an argmax within 1e-5 of the
    interval width from either end raises MaximizerAtBoundary.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ParameterError(f"empty search interval ({a}, {b})")
    t = float(t)

    def g(lam: float) -> float:
        return lam * t - f(lam)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, b
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    gc, gd = g(c), g(d)
    tol = FL_XTOL * max(1.0, abs(a), abs(b))
    while hi - lo > tol:
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - inv_phi * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + inv_phi * (hi - lo)
            gd = g(d)
    arg = (lo + hi) / 2.0
    margin = FL_BOUNDARY_MARGIN * (b - a)
    if arg - a < margin or b - arg < margin:
        raise MaximizerAtBoundary(
            f"argmax {arg:.6g} touches the search interval ({a}, {b})"
        )
    return g(arg)


def fixed_threshold_rates(model: GaussianHypothesisPair, gamma: float) -> tuple[float, float]:
    """Error exponents of the constant-threshold test at level gamma.

    For gamma strictly between the two llr means the false-alarm exponent is
    -I0(gamma) and the miss exponent gamma - I0(gamma); both are negative.
    """
    gamma = float(gamma)
    if not model.llr_mean0 < gamma < model.llr_mean1:
        raise ThresholdOutOfRange(
            f"gamma must lie in ({model.llr_mean0}, {model.llr_mean1}), got {gamma}"
        )
    i0 = rate_function(model, Hypothesis.H0, gamma)
    return (-i0, gamma - i0)


# ── exact moments of a node variable ──────────────────────────────────────


@dataclass(frozen=True)
class MomentTrajectory:
    """Exact moments of x(k) for k = 1..k_max under both hypotheses.

    The H0 innovation mean is the negation of the H1 mean and the innovation
    covariance does not depend on the hypothesis, so one pass serves both:
    mu0(k) = -mu1(k) and P0(k) = P1(k), bit for bit.  Only the per-node
    variances are kept at every k; full covariances only at ``keep``.
    """

    means: np.ndarray  # H1 means, (k_max, n)
    variances: np.ndarray  # (k_max, n)
    covariances: np.ndarray  # (len(keep), n, n)
    keep: tuple = ()

    @property
    def k_max(self) -> int:
        return self.means.shape[0]

    def mean_at(self, k: int, l: Hypothesis = Hypothesis.H1) -> np.ndarray:
        mean = self.means[k - 1]
        return mean if l == Hypothesis.H1 else -mean

    def cov_at(self, k: int) -> np.ndarray:
        if k not in self.keep:
            raise ParameterError(f"covariance at k={k} was not kept (kept: {self.keep})")
        return self.covariances[self.keep.index(k)]


def propagate_moments(
    model: GaussianHypothesisPair, s: WeightSchedule, k_max: int, keep=()
) -> MomentTrajectory:
    """Push the exact first and second moments through the recursion.

    mu(1) = N m_eta, P(1) = N^2 S_eta, then
    mu(k+1) = (k/(k+1)) W(k) mu(k) + (N/(k+1)) m_eta and
    P(k+1) = (k/(k+1))^2 W(k) P(k) W(k)' + (N/(k+1))^2 S_eta,
    with m_eta the H1 innovation mean.  ``keep`` lists the k at which the
    full covariance matrix is stored.
    """
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    keep = tuple(sorted({int(k) for k in keep}))
    if keep and not 1 <= keep[0] <= keep[-1] <= k_max:
        raise ParameterError(f"kept covariances {keep} outside 1..{k_max}")
    stats = innovation_stats(model)
    m_eta = stats.mean1
    s_eta = stats.cov
    n = model.n_sensors
    means = np.empty((k_max, n))
    variances = np.empty((k_max, n))
    covs = np.empty((len(keep), n, n))
    mu = n * m_eta
    p = n * n * s_eta
    wp, wpw = np.empty((n, n)), np.empty((n, n))
    for k in range(1, k_max + 1):
        means[k - 1], variances[k - 1] = mu, np.diag(p)
        if k in keep:
            covs[keep.index(k)] = p
        if k == k_max:
            break
        w = s.weight_at(k)
        shrink = k / (k + 1.0)
        gain = n / (k + 1.0)
        mu = shrink * (w @ mu) + gain * m_eta
        # p = (q + q') / 2 with q = shrink^2 W p W' + gain^2 S_eta, computed
        # in preallocated buffers with the same operations in the same order
        np.matmul(w, p, out=wp)
        np.matmul(wp, w.T, out=wpw)
        wpw *= shrink * shrink
        wpw += gain * gain * s_eta
        np.add(wpw, wpw.T, out=p)
        p /= 2.0
    for array in (means, variances, covs):
        array.flags.writeable = False
    return MomentTrajectory(means=means, variances=variances, covariances=covs, keep=keep)


# ── error curves ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ErrorCurve:
    """False-alarm, miss and Bayes error along a checkpoint grid.

    Stored as log-probabilities so deep tails stay meaningful; the linear
    ``alpha``/``beta``/``pe`` views underflow to 0.0 below 1e-300.  For
    Monte Carlo curves the se_* arrays carry binomial standard errors and
    a zero count yields log-probability -inf.
    """

    node: str
    ks: np.ndarray
    log_alpha: np.ndarray
    log_beta: np.ndarray
    log_pe: np.ndarray
    priors: tuple
    source: str
    se_alpha: np.ndarray | None = None
    se_beta: np.ndarray | None = None
    se_pe: np.ndarray | None = None

    @property
    def alpha(self) -> np.ndarray:
        return np.exp(self.log_alpha)

    @property
    def beta(self) -> np.ndarray:
        return np.exp(self.log_beta)

    @property
    def pe(self) -> np.ndarray:
        return np.exp(self.log_pe)

    @property
    def log10_pe(self) -> np.ndarray:
        return self.log_pe / math.log(10.0)


def _combine_log_pe(log_alpha, log_beta, priors) -> np.ndarray:
    p0, p1 = priors
    with np.errstate(divide="ignore"):
        return np.logaddexp(math.log(p0) + log_alpha, math.log(p1) + log_beta)


def _check_priors(priors) -> tuple[float, float]:
    p0, p1 = float(priors[0]), float(priors[1])
    if not (p0 > 0.0 and p1 > 0.0 and abs(p0 + p1 - 1.0) <= 1e-12):
        raise ParameterError(f"priors must be positive and sum to 1, got {priors}")
    return (p0, p1)


def exact_error_curves(
    model: GaussianHypothesisPair,
    traj: MomentTrajectory,
    priors=(0.5, 0.5),
    ks=None,
) -> list[ErrorCurve]:
    """Per-node error curves from the exact Gaussian law of x_i(k).

    alpha_i(k) is the H0 probability of x_i(k) > 0 and beta_i(k) the H1
    probability of x_i(k) <= 0.  Since mu0 = -mu1 and the variance is
    shared, both equal Phi(-mu1 / sd) exactly, so one tail serves both.
    ``ks`` selects checkpoints (default: every k in the trajectory).
    Raises DegenerateVariance when a per-node variance is not strictly
    positive.
    """
    priors = _check_priors(priors)
    if ks is None:
        ks = np.arange(1, traj.k_max + 1)
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0 or ks.min() < 1 or ks.max() > traj.k_max:
        raise ParameterError("checkpoints outside trajectory horizon")
    idx = ks - 1
    curves = []
    for i in range(model.n_sensors):
        var = traj.variances[idx, i]
        floor = float(var.min())
        if floor <= VARIANCE_FLOOR:
            raise DegenerateVariance(
                f"node {i + 1} variance {floor:.3e} is not positive"
            )
        log_tail = log_ndtr(-traj.means[idx, i] / np.sqrt(var))
        curves.append(
            ErrorCurve(
                node=str(i + 1),
                ks=ks.copy(),
                log_alpha=log_tail,
                log_beta=log_tail.copy(),
                log_pe=_combine_log_pe(log_tail, log_tail, priors),
                priors=priors,
                source="exact",
            )
        )
    return curves


def centralized_error_curve(
    model: GaussianHypothesisPair, ks, priors=(0.5, 0.5)
) -> ErrorCurve:
    """Exact curve of the centralized running mean: alpha = beta = Q(sqrt(k) sigma / 2)."""
    priors = _check_priors(priors)
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0 or ks.min() < 1:
        raise ParameterError("checkpoints must be >= 1")
    sigma = math.sqrt(model.llr_variance)
    log_tail = log_q_function(np.sqrt(ks) * sigma / 2.0)
    return ErrorCurve(
        node="cen",
        ks=ks.copy(),
        log_alpha=log_tail,
        log_beta=log_tail.copy(),
        log_pe=_combine_log_pe(log_tail, log_tail, priors),
        priors=priors,
        source="exact",
    )


# ── scaled cumulants and the mixing residual ──────────────────────────────


def scaled_cumulant(
    model: GaussianHypothesisPair,
    s: WeightSchedule,
    l: Hypothesis,
    k: int,
    mu: float,
    node: int,
    trajectory: MomentTrajectory | None = None,
) -> float:
    """Exact (1/k) log E[exp(k mu x_i(k))] from the Gaussian law of x_i(k).

    Equals mu * mean_i(k) + (k/2) mu^2 var_i(k); its k -> infinity limit is
    llr_mean * mu + llr_variance * mu^2 / 2 for every node.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 1 <= node <= model.n_sensors:
        raise ParameterError(f"node must be in 1..{model.n_sensors}, got {node}")
    if trajectory is None:
        trajectory = propagate_moments(model, s, k)
    elif trajectory.k_max < k:
        raise ParameterError(f"trajectory ends at k={trajectory.k_max}, before k={k}")
    mu = float(mu)
    i = node - 1
    mean_i = float(trajectory.mean_at(k, l)[i])
    var_i = float(trajectory.variances[k - 1, i])
    return mu * mean_i + (k / 2.0) * mu * mu * var_i


@dataclass(frozen=True)
class MixingResidual:
    """Finite-k cumulant gap due to imperfect averaging, and its envelope."""

    value: float
    bound: float


def _residual_components(model, s, k_max):
    """One sweep of the three disagreement-product sums for k = 2..k_max.

    Row k-2 of each output holds, for every node i at horizon k:
      lin[i]  = [sum_j tPhi(k,j) m_eta1]_i
      quad[i] = [sum_j tPhi(k,j) S_eta tPhi(k,j)']_ii
      cross[i] = [sum_j tPhi(k,j) S_eta 1]_i
    where tPhi is the disagreement part of the backward product and the
    sums run over j = 1..k-1.
    """
    stats = innovation_stats(model)
    m_eta = stats.mean1
    s_eta = stats.cov
    n = s.n_nodes
    jmat = np.full((n, n), 1.0 / n)
    s_eta_ones = s_eta @ np.ones(n)
    lin = np.zeros((max(k_max - 1, 0), n))
    quad = np.zeros_like(lin)
    cross = np.zeros_like(lin)
    a1 = np.zeros(n)
    a2 = np.zeros((n, n))
    a3 = np.zeros(n)
    for k_prev in range(1, k_max):
        tw = s.weight_at(k_prev) - jmat
        a1 = tw @ (a1 + m_eta)
        a3 = tw @ (a3 + s_eta_ones)
        a2 = tw @ (a2 + s_eta) @ tw.T
        lin[k_prev - 1] = a1
        quad[k_prev - 1] = np.diag(a2)
        cross[k_prev - 1] = a3
    return lin, quad, cross


def mixing_residual_curves(
    model: GaussianHypothesisPair,
    s: WeightSchedule,
    k_max: int,
    mus,
    hypothesis: Hypothesis = Hypothesis.H1,
):
    """Residual values and bounds for every tilt, node and k in 2..k_max.

    Returns (ks, values, bounds) with values of shape (len(mus), len(ks), n)
    and bounds of shape (len(mus), len(ks)).  One sweep of the product sums
    serves every tilt, node and horizon.  The value's linear part flips sign
    with the hypothesis; the bound, which decays like 1/k, does not.
    """
    if k_max < 2:
        raise IndexError(f"k_max must be >= 2, got {k_max}")
    lin, quad, cross = _residual_components(model, s, k_max)
    stats = innovation_stats(model)
    n = s.n_nodes
    m_bar = float(np.abs(stats.mean1).max())
    s_bar = float(np.abs(stats.cov).max())
    b_bar = float(np.abs(stats.cov @ np.ones(n)).max()) / n
    env = contraction_bound(n, s.min_weight, s.window)
    theta, beta = env.amplitude, env.ratio
    sign = 1.0 if hypothesis == Hypothesis.H1 else -1.0
    ks = np.arange(2, k_max + 1)
    col = ks[:, None]
    values = np.empty((len(mus), ks.size, n))
    bounds = np.empty((len(mus), ks.size))
    for row, mu in enumerate(mus):
        mu = float(mu)
        linear = (n / col) * mu * sign * lin
        quadratic = (n * n / (2.0 * col)) * mu * mu * quad
        crossed = (n / col) * mu * mu * cross
        values[row] = linear + quadratic + crossed
        mu = abs(mu)
        first = (theta / ks) * (n**2 * m_bar * mu + n**3 * mu * mu * b_bar) / (1.0 - beta)
        second = (theta * theta / ks) * (n**4 / 2.0) * mu * mu * s_bar / (1.0 - beta * beta)
        bounds[row] = first + second
    return ks, values, bounds


def mixing_residual(
    model: GaussianHypothesisPair,
    s: WeightSchedule,
    k: int,
    mu: float,
    node: int,
    hypothesis: Hypothesis = Hypothesis.H1,
) -> MixingResidual:
    """Gap between the exact scaled cumulant and its ideal-averaging part.

    The scaled cumulant of x_i(k) splits exactly into a drift term (what
    perfect per-step averaging would give, including the final innovation's
    own cumulant) plus this residual, built from disagreement products.
    The returned bound decays like 1/k and is hypothesis-independent; the
    value's linear part flips sign with the hypothesis.
    """
    if k < 2:
        raise IndexError(f"residual needs k >= 2, got {k}")
    if not 1 <= node <= s.n_nodes:
        raise ParameterError(f"node must be in 1..{s.n_nodes}, got {node}")
    _, values, bounds = mixing_residual_curves(model, s, k, (mu,), hypothesis)
    return MixingResidual(value=float(values[0, -1, node - 1]), bound=float(bounds[0, -1]))
