"""Reference implementations the tests compare the shipped code against.

None of this runs in a ``cdlab`` command.  Each function states once more,
in its most literal form, something the package computes another way:

* the step-driven detectors (one snapshot at a time, the tie rule in
  ``decide``) and their closed form from backward products, against the
  node-major Monte Carlo kernel ``experiment._run_chunk`` and the exact
  moment walk ``analysis.propagate_moments``;
* the observation sampler and the per-snapshot log-likelihood ratio and
  innovations, which drive independent simulations of the recursion;
* the closed-form rate objects (rate function, log-MGF, its
  Fenchel-Legendre transform, constant-threshold exponents) and the scaled
  cumulant of a node variable, for the large-deviations checks;
* the literal products Phi(k, j) and Phi(k, j) - J, against the running
  products of ``network.check_geometric_decay`` and the moments behind
  ``analysis.mixing_residual_curves``, and from them each node's limiting
  error exponent on any schedule whose period product converges;
* the subexponential factor pe(k) exp(k C) of an error curve, and the
  least-squares decay rate of an error curve over a window of checkpoints;
* the whole (tilt, k, node) cube of the mixing residual, stacked from the
  rows ``analysis.ResidualCurves`` forms one at a time, its per-node CSV
  written one cell at a time, and that CSV folded by max |value| per
  (tilt, k), against ``analyze``'s summary from ``analysis.fold_worst_ratio``,
  byte for byte or, where the two read different trajectories, within a
  tolerance.

``MaximizerAtBoundary`` and ``ThresholdOutOfRange`` are raised only here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cdlab.analysis import ErrorCurve, MomentTrajectory, mixing_residual_curves, propagate_moments
from cdlab.errors import ParameterError, ShapeError
from cdlab.model import GaussianHypothesisPair, Hypothesis, innovation_stats
from cdlab.network import WeightSchedule

FL_DEFAULT_INTERVAL = (-50.0, 50.0)
FL_XTOL = 1e-10
FL_BOUNDARY_MARGIN = 1e-5
PRODUCT_AGREE_ATOL = 1e-12


class MaximizerAtBoundary(RuntimeError):
    """Numeric maximizer landed on the edge of the search interval."""


class ThresholdOutOfRange(ValueError):
    """Decision threshold outside the open interval of achievable means."""


# ── observations ──────────────────────────────────────────────────────────


def sample_observations(
    model: GaussianHypothesisPair,
    h: Hypothesis,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw ``size`` independent snapshots as rows of a (size, n) array."""
    z = rng.standard_normal((size, model.n_sensors))
    return (model.m1 if h == Hypothesis.H1 else model.m0) + z @ model.noise_chol.T


def llr(model: GaussianHypothesisPair, y: np.ndarray):
    """Log-likelihood ratio of one snapshot (or a batch on the last axis)."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != model.n_sensors:
        raise ShapeError(f"observation has {y.shape[-1]} entries, expected {model.n_sensors}")
    out = (y - (model.m0 + model.m1) / 2.0) @ model.innovation_weights
    return float(out) if out.ndim == 0 else out


def local_innovations(model: GaussianHypothesisPair, y: np.ndarray) -> np.ndarray:
    """Per-sensor innovation eta_i = w_i (y_i - (m0_i + m1_i)/2); sums to llr."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != model.n_sensors:
        raise ShapeError(f"observation has {y.shape[-1]} entries, expected {model.n_sensors}")
    return model.innovation_weights * (y - (model.m0 + model.m1) / 2.0)


# ── step-driven detectors ─────────────────────────────────────────────────
#
# The centralized detector keeps D(k), the running mean of snapshot
# log-likelihood ratios.  The distributed detector keeps one decision
# variable per node and evolves it by
#
#     x(k+1) = (k/(k+1)) W(k) x(k) + (N/(k+1)) eta(k+1),    x(1) = N eta(1),
#
# where eta is the innovation vector of the new observation.  Because every
# W(k) is doubly stochastic, the node average of x(k) reproduces D(k)
# exactly, so both detectors can be compared pathwise on a shared stream.
# Both decide H1 iff the decision variable is strictly positive.


@dataclass(frozen=True)
class CentralizedState:
    k: int
    value: float


@dataclass(frozen=True)
class DistributedState:
    k: int
    x: np.ndarray


def centralized_init(model: GaussianHypothesisPair) -> CentralizedState:
    return CentralizedState(k=0, value=0.0)


def centralized_step(
    state: CentralizedState, model: GaussianHypothesisPair, y: np.ndarray
) -> CentralizedState:
    score = llr(model, y)
    if not np.isscalar(score) and np.ndim(score):
        raise ShapeError("centralized_step takes a single observation")
    k = state.k
    return CentralizedState(k=k + 1, value=(k * state.value + score) / (k + 1))


def distributed_init(
    model: GaussianHypothesisPair, y1: np.ndarray
) -> DistributedState:
    eta = local_innovations(model, y1)
    if eta.ndim != 1:
        raise ShapeError("distributed_init takes a single observation")
    return DistributedState(k=1, x=model.n_sensors * eta)


def distributed_step(
    state: DistributedState,
    model: GaussianHypothesisPair,
    s: WeightSchedule,
    y_next: np.ndarray,
) -> DistributedState:
    """Advance one step with the innovation vector of the next observation."""
    eta_next = local_innovations(model, y_next)
    n = s.n_nodes
    if state.x.shape != (n,) or eta_next.shape != (n,):
        raise ShapeError(
            f"state/innovation length must equal {n} nodes, "
            f"got {state.x.shape} and {eta_next.shape}"
        )
    k = state.k
    x_next = (k / (k + 1)) * (s.weight_at(k) @ state.x) + (n / (k + 1)) * eta_next
    return DistributedState(k=k + 1, x=x_next)


def distributed_closed_form(
    model: GaussianHypothesisPair, s: WeightSchedule, observations
) -> np.ndarray:
    """x(k) assembled from backward products instead of the recursion.

    x(k) = (N/k) [ sum_{j<k} Phi(k,j) eta(j) + eta(k) ].  The product
    Phi(k, j) is accumulated by literal right-multiplication, a different
    evaluation order from the step recursion, so agreement between the two
    is a real cross-check of the indexing.
    """
    obs = list(observations)
    k = len(obs)
    if k < 2:
        raise IndexError(f"closed form needs at least 2 observations, got {k}")
    etas = [local_innovations(model, y) for y in obs]
    n = model.n_sensors
    total = etas[-1].copy()
    prod = np.eye(n)
    for j in range(k - 1, 0, -1):
        # prod becomes Phi(k, j) = Phi(k, j+1) @ W(j)
        prod = prod @ s.weight_at(j)
        total += prod @ etas[j - 1]
    return (n / k) * total


def decide(variable: float) -> Hypothesis:
    """H1 iff the decision variable is strictly positive; ties go to H0."""
    value = float(variable)
    if not np.isfinite(value):
        raise ParameterError(f"decision variable must be finite, got {value}")
    return Hypothesis.H1 if value > 0.0 else Hypothesis.H0


# ── closed-form rate objects ──────────────────────────────────────────────


def rate_function(model: GaussianHypothesisPair, l: Hypothesis, t: float) -> float:
    """Quadratic rate function (t - mean)^2 / (2 variance) of the llr mean, +-variance/2."""
    d = float(t) - (1.0 if l == Hypothesis.H1 else -1.0) * model.llr_variance / 2.0
    return d * d / (2.0 * model.llr_variance)


def log_mgf(model: GaussianHypothesisPair, l: Hypothesis, lam: float) -> float:
    lam = float(lam)
    mean = (1.0 if l == Hypothesis.H1 else -1.0) * model.llr_variance / 2.0
    return lam * mean + lam * lam * model.llr_variance / 2.0


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

    For gamma strictly between the two llr means, -+llr_variance/2, the
    false-alarm exponent is -I0(gamma) and the miss exponent gamma - I0(gamma);
    both are negative.
    """
    gamma = float(gamma)
    half = model.llr_variance / 2.0
    if not -half < gamma < half:
        raise ThresholdOutOfRange(f"gamma must lie in ({-half}, {half}), got {gamma}")
    i0 = rate_function(model, Hypothesis.H0, gamma)
    return (-i0, gamma - i0)


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
    llr_mean * mu + llr_variance * mu^2 / 2 for every node, the llr mean being
    +llr_variance / 2 under H1 and -llr_variance / 2 under H0.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 1 <= node <= model.n_sensors:
        raise ParameterError(f"node must be in 1..{model.n_sensors}, got {node}")
    if trajectory is None:
        trajectory = propagate_moments(model, s, range(1, k + 1))
    mu = float(mu)
    i = node - 1
    mean_i = float(trajectory.mean_at(k)[i]) * (1.0 if l == Hypothesis.H1 else -1.0)
    var_i = float(trajectory.variance_at(k)[i])
    return mu * mean_i + (k / 2.0) * mu * mu * var_i


# ── products ──────────────────────────────────────────────────────────────


def forward_product(s: WeightSchedule, k: int, j: int) -> np.ndarray:
    """Phi(k, j) = W(k-1) @ ... @ W(j) for k > j >= 1."""
    if not (k > j >= 1):
        raise IndexError(f"need k > j >= 1, got k={k}, j={j}")
    out = np.eye(s.n_nodes)
    for l in range(j, k):
        out = s.weight_at(l) @ out
    return out


def disagreement_product(s: WeightSchedule, k: int, j: int) -> np.ndarray:
    """Phi(k, j) minus the averaging projector, cross-checked two ways.

    Computed as the ordered product of the (W(l) - J) factors, which keeps
    precision once entries are tiny, and verified against Phi(k, j) - J to
    1e-12 absolute; doubly stochastic factors make the two identical in
    exact arithmetic.
    """
    if not (k > j >= 1):
        raise IndexError(f"need k > j >= 1, got k={k}, j={j}")
    jmat = np.full((s.n_nodes, s.n_nodes), 1.0 / s.n_nodes)
    tilde = np.eye(s.n_nodes)
    for l in range(j, k):
        tilde = (s.weight_at(l) - jmat) @ tilde
    direct = forward_product(s, k, j) - jmat
    gap = float(np.abs(tilde - direct).max())
    if gap > PRODUCT_AGREE_ATOL:
        raise RuntimeError(
            f"disagreement product mismatch {gap:.3e} at (k={k}, j={j})"
        )
    return tilde


def limiting_rate(model: GaussianHypothesisPair, s: WeightSchedule, squarings: int = 64) -> np.ndarray:
    """R_i, the exponent node i's Bayes error reaches as k -> infinity, in closed form.

    It holds whether or not the schedule meets the paper's assumptions, as
    long as its period product converges.  At k a multiple of the period P,
    eta(j) enters U(k) = k x(k) / N through Phi(k, j).  For j = t modulo P,
    t in 1..P, its rows tend to those of pi_t = L Phi(2P, P + t), with L the
    limit of the period product Phi(2P, P)^n.  So x_i(k) tends to a Gaussian
    of mean N a_i and variance N^2 b_i / k, where a and b average
    pi_t m_eta and diag(pi_t S_eta pi_t') over the P phases, and
    R_i = a_i^2 / (2 b_i).  A valid schedule has L = 11'/N, which makes R the
    Chernoff information; any other limit gives less.
    """
    m_eta, s_eta = innovation_stats(model)
    p = s.period
    limit = forward_product(s, 2 * p, p)
    for _ in range(squarings):
        limit = limit @ limit
    rows = [limit @ (np.eye(s.n_nodes) if t == p else forward_product(s, 2 * p, p + t)) for t in range(1, p + 1)]
    a = sum(row @ m_eta for row in rows) / p
    b = sum(np.einsum("ij,jk,ik->i", row, s_eta, row) for row in rows) / p
    return a * a / (2.0 * b)


# ── error curves ──────────────────────────────────────────────────────────


def subexponential_factor(curve: ErrorCurve, chernoff: float) -> np.ndarray:
    """pe(k) * exp(k * chernoff): the part of the decay slower than e^{-kC}."""
    if not (np.isfinite(chernoff) and chernoff > 0.0):
        raise ParameterError(f"chernoff must be positive and finite, got {chernoff}")
    return np.exp(curve.log_pe + curve.ks * chernoff)


def fit_exponent(curve: ErrorCurve, window) -> float:
    """The rate of the least-squares line log pe(k) = intercept - rate * k through
    the checkpoints of ``curve`` in the closed ``window`` (lo, hi)."""
    lo, hi = window
    inside = (curve.ks >= lo) & (curve.ks <= hi)
    slope, _ = np.polyfit(curve.ks[inside].astype(float), curve.log_pe[inside], 1)
    return float(-slope)


def residual_cube(model, schedule, trajectory, ks, mus, hypothesis=Hypothesis.H1) -> tuple:
    """The residual under ``hypothesis`` at the k of ``ks`` as (ks, values, bounds) arrays.

    The H0 residual at tilt mu is the H1 residual at -mu, so H0 reads the
    shipped H1 rows at the negated tilts.  ``values``, (len(mus), K, n), is
    stacked from ``ResidualCurves.rows()``, so it holds the rows the
    commands write; ``bounds`` is (len(mus), K).
    """
    sign = 1.0 if hypothesis == Hypothesis.H1 else -1.0
    residual = mixing_residual_curves(model, schedule, trajectory, ks, [sign * mu for mu in mus])
    values = np.array([values for _, _, values, _ in residual.rows()])
    return residual.ks, values.reshape(len(residual.mus), *residual.lin.shape), residual.bounds


def per_cell_residual_csv(mus, ks, values, bounds) -> str:
    """The per-node residual CSV of ``residual_cube``'s arrays, one f-string per cell."""
    rows = ["mu,k,node,value,bound"]
    for mu, mu_values, mu_bounds in zip(mus, values, bounds):
        for k, row, bound in zip(ks.tolist(), mu_values.tolist(), mu_bounds.tolist()):
            rows.extend(f"{mu!r},{k},{node},{value!r},{bound!r}" for node, value in enumerate(row, 1))
    return "\n".join(rows) + "\n"


def fold_residual_csv(per_node: str) -> str:
    """Per-node residual CSV text folded to one row per (mu, k): max |value|, the first node on ties."""
    header, *lines = per_node.splitlines()
    if header != "mu,k,node,value,bound":
        raise ValueError(f"not a per-node residual CSV: {header!r}")
    best = {}  # (mu, k) cells -> (max |value|, node, bound) cells, in file order
    for line in lines:
        mu, k, node, value, bound = line.split(",")
        peak = abs(float(value))
        if (mu, k) not in best or peak > best[mu, k][0]:
            best[mu, k] = (peak, node, bound)
    rows = [f"{mu},{k},{peak!r},{node},{bound}" for (mu, k), (peak, node, bound) in best.items()]
    return "\n".join(["mu,k,max_abs,node,bound", *rows]) + "\n"


def fold_mismatches(per_node: str, summary: str, rel: float, floor: float) -> list:
    """Where the residual ``summary`` CSV is not the ``per_node`` CSV's rows at its (mu, k) folded
    by max |value|: one message per row that differs, [] when every row agrees.

    ``max_abs`` must lie within ``rel`` and the absolute ``floor`` of the maximum, and ``bound``
    within ``rel``.  ``node`` must be one whose |value| is that close to the maximum, so a near
    tie, which rounding may break either way, accepts every node in it.
    """
    header, *lines = per_node.splitlines()
    if header != "mu,k,node,value,bound":
        raise ValueError(f"not a per-node residual CSV: {header!r}")
    cells = {}  # (mu, k) -> ({node: |value|}, bound)
    for line in lines:
        mu, k, node, value, bound = line.split(",")
        cells.setdefault((mu, k), ({}, float(bound)))[0][node] = abs(float(value))
    header, *lines = summary.splitlines()
    if header != "mu,k,max_abs,node,bound":
        raise ValueError(f"not a residual summary CSV: {header!r}")
    found = []
    for line in lines:
        mu, k, max_abs, node, bound = line.split(",")
        if (mu, k) not in cells:
            found.append(f"mu={mu} k={k}: no per-node rows")
            continue
        magnitudes, want_bound = cells[mu, k]
        peak = max(magnitudes.values())
        near = [i for i, m in magnitudes.items() if math.isclose(m, peak, rel_tol=rel, abs_tol=floor)]
        if not math.isclose(float(max_abs), peak, rel_tol=rel, abs_tol=floor):
            found.append(f"mu={mu} k={k}: max_abs {max_abs} != {peak!r}")
        if node not in near:
            found.append(f"mu={mu} k={k}: node {node} not in {near}")
        if not math.isclose(float(bound), want_bound, rel_tol=rel, abs_tol=0.0):
            found.append(f"mu={mu} k={k}: bound {bound} != {want_bound!r}")
    return found
