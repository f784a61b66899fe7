"""Exact Gaussian error analysis of running-consensus detection.

Snapshot log-likelihood ratios are Gaussian, so the Chernoff information,
the best error exponent, is llr_variance / 8 in closed form.  The
consensus recursion is linear-Gaussian as well, which makes the law of
every node variable x_i(k) exactly Gaussian with moments obtainable by
direct propagation.  Error curves therefore come from normal tail
probabilities, not simulation, and stay meaningful far below 1e-300
because curves store log-probabilities internally.

``propagate_moments`` visits a sorted set of k in order, keeping the
per-node mean and variance at each and holding only the current state, one
squaring chain and at most two pending states in between.  In running-sum
coordinates U(k) = k x(k) / N one period of the recursion is an affine
Gaussian map and n periods compose by repeated squaring, so a gap of g steps
costs O(N^3 log g) where that beats stepping, and k = 1e9 is as cheap as
k = 1e3.  Shorter gaps are stepped.  Since U(0) = 0, the phase-0 period map
squared i times carries U(2^i P) itself in its noise part.  That chain is
climbed once: it serves every doubling checkpoint, and a visit planned onto
it folds in the levels at the binary digits of its periods past its largest
2^i P as the climb passes them, so it builds no square of its own.

``mixing_residual_curves`` reads off the same trajectory, at any K visited k,
how far the finite-k scaled cumulant of a node variable is from its value
under perfect per-step averaging.  At tilt mu that residual is mu a + mu^2 b,
so two K x N vectors hold it at every tilt, and its proven bound
|mu| c1 + mu^2 c2 decays like 1/k, the mechanism behind every node matching
the centralized error exponent.  ``ResidualCurves.supremum`` gives the worst
ratio over every tilt 0 < |mu| <= 1 in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, ParameterError
from .model import GaussianHypothesisPair, innovation_stats
from .network import WeightSchedule, _PaddedRows, _check_integer, _check_ks

__all__ = [
    "MomentTrajectory",
    "ErrorCurve",
    "ResidualCurves",
    "log_q_function",
    "chernoff_information",
    "propagate_moments",
    "exact_error_curves",
    "centralized_error_curve",
    "mixing_residual_curves",
]

_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_q_function(x):
    """log Q(x) elementwise, stable far into the tail (Q underflows near x = 39).

    Below x = 1 it is log1p(-erfc(-x / sqrt 2) / 2), up to x = 30
    log(erfc(x / sqrt 2) / 2), and beyond that the asymptotic series
    -x^2/2 - log(x sqrt(2 pi)) + log(sum_{j<8} (-1)^j (2j-1)!! x^-2j), truncated
    below 5e-18.  Against scipy's log_ndtr(-x) it agrees within 9e-16 relative
    for x >= -1 and 6e-14 on [-37, -1), where log_ndtr is the less accurate;
    below x = -37 both lie within 1e-299 of 0.  The shape of ``x`` is kept.
    """
    with np.errstate(invalid="ignore"):  # nan compares raise the flag; nan maps to nan
        return np.asarray(np.frompyfunc(_log_q, 1, 1)(np.asarray(x, dtype=float)), dtype=float)


def _log_q(x: float) -> float:
    if x < 1.0:
        return math.log1p(-0.5 * math.erfc(-x * _SQRT_HALF))
    if x <= 30.0:
        return math.log(0.5 * math.erfc(x * _SQRT_HALF))
    z = 1.0 / (x * x)
    series = term = 1.0
    for j in range(1, 8):
        term *= -(2 * j - 1) * z
        series += term
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log(series)


def chernoff_information(model: GaussianHypothesisPair) -> float:
    """Best achievable Bayes error exponent: the llr mean's rate function at t = 0."""
    return model.llr_variance / 8.0


# ── exact moments of a node variable ──────────────────────────────────────


@dataclass(frozen=True)
class MomentTrajectory:
    """Exact moments of x(k) at each visited k of ``ks``, sorted and distinct.

    The H0 innovation mean is the negation of the H1 mean and the innovation
    covariance does not depend on the hypothesis, so one pass serves both:
    mu0(k) = -mu1(k) and P0(k) = P1(k), bit for bit.  Row i of ``means`` and
    ``variances`` holds the H1 mean and per-node variances at ``ks[i]``
    (H0's mean is its negation), and ``covariances[j]`` the full covariance
    at ``keep[j]``, the only k at which one is held.
    """

    ks: np.ndarray  # visited k, (len(ks),)
    means: np.ndarray  # H1 means, (len(ks), n)
    variances: np.ndarray  # (len(ks), n)
    covariances: np.ndarray  # (len(keep), n, n)
    keep: tuple = ()

    def moments_at(self, ks) -> tuple[np.ndarray, np.ndarray]:
        """H1 means and per-node variances at the sorted distinct ``ks``, each (len(ks), n)."""
        ks = np.asarray(_check_ks(ks, "k"))
        rows = np.searchsorted(self.ks, ks)
        missing = ks != self.ks[np.minimum(rows, self.ks.size - 1)]
        if missing.any():
            raise ParameterError(
                f"no moments at k={int(ks[missing][0])}: {self.ks.size} k visited "
                f"in {int(self.ks[0])}..{int(self.ks[-1])}"
            )
        return self.means[rows], self.variances[rows]


def propagate_moments(
    model: GaussianHypothesisPair, s: WeightSchedule, ks, keep=()
) -> MomentTrajectory:
    """Push the exact first and second moments through the recursion.

    mu(1) = N m_eta, P(1) = N^2 S_eta, then
    mu(k+1) = (k/(k+1)) W(k) mu(k) + (N/(k+1)) m_eta and
    P(k+1) = (k/(k+1))^2 W(k) P(k) W(k)' + (N/(k+1))^2 S_eta,
    with m_eta the H1 innovation mean.  The sorted distinct ``ks`` are
    visited in order, each by a route planned from the visits at or before
    it, so adding later visits never changes an earlier one's bits.  A
    visit is stepped from the visit before, jumped from it where ``_route``
    says that pays (see ``_jump``), or read off the spine, the phase-0
    period map squared i times, whose noise part is the state of U(2^i P).
    With 2^top P the largest such k <= the target and r the whole periods
    past it, the spine's levels at r's set bits are folded into a pending
    state as the climb passes them, and the visit then takes level top and
    steps the rest of a period.  The climb costs 3 dense products a level,
    not counting the map that starts it, and each fold 2, the first
    excepted.  Of the routes the one with fewer dense products wins, ties
    going to the spine, which is offered to a gap that ``_route`` would
    jump and, once planned, to every gap.  W(k) comes from ``s.operators()``,
    so a step costs O(d N^2) on a padded factor with at most d nonzeros a
    row, which updates P in place by its fused ``sandwich``, and O(N^3) on
    a dense one.  Between visits only the current N x N state, the spine's
    two N x N matrices and at most two pending states are held, and no
    pending state across a jump.  ``keep``, a subset of ``ks``, lists the k
    at which the full covariance is stored.
    """
    ks = _check_ks(ks, "visited k")
    keep = tuple(sorted({_check_integer(k, "a kept k", 1) for k in keep}))
    if not set(keep) <= set(ks):
        raise ParameterError(f"kept covariances {keep} are not all among the visited k")
    m_eta, s_eta = innovation = innovation_stats(model)
    n = model.n_sensors
    means = np.empty((len(ks), n))
    variances = np.empty((len(ks), n))
    covs = np.empty((len(keep), n, n))
    mu = n * m_eta
    p = n * n * s_eta
    ops = s.operators()
    for op in ops:
        if type(op) is _PaddedRows:
            np.copyto(op.gather[0], s_eta)  # the fixed term of every padded sandwich
    wpt = np.empty((n, n))
    noise = np.empty((n, n))

    def step(k, mu, p):
        """mu(k+1), with p overwritten in place by P(k+1)."""
        w = ops[(k - 1) % s.period]
        shrink = k / (k + 1.0)
        gain = n / (k + 1.0)
        if type(w) is _PaddedRows:
            w.sandwich(p, shrink * shrink, gain * gain)
        else:
            # p = (q + q') / 2 with q = shrink^2 W p W' + gain^2 S_eta, formed as
            # W (W p)' since W and p are symmetric; temporaries go into reused
            # buffers, as fresh ones fault their pages in at every step
            np.copyto(wpt, (w @ p).T)
            wpw = w @ wpt
            wpw *= shrink * shrink
            wpw += np.multiply(s_eta, gain * gain, out=noise)
            np.add(wpw, wpw.T, out=p)
            p *= 0.5
        return shrink * (w @ mu) + gain * m_eta

    # Every visit's route is planned before moving, each from the visits at or before it.
    # plan[row] is (top, digits, 0) off the spine or (None, 0, periods) jumped from the visit
    # before; a visit not in it is stepped.  rises[i] is the row whose climb makes level i.  A
    # pending state is held from the climb past its lowest digit to its own visit: at most two
    # at once and none across a jump, whose square takes their place; ends holds the rows at
    # which the last two such pairs of N x N matrices are freed, a jump filling both.
    plan = {}
    rises, ends = [], [-1, -1]
    k = 1
    for row, target in enumerate(ks):
        periods, products = _route(target - k, s.period)
        if periods or rises:
            top = (target // s.period).bit_length() - 1  # the largest 2^top P <= target
            digits = target // s.period - (1 << top)
            low = (digits & -digits).bit_length() - 1  # its lowest set bit, -1 for none
            start = rises[low] if 0 <= low < len(rises) else row  # where its pending state opens
            cost = 3 * (top - max(len(rises) - 1, 0)) + 2 * bin(digits).count("1") + target % s.period
            if cost <= products and (not digits or ends[0] < start):
                plan[row], periods = (top, digits, 0), 0
                rises += [row] * (top + 1 - len(rises))
                ends = [ends[1], row] if digits else ends
        if periods:
            plan[row], ends = (None, 0, periods), [row, row]
        k = target

    k = 1
    spine, level, pending = None, -1, {}  # the phase-0 period map squared level times: U(0) -> U(2^level P)
    for row, target in enumerate(ks):
        top, digits, periods = plan.get(row, (None, 0, 0))
        if top is not None:
            for level in range(level + 1, top + 1):
                spine = _compose(spine, spine) if level else _period_map(innovation, s, s.period)
                for later, (_, bits, _) in plan.items():
                    if bits >> level & 1:
                        pending[later] = _compose(pending[later], spine) if later in pending else (None, *spine[1:])
            state = _compose(pending.pop(row), spine) if digits else (None, *spine[1:])
            k = target - target % s.period
        elif periods:
            state = _jump(innovation, s, k, (None, (k / n) * mu, (k / n) ** 2 * p), periods)
            k += periods * s.period
        if top is not None or periods:
            mu = (n / k) * state[1]
            np.multiply(state[2], (n / k) ** 2, out=p)
        for k in range(k, target):
            mu = step(k, mu, p)
        k = target
        means[row], variances[row] = mu, np.diag(p)
        if k in keep:
            covs[keep.index(k)] = p
    ks = np.asarray(ks, dtype=int)
    for array in (ks, means, variances, covs):
        array.flags.writeable = False
    return MomentTrajectory(ks=ks, means=means, variances=variances, covariances=covs, keep=keep)


# In running-sum coordinates U(k) = k x(k) / N the recursion is
# U(k + 1) = W(k) U(k) + eta(k + 1), so any run of steps is an affine
# Gaussian map U -> A U + noise, noise ~ N(b, Q), held as the triple (A, b, Q).
# A state, the mean and covariance of U itself, is the triple (None, mean, cov).


def _compose(first, second) -> tuple:
    """The map ``second`` after ``first``: (A2 A1, A2 b1 + b2, A2 Q1 A2' + Q2)."""
    a1, b1, q1 = first
    a2, b2, q2 = second
    out = a2 @ q1
    q = out @ a2.T
    q += q2
    np.add(q, q.T, out=out)  # the symmetrized Q reuses A2 Q1's buffer
    out *= 0.5
    return None if a1 is None else a2 @ a1, a2 @ b1 + b2, out


def _period_map(innovation, s: WeightSchedule, start: int) -> tuple:
    """The map from U(start) to U(start + P), composed one step at a time.

    The single home of "one period"; it depends on ``start`` only modulo P.
    ``innovation`` is the (H1 mean, covariance) pair of ``innovation_stats``.
    """

    def step(k):
        return s.matrices[(k - 1) % s.period], *innovation

    out = step(start)
    for k in range(start + 1, start + s.period):
        out = _compose(out, step(k))
    return out


def _route(steps: int, period: int) -> tuple:
    """(periods, products): how ``propagate_moments`` crosses a gap of ``steps`` steps.

    ``periods`` is the number of whole periods ``_jump`` takes, 0 where
    stepping is cheaper, and ``products`` what the gap then costs in dense
    N x N products.  The jump costs 3 per composition building the period
    map, 3 per squaring and 2 per power applied to the state.  A step costs
    one: at least as dear as a dense product on a dense schedule and about
    as dear on a padded one at N = 256.
    """
    periods = steps // period
    jump = 3 * (period - 1) + 3 * (periods.bit_length() - 1) + 2 * bin(periods).count("1")
    if periods > 0 and periods * period > jump:
        return periods, jump + steps - periods * period
    return 0, steps


def _jump(innovation, s: WeightSchedule, k: int, state, periods: int) -> tuple:
    """The state of U(k + periods P) from the state of U(k).

    The period map is squared once per binary digit of ``periods`` and
    each square whose digit is set is applied to the state, so only the
    state and the current square are held.
    """
    power = _period_map(innovation, s, k)
    while True:
        if periods & 1:
            state = _compose(state, power)
        periods >>= 1
        if not periods:
            return state
        power = _compose(power, power)


# ── error curves ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ErrorCurve:
    """False-alarm, miss and Bayes error along a checkpoint grid.

    The Bayes error weighs the hypotheses equally, pe = (alpha + beta) / 2;
    an exact curve has alpha = beta, so its pe is alpha, except where a
    node's variance is 0.  Stored as
    log-probabilities so deep tails stay meaningful; the linear
    ``alpha``/``beta``/``pe`` views underflow to 0.0 below 1e-300.  For Monte
    Carlo curves the se_* arrays carry binomial standard errors and a zero
    count yields log-probability -inf.
    """

    node: str
    ks: np.ndarray
    log_alpha: np.ndarray
    log_beta: np.ndarray
    log_pe: np.ndarray
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


def _exact_curve(node: str, ks: np.ndarray, log_tail: np.ndarray) -> ErrorCurve:
    """An exact curve with alpha = beta = pe: one log tail serves all three."""
    return ErrorCurve(
        node=node,
        ks=ks.copy(),
        log_alpha=log_tail,
        log_beta=log_tail.copy(),
        log_pe=log_tail.copy(),
        source="exact",
    )


def exact_error_curves(traj: MomentTrajectory, ks=None) -> list[ErrorCurve]:
    """Per-node error curves from the exact Gaussian law of x_i(k).

    alpha_i(k) is the H0 probability of x_i(k) > 0 and beta_i(k) the H1
    probability of x_i(k) <= 0.  Since mu0 = -mu1 and the variance is
    shared, both equal Phi(-mu1 / sd) exactly, so one tail serves both and
    the Bayes error (alpha + beta) / 2 as well.  At variance 0, a sensor
    with no likelihood weight that mixing has not reached, the statistic is
    its mean and ties decide the null: alpha = 1{-mu1 > 0} and
    beta = 1{mu1 <= 0}, which differ, so the curve stores both.
    ``ks`` selects checkpoints among the visited k, sorted and distinct (default: all).
    Raises DegenerateVariance when a per-node variance is negative or not finite.
    """
    ks = np.asarray(_check_ks(traj.ks if ks is None else ks, "checkpoint"))
    means, variances = traj.moments_at(ks)
    invalid = ~(np.isfinite(variances) & (variances >= 0.0))
    if invalid.any():
        i = int(invalid.any(axis=0).argmax())  # the first node with a bad variance, and its first
        raise DegenerateVariance(f"node {i + 1} variance {variances[invalid[:, i], i][0]:.3e} is not finite and non-negative")
    certain = variances == 0.0
    tails = log_q_function(means / np.sqrt(np.where(certain, 1.0, variances)))  # one pass over the (K, N) table
    curves = []
    for i, (mean, tail, sure) in enumerate(zip(means.T, tails.T, certain.T)):
        curve = _exact_curve(str(i + 1), ks, tail.copy())
        if sure.any():
            alpha, beta = (-mean > 0.0).astype(float), (mean <= 0.0).astype(float)
            with np.errstate(divide="ignore"):
                for log, prob in zip((curve.log_alpha, curve.log_beta, curve.log_pe), (alpha, beta, (alpha + beta) / 2.0)):
                    log[sure] = np.log(prob[sure])
        curves.append(curve)
    return curves


def centralized_error_curve(model: GaussianHypothesisPair, ks) -> ErrorCurve:
    """Exact curve of the centralized running mean: alpha = beta = pe = Q(sqrt(k) sigma / 2)."""
    ks = np.asarray(_check_ks(ks, "checkpoint"))
    sigma = math.sqrt(model.llr_variance)
    return _exact_curve("cen", ks, log_q_function(np.sqrt(ks) * sigma / 2.0))


# ── the mixing residual ───────────────────────────────────────────────────

# A node within this relative distance of a maximum ties with it, and the lowest such node is
# named, so the name does not follow the rounding of the route that reached the moments.
TIE = 1e-12


def _lowest_near_max(values: np.ndarray) -> tuple:
    """(max, index) of a non-negative vector: the first entry within a relative ``TIE`` of its max, or its first NaN."""
    peak = values.max()
    near = np.isnan(values) if np.isnan(peak) else values >= peak * (1.0 - TIE)
    return float(peak), int(near.argmax())


@dataclass(frozen=True)
class ResidualCurves:
    """The H1 mixing residual at each k of ``ks`` as two K x n vectors, and its bound's two terms.

    At tilt mu the residual of node i at k is mu a[k, i] + mu^2 b[k, i], and H0's
    is H1's at -mu.  Its bound is |mu| c1[k] + mu^2 c2[k], with c1 and c2 positive,
    or None when the schedule has no envelope.
    """

    ks: np.ndarray  # (K,)
    a: np.ndarray  # (K, n)
    b: np.ndarray  # (K, n)
    c1: np.ndarray | None  # (K,)
    c2: np.ndarray | None  # (K,)

    def peaks(self):
        """Yield (k, max |a|, node, c1, max |b|, node, c2) for each k.

        Each node is 1-based: the lowest within a relative ``TIE`` of the
        maximum, or the first NaN.  c1 and c2 are None without an envelope.
        """
        bounds = zip(self.c1.tolist(), self.c2.tolist()) if self.c1 is not None else [(None, None)] * self.ks.size
        for k, a, b, (c1, c2) in zip(self.ks.tolist(), np.abs(self.a), np.abs(self.b), bounds):
            (peak_a, i), (peak_b, j) = _lowest_near_max(a), _lowest_near_max(b)
            yield k, peak_a, i + 1, c1, peak_b, j + 1, c2

    def supremum(self) -> dict | None:
        """``sup_abs_over_bound``, the sup of |residual| / bound over every tilt 0 < |mu| <= 1, node and k, and its witness.

        For t = |mu| the ratio is |+-a + t b| / (c1 + t c2), the absolute value
        of a function monotone in t, so it peaks as t -> 0, at |a| / c1, or at
        t = 1, at (|a| + |b|) / (c1 + c2), mu being the sign of a b (1 where a b = 0).
        The witness is the lowest ``node`` (1-based), then the earliest ``k``,
        within a relative ``TIE`` of the sup, and its ``tilt``: 1 or -1, or 0 for
        the limit mu -> 0.  None without an envelope.
        """
        if self.c1 is None:
            return None
        a, b = np.abs(self.a), np.abs(self.b)
        limit = a / self.c1[:, None]
        edge = (a + b) / (self.c1 + self.c2)[:, None]
        ratio, index = _lowest_near_max(np.maximum(limit, edge).T.ravel())
        node, row = divmod(index, self.ks.size)
        tilt = 0.0 if limit[row, node] >= edge[row, node] else (-1.0 if self.a[row, node] * self.b[row, node] < 0.0 else 1.0)
        return {"sup_abs_over_bound": ratio, "node": node + 1, "k": int(self.ks[row]), "tilt": tilt}


def mixing_residual_curves(
    model: GaussianHypothesisPair,
    s: WeightSchedule,
    trajectory: MomentTrajectory,
    ks,
) -> ResidualCurves:
    """The H1 residual's two vectors and its bound's two terms at every node and k of ``ks``.

    With the disagreement products tPhi(k, j) = Phi(k, j) - J, J = 11'/N,
    summed over j < k, a = (N/k) sum tPhi m_eta and b = (N^2/2k)
    (diag(sum tPhi S_eta tPhi') + (2/N) sum tPhi S_eta 1).  These are the
    disagreement parts of the moments of the running sum U(k) = k x(k) / N, so
    they are read off ``trajectory`` at each k of ``ks``, all >= 2 and visited
    (else ParameterError), as
      a = E x(k) - (N/k) ((k - 1) J m_eta + m_eta)
      b = (k/2) var x(k) - ((k - 1) 1'S_eta 1 + N^2 diag(S_eta)) / 2k
    with m_eta the H1 innovation mean; the consensus part they cancel is about
    k times their size, which costs digits at deep k.  The bound terms decay
    like 1/k; with no ``s.envelope`` they are None.
    """
    ks = np.asarray(_check_ks(ks, "residual k", minimum=2))
    a, b = trajectory.moments_at(ks)  # fresh copies, turned into the two vectors in place
    m_eta, s_eta = innovation_stats(model)
    n = s.n_nodes
    col = ks[:, None]
    a -= (n / col) * (m_eta + (col - 1.0) * m_eta.mean())
    b *= col / 2.0
    b -= ((col - 1.0) * s_eta.sum() + (n * n) * np.diag(s_eta)) / (2.0 * col)
    if (env := s.envelope) is None:
        return ResidualCurves(ks, a, b, None, None)
    theta, beta = env.amplitude, env.ratio
    m_bar, s_bar = float(np.abs(m_eta).max()), float(np.abs(s_eta).max())
    b_bar = float(np.abs(s_eta @ np.ones(n)).max()) / n
    c1 = (theta / ks) * n**2 * m_bar / (1.0 - beta)
    c2 = (theta / ks) * n**3 * b_bar / (1.0 - beta) + (theta * theta / ks) * (n**4 / 2.0) * s_bar / (1.0 - beta * beta)
    return ResidualCurves(ks, a, b, c1, c2)
