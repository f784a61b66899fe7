"""Monte Carlo engine and detector comparison reports.

Both detectors run on the same simulated observation streams so their
error curves are paired sample by sample.  Trials are processed in fixed
chunks of 4096 with one generator per (hypothesis, step, chunk); trial t
therefore sees the same noise regardless of the total trial count or the
number of worker threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import (
    ErrorCurve,
    MomentTrajectory,
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    propagate_moments,
)
from .errors import (
    InsufficientPoints,
    ParameterError,
    ShapeError,
    ZeroProbabilityInWindow,
)
from .model import GaussianHypothesisPair, Hypothesis, local_innovations
from .network import WeightSchedule, contraction_bound, validate_assumption

CHUNK_TRIALS = 4096
THREADS_ENV = "CDL_THREADS"


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a Monte Carlo run needs, checkpoints normalized and sorted."""

    model: GaussianHypothesisPair
    schedule: WeightSchedule
    k_checkpoints: tuple
    n_trials: int
    master_seed: int
    priors: tuple = (0.5, 0.5)

    def __post_init__(self):
        if self.model.n_sensors != self.schedule.n_nodes:
            raise ShapeError(
                f"model has {self.model.n_sensors} sensors but the schedule "
                f"has {self.schedule.n_nodes} nodes"
            )
        ck = sorted({int(k) for k in self.k_checkpoints})
        if not ck or ck[0] < 1:
            raise ParameterError(f"checkpoints must be >= 1, got {self.k_checkpoints!r}")
        object.__setattr__(self, "k_checkpoints", tuple(ck))
        if int(self.n_trials) < 1:
            raise ParameterError(f"n_trials must be >= 1, got {self.n_trials}")
        object.__setattr__(self, "n_trials", int(self.n_trials))
        if int(self.master_seed) < 0:
            raise ParameterError(f"master_seed must be >= 0, got {self.master_seed}")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        p0, p1 = (float(p) for p in self.priors)
        if not (p0 > 0.0 and p1 > 0.0) or abs(p0 + p1 - 1.0) > 1e-12:
            raise ParameterError(f"priors must be positive and sum to 1, got {self.priors!r}")
        object.__setattr__(self, "priors", (p0, p1))


@dataclass(frozen=True)
class MonteCarloResult:
    """Paired error counts and curves from one seeded run."""

    ks: np.ndarray
    node_curves: tuple
    centralized_curve: ErrorCurve
    false_alarm_counts: np.ndarray
    miss_counts: np.ndarray
    cen_false_alarm_counts: np.ndarray
    cen_miss_counts: np.ndarray
    n_trials: int
    n_chunks: int
    threads: int
    paired_gap: float

    def curve(self, node) -> ErrorCurve:
        label = str(node)
        if label == "cen":
            return self.centralized_curve
        for c in self.node_curves:
            if c.node == label:
                return c
        raise KeyError(f"no curve for node {node!r}")


def _chunk_sizes(n_trials: int) -> list:
    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    sizes = [CHUNK_TRIALS] * n_chunks
    sizes[-1] = n_trials - CHUNK_TRIALS * (n_chunks - 1)
    return sizes


def _resolve_threads(requested, n_jobs: int) -> int:
    env = os.environ.get(THREADS_ENV)
    env_cap = None
    if env is not None:
        try:
            env_cap = int(env)
        except ValueError:
            raise ParameterError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if env_cap < 1:
            raise ParameterError(f"{THREADS_ENV} must be >= 1, got {env_cap}")
    if requested is None:
        workers = env_cap if env_cap is not None else (os.cpu_count() or 1)
    else:
        workers = int(requested)
        if workers < 1:
            raise ParameterError(f"thread count must be >= 1, got {requested}")
        if env_cap is not None:
            workers = min(workers, env_cap)
    return max(1, min(workers, n_jobs))


def _run_chunk(plan: ExperimentPlan, hypothesis: Hypothesis, chunk: int, chunk_n: int):
    """Simulate one chunk under one hypothesis up to the last checkpoint.

    Returns per-checkpoint wrong-decision counts for the nodes and for the
    centralized statistic, plus the largest node-average vs centralized
    discrepancy seen (an exact-pairing diagnostic, zero up to rounding).
    """
    model, schedule = plan.model, plan.schedule
    n = model.n_sensors
    checkpoints = plan.k_checkpoints
    mean = model.mean(hypothesis)
    wrong = hypothesis == Hypothesis.H0  # under H0 an error is deciding H1
    node_counts = np.zeros((len(checkpoints), n), dtype=np.int64)
    cen_counts = np.zeros(len(checkpoints), dtype=np.int64)
    gap = 0.0
    x = np.zeros((chunk_n, n))
    d = np.zeros(chunk_n)
    pos = 0
    for k in range(1, checkpoints[-1] + 1):
        rng = np.random.default_rng((plan.master_seed, int(hypothesis), k, chunk))
        z = rng.standard_normal((chunk_n, n))
        eta = local_innovations(model, mean + z @ model.noise_chol.T)
        score = eta.sum(axis=1)
        if k == 1:
            x = n * eta
            d = score
        else:
            w = schedule.weight_at(k - 1)
            x = ((k - 1) / k) * (x @ w.T) + (n / k) * eta
            d = ((k - 1) * d + score) / k
        if k == checkpoints[pos]:
            # strict positivity decides H1; ties decide the null
            if wrong:
                node_counts[pos] = (x > 0.0).sum(axis=0)
                cen_counts[pos] = int((d > 0.0).sum())
            else:
                node_counts[pos] = (x <= 0.0).sum(axis=0)
                cen_counts[pos] = int((d <= 0.0).sum())
            gap = max(gap, float(np.abs(x.mean(axis=1) - d).max()))
            pos += 1
            if pos == len(checkpoints):
                break
    return hypothesis, node_counts, cen_counts, gap


def _binomial_curve(node, ks, fa, miss, n_trials, priors) -> ErrorCurve:
    a_hat = fa / n_trials
    b_hat = miss / n_trials
    with np.errstate(divide="ignore"):
        log_alpha = np.log(a_hat)
        log_beta = np.log(b_hat)
        log_pe = np.log(priors[0] * a_hat + priors[1] * b_hat)
    # rule of three stands in for the stderr at degenerate counts
    se_alpha = np.where(
        (fa > 0) & (fa < n_trials),
        np.sqrt(a_hat * (1.0 - a_hat) / n_trials),
        3.0 / n_trials,
    )
    se_beta = np.where(
        (miss > 0) & (miss < n_trials),
        np.sqrt(b_hat * (1.0 - b_hat) / n_trials),
        3.0 / n_trials,
    )
    se_pe = np.sqrt((priors[0] * se_alpha) ** 2 + (priors[1] * se_beta) ** 2)
    return ErrorCurve(
        node=str(node),
        ks=np.asarray(ks, dtype=int),
        log_alpha=log_alpha,
        log_beta=log_beta,
        log_pe=log_pe,
        priors=priors,
        source="monte-carlo",
        se_alpha=se_alpha,
        se_beta=se_beta,
        se_pe=se_pe,
    )


def run_monte_carlo(plan: ExperimentPlan, threads=None) -> MonteCarloResult:
    """Run the paired simulation and return binomial error curves.

    Chunks are independent jobs; the thread pool size never changes the
    counts because every chunk owns its generators.  ``threads`` overrides
    the CDL_THREADS / cpu-count default.
    """
    sizes = _chunk_sizes(plan.n_trials)
    jobs = [
        (hyp, c, size)
        for hyp in (Hypothesis.H0, Hypothesis.H1)
        for c, size in enumerate(sizes)
    ]
    workers = _resolve_threads(threads, len(jobs))
    n = plan.model.n_sensors
    n_ck = len(plan.k_checkpoints)
    fa = np.zeros((n_ck, n), dtype=np.int64)
    miss = np.zeros((n_ck, n), dtype=np.int64)
    cen_fa = np.zeros(n_ck, dtype=np.int64)
    cen_miss = np.zeros(n_ck, dtype=np.int64)
    gap = 0.0

    def consume(result):
        nonlocal gap
        hyp, node_counts, cen_counts, chunk_gap = result
        if hyp == Hypothesis.H0:
            fa_dst, cen_dst = fa, cen_fa
        else:
            fa_dst, cen_dst = miss, cen_miss
        fa_dst += node_counts
        cen_dst += cen_counts
        gap = max(gap, chunk_gap)

    if workers == 1:
        for hyp, c, size in jobs:
            consume(_run_chunk(plan, hyp, c, size))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(lambda j: _run_chunk(plan, *j), jobs):
                consume(result)

    ks = np.asarray(plan.k_checkpoints, dtype=int)
    node_curves = tuple(
        _binomial_curve(i + 1, ks, fa[:, i], miss[:, i], plan.n_trials, plan.priors)
        for i in range(n)
    )
    cen_curve = _binomial_curve("cen", ks, cen_fa, cen_miss, plan.n_trials, plan.priors)
    return MonteCarloResult(
        ks=ks,
        node_curves=node_curves,
        centralized_curve=cen_curve,
        false_alarm_counts=fa,
        miss_counts=miss,
        cen_false_alarm_counts=cen_fa,
        cen_miss_counts=cen_miss,
        n_trials=plan.n_trials,
        n_chunks=len(sizes),
        threads=workers,
        paired_gap=gap,
    )


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares decay fit of log pe over a checkpoint window."""

    window: tuple
    rate: float
    intercept: float
    residual: float
    n_points: int


def fit_exponent(curve: ErrorCurve, window) -> ExponentFit:
    """Fit log pe(k) = intercept - rate * k on checkpoints inside ``window``.

    Checkpoints whose estimate is exactly zero carry no slope information
    and are dropped, not treated as zeros; the fit needs three surviving
    points.  Raises InsufficientPoints when the window holds fewer than
    three checkpoints and ZeroProbabilityInWindow when the drops leave
    fewer than three.
    """
    lo, hi = (int(w) for w in window)
    if lo < 1 or hi <= lo:
        raise ParameterError(f"window must satisfy 1 <= lo < hi, got {window!r}")
    mask = (curve.ks >= lo) & (curve.ks <= hi)
    if int(mask.sum()) < 3:
        raise InsufficientPoints(
            f"window [{lo}, {hi}] holds {int(mask.sum())} checkpoint(s), need 3"
        )
    ks = curve.ks[mask].astype(float)
    log_pe = curve.log_pe[mask]
    finite = np.isfinite(log_pe)
    if int(finite.sum()) < 3:
        raise ZeroProbabilityInWindow(
            f"window [{lo}, {hi}] has {int(finite.sum())} nonzero estimate(s), need 3"
        )
    slope, intercept = np.polyfit(ks[finite], log_pe[finite], 1)
    fitted = slope * ks[finite] + intercept
    residual = float(np.sqrt(np.mean((fitted - log_pe[finite]) ** 2)))
    return ExponentFit(
        window=(lo, hi),
        rate=float(-slope),
        intercept=float(intercept),
        residual=residual,
        n_points=int(finite.sum()),
    )


def subexponential_factor(curve: ErrorCurve, chernoff: float) -> np.ndarray:
    """pe(k) * exp(k * chernoff): the part of the decay slower than e^{-kC}."""
    if not (np.isfinite(chernoff) and chernoff > 0.0):
        raise ParameterError(f"chernoff must be positive and finite, got {chernoff}")
    return np.exp(curve.log_pe + curve.ks * chernoff)


def score_agreement(pairs, n_trials: int, min_prob: float, sigma: float) -> tuple:
    """Score (exact, estimate) curve pairs; return (cells, passing, worst_pull).

    Every false-alarm and miss cell whose exact probability p is at least
    ``min_prob`` is judged; it passes when the estimate lies within
    ``sigma`` binomial standard errors sqrt(p (1 - p) / n_trials) of p.
    ``worst_pull`` is the largest |estimate - p| in standard errors.
    """
    cells = passing = 0
    worst_pull = 0.0
    for exact, estimate in pairs:
        for p, p_hat in ((exact.alpha, estimate.alpha), (exact.beta, estimate.beta)):
            judged = p >= min_prob
            p, p_hat = p[judged], p_hat[judged]
            se = np.sqrt(p * (1.0 - p) / n_trials)
            dev = np.abs(p_hat - p)
            cells += int(judged.sum())
            passing += int((dev <= sigma * se).sum())
            worst_pull = max(worst_pull, float((dev / se).max(initial=0.0)))
    return cells, passing, worst_pull


def _empirical_rate(curve: ErrorCurve) -> np.ndarray:
    return -curve.log_pe / curve.ks


def compare_detectors(
    plan: ExperimentPlan,
    k_early: int = 100,
    k_late: int = 500,
    gap_tolerance: float = 0.02,
    trajectory: MomentTrajectory | None = None,
) -> dict:
    """Exact-analysis comparison of every node against the centralized rate.

    The per-node figure is the finite-k exponent -log(pe)/k; a node passes
    when its late-checkpoint gap to the centralized exponent is at most
    ``gap_tolerance`` times the Chernoff information and has shrunk since
    the early checkpoint.  The verdict is suppressed (None) when the
    schedule fails its own structural validation, since the rate claim is
    only meaningful under those assumptions.  A ``trajectory`` reaching
    ``k_late`` is reused instead of propagating one.
    """
    if not 1 <= k_early < k_late:
        raise ParameterError(f"need 1 <= k_early < k_late, got {k_early}, {k_late}")
    model, schedule = plan.model, plan.schedule
    validation = validate_assumption(schedule)
    chernoff = chernoff_information(model)
    envelope = contraction_bound(schedule.n_nodes, schedule.min_weight, schedule.window)
    ks = [k_early, k_late]
    if trajectory is None:
        trajectory = propagate_moments(model, schedule, k_late)
    node_curves = exact_error_curves(model, trajectory, priors=plan.priors, ks=ks)
    cen_curve = centralized_error_curve(model, ks, priors=plan.priors)
    cen_rate = _empirical_rate(cen_curve)
    tolerance = gap_tolerance * chernoff
    nodes = []
    all_pass = True
    for curve in node_curves:
        rate = _empirical_rate(curve)
        gap_early = float(abs(cen_rate[0] - rate[0]))
        gap_late = float(abs(cen_rate[1] - rate[1]))
        ok = gap_late <= tolerance and gap_late < gap_early
        all_pass = all_pass and ok
        nodes.append(
            {
                "node": curve.node,
                "rate_early": float(rate[0]),
                "rate_late": float(rate[1]),
                "gap_early": gap_early,
                "gap_late": gap_late,
                "within_tolerance": bool(gap_late <= tolerance),
                "gap_shrinks": bool(gap_late < gap_early),
            }
        )
    if validation.passed:
        verdict = "pass" if all_pass else "fail"
        note = None
    else:
        verdict = None
        note = "schedule failed structural validation; rate comparison suppressed"
    return {
        "n_sensors": int(model.n_sensors),
        "priors": [float(p) for p in plan.priors],
        "chernoff_information": float(chernoff),
        "contraction": {
            "min_weight": float(schedule.min_weight),
            "window": int(schedule.window),
            "amplitude": float(envelope.amplitude),
            "ratio": float(envelope.ratio),
        },
        "assumption_check": validation.as_dict(),
        "k_early": int(k_early),
        "k_late": int(k_late),
        "gap_tolerance": float(tolerance),
        "centralized": {
            "rate_early": float(cen_rate[0]),
            "rate_late": float(cen_rate[1]),
        },
        "nodes": nodes,
        "verdict": verdict,
        "verdict_note": note,
    }
