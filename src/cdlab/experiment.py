"""Monte Carlo engine and detector comparison reports.

Both detectors run on the same simulated observation streams so their
error curves are paired sample by sample.  Trials are processed in fixed
chunks of 4096 with one generator per (hypothesis, step, chunk); trial t
therefore sees the same noise regardless of the total trial count or the
number of worker threads.  The chunk kernel is node-major and carries
running sums in place of running means: decisions read only their signs.
"""

from __future__ import annotations

import os
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
from .errors import ParameterError, ShapeError
from .model import GaussianHypothesisPair, Hypothesis, innovation_stats
from .network import WeightSchedule, _check_integer, _check_ks, validate_assumption

CHUNK_TRIALS = 4096
THREADS_ENV = "CDL_THREADS"
# a late rate gap at most this fraction of the Chernoff information is
# rounding noise (a single node is its own fusion centre) and counts as shrunk
GAP_NOISE_FRACTION = 1e-12


@dataclass(frozen=True)
class Thresholds:
    """Acceptance thresholds: the rate comparison's, which both commands report, and the
    agreement's, which simulate judges; construction checks each domain."""

    gap_tolerance: float = 0.02
    k_early: int = 100
    k_late: int = 500
    agreement_sigma: float = 3.0
    agreement_min_prob: float = 1e-3
    agreement_min_fraction: float = 0.99
    mc_min_trials: int = 1000

    def __post_init__(self):
        for name, minimum in (("k_early", 1), ("k_late", 1), ("mc_min_trials", 0)):
            _check_integer(getattr(self, name), name, minimum)
        for name, ok, domain in (
            ("gap_tolerance", self.gap_tolerance > 0.0, "> 0"),
            ("k_early", self.k_early < self.k_late, f"< k_late = {self.k_late}"),
            ("agreement_sigma", self.agreement_sigma > 0.0, "> 0"),
            ("agreement_min_prob", 0.0 < self.agreement_min_prob < 1.0, "in (0, 1)"),
            ("agreement_min_fraction", 0.0 < self.agreement_min_fraction <= 1.0, "in (0, 1]"),
        ):
            if not ok:
                raise ParameterError(f"{name} must be {domain}, got {getattr(self, name)}")

    def visits(self, checkpoints=()) -> list:
        """The one visit rule of every exact trajectory: the checkpoints, k_early and k_late, sorted."""
        return sorted({*checkpoints, self.k_early, self.k_late})


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a Monte Carlo run needs, checkpoints normalized and sorted."""

    model: GaussianHypothesisPair
    schedule: WeightSchedule
    k_checkpoints: tuple
    n_trials: int
    master_seed: int

    def __post_init__(self):
        if self.model.n_sensors != self.schedule.n_nodes:
            raise ShapeError(
                f"model has {self.model.n_sensors} sensors but the schedule "
                f"has {self.schedule.n_nodes} nodes"
            )
        object.__setattr__(self, "k_checkpoints", tuple(_check_ks(self.k_checkpoints, "checkpoint")))
        object.__setattr__(self, "n_trials", _check_integer(self.n_trials, "n_trials", 1))
        object.__setattr__(self, "master_seed", _check_integer(self.master_seed, "master_seed", 0))


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
        workers = _check_integer(requested, "thread count", 1)
        if env_cap is not None:
            workers = min(workers, env_cap)
    return max(1, min(workers, n_jobs))


def _run_chunk(plan: ExperimentPlan, hypothesis: Hypothesis, chunk: int, chunk_n: int):
    """Simulate one chunk under one hypothesis up to the last checkpoint.

    Node-major, (N, chunk_n), with eta = diag(w) L z +- m_eta, m_eta the H1
    innovation mean: w (m_h - (m0 + m1)/2) is +m_eta under H1, -m_eta under H0.
    Carries u(k) = k x(k) / N = W(k-1) u(k-1) + eta(k) and D(k) = k d(k) =
    D(k-1) + score(k), whose signs are the decisions.  Returns per-checkpoint
    wrong-decision counts for the nodes and for the centralized statistic,
    and the largest |sum_i u_i - D| / k seen (zero up to rounding).
    """
    model, schedule = plan.model, plan.schedule
    n = model.n_sensors
    checkpoints = plan.k_checkpoints
    w = model.innovation_weights
    gain = model.noise_chol * w[:, None]
    wrong = hypothesis == Hypothesis.H0  # under H0 an error is deciding H1
    m_eta = innovation_stats(model)[0]
    offset = (-m_eta if wrong else m_eta)[:, None]
    node_counts = np.zeros((len(checkpoints), n), dtype=np.int64)
    cen_counts = np.zeros(len(checkpoints), dtype=np.int64)
    gap = 0.0
    eta = np.empty((n, chunk_n))
    u = np.zeros((n, chunk_n))
    mixed = np.empty((n, chunk_n))
    cen_sum = np.zeros(chunk_n)
    pos = 0
    for k in range(1, checkpoints[-1] + 1):
        rng = np.random.default_rng((plan.master_seed, int(hypothesis), k, chunk))
        z = rng.standard_normal((chunk_n, n))
        np.matmul(gain, z.T, out=eta)
        eta += offset
        cen_sum += eta.sum(axis=0)
        if k > 1:
            np.matmul(schedule.matrices[(k - 2) % schedule.period], u, out=mixed)
            u, mixed = mixed, u
        u += eta
        if k == checkpoints[pos]:
            # strict positivity decides H1; ties decide the null
            node_counts[pos] = np.count_nonzero((u > 0.0) == wrong, axis=1)
            cen_counts[pos] = np.count_nonzero((cen_sum > 0.0) == wrong)
            gap = max(gap, float(np.abs(u.sum(axis=0) - cen_sum).max()) / k)
            pos += 1
    return hypothesis, node_counts, cen_counts, gap


def _binomial_curve(node, ks, fa, miss, n_trials) -> ErrorCurve:
    counts = np.stack([fa, miss])
    a_hat, b_hat = hats = counts / n_trials
    with np.errstate(divide="ignore"):
        log_alpha, log_beta = np.log(hats)
        log_pe = np.log(0.5 * a_hat + 0.5 * b_hat)
    # rule of three stands in for the stderr at degenerate counts
    se_alpha, se_beta = np.where(
        (counts > 0) & (counts < n_trials), np.sqrt(hats * (1.0 - hats) / n_trials), 3.0 / n_trials
    )
    se_pe = np.sqrt((0.5 * se_alpha) ** 2 + (0.5 * se_beta) ** 2)
    return ErrorCurve(
        node=str(node),
        ks=np.asarray(ks, dtype=int),
        log_alpha=log_alpha,
        log_beta=log_beta,
        log_pe=log_pe,
        source="monte-carlo",
        se_alpha=se_alpha,
        se_beta=se_beta,
        se_pe=se_pe,
    )


def run_monte_carlo(plan: ExperimentPlan, threads=None) -> MonteCarloResult:
    """Run the paired simulation and return binomial error curves.

    Chunks are independent jobs; the thread pool size never changes the
    counts because every chunk owns its generators.  ``threads`` defaults to
    CDL_THREADS, else the cpu count; CDL_THREADS also caps an explicit count.
    """
    # imported here, where the pool starts, so that analyze and validate never load it
    from concurrent.futures import ThreadPoolExecutor

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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for hyp, node_counts, cen_counts, chunk_gap in pool.map(lambda j: _run_chunk(plan, *j), jobs):
            node_dst, cen_dst = (fa, cen_fa) if hyp == Hypothesis.H0 else (miss, cen_miss)
            node_dst += node_counts
            cen_dst += cen_counts
            gap = max(gap, chunk_gap)

    ks = np.asarray(plan.k_checkpoints, dtype=int)
    node_curves = tuple(_binomial_curve(i + 1, ks, fa[:, i], miss[:, i], plan.n_trials) for i in range(n))
    cen_curve = _binomial_curve("cen", ks, cen_fa, cen_miss, plan.n_trials)
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


def score_agreement(pairs, n_trials: int, min_prob: float, sigma: float) -> tuple:
    """Score (exact, estimate) curve pairs; return (cells, passing, worst_pull).

    Every false-alarm and miss cell whose exact probability p is at least
    ``min_prob`` is judged; it passes when the estimate lies within
    ``sigma`` binomial standard errors sqrt(p (1 - p) / n_trials) of p.
    A certain cell, p = 1, has no spread: it passes only at a count of
    exactly n_trials, its pull then 0 and otherwise infinite.
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
            with np.errstate(divide="ignore"):
                pulls = np.divide(dev, se, out=np.zeros_like(dev), where=dev > 0.0)
            worst_pull = max(worst_pull, float(pulls.max(initial=0.0)))
    return cells, passing, worst_pull


def _empirical_rate(curve: ErrorCurve) -> np.ndarray:
    return -curve.log_pe / curve.ks


def report_header(model: GaussianHypothesisPair, schedule: WeightSchedule) -> dict:
    """How every command states a scenario: the fields ``cdlab validate`` prints
    and analysis.json and comparison.json share.

    ``contraction`` holds the schedule's measured ``min_weight``, ``window``
    and ``envelope``, the window None when none connects and the envelope's
    ``amplitude`` and ``ratio`` None unless ``assumption_check``, the report
    of ``validate_assumption``, passes.  No field weights the hypotheses:
    every Bayes error is (alpha + beta) / 2.
    """
    envelope = schedule.envelope
    return {
        "n_sensors": int(model.n_sensors),
        "chernoff_information": float(chernoff_information(model)),
        "contraction": {
            "min_weight": float(schedule.min_weight),
            "window": schedule.window,
            "amplitude": None if envelope is None else envelope.amplitude,
            "ratio": None if envelope is None else envelope.ratio,
        },
        "assumption_check": validate_assumption(schedule).as_dict(),
    }


def compare_detectors(
    model: GaussianHypothesisPair,
    schedule: WeightSchedule,
    thresholds: Thresholds = Thresholds(),
    trajectory: MomentTrajectory | None = None,
) -> dict:
    """Exact-analysis comparison of every node against the centralized rate.

    The rate rule of both commands: ``analyze`` writes this report into
    analysis.json and ``simulate`` adds its agreement block to it.

    The per-node figure is the finite-k exponent -log(pe)/k at
    ``thresholds.k_early`` and ``thresholds.k_late``; a node passes when its
    late gap to the centralized exponent is at most
    ``thresholds.gap_tolerance`` times the Chernoff information and has
    shrunk since the early checkpoint (or is at most GAP_NOISE_FRACTION
    times the Chernoff information).  The verdict is suppressed (None) when
    the schedule fails its own structural validation, since the rate claim
    is only meaningful under those assumptions.  A ``trajectory`` that
    visited ``k_early`` and ``k_late`` is reused instead of one over ``visits()``.
    """
    k_early, k_late = thresholds.k_early, thresholds.k_late
    header = report_header(model, schedule)
    chernoff = header["chernoff_information"]
    ks = [k_early, k_late]
    if trajectory is None:
        trajectory = propagate_moments(model, schedule, thresholds.visits())
    node_curves = exact_error_curves(trajectory, ks=ks)
    cen_curve = centralized_error_curve(model, ks)
    cen_rate = _empirical_rate(cen_curve)
    tolerance = thresholds.gap_tolerance * chernoff
    nodes = []
    all_pass = True
    for curve in node_curves:
        rate = _empirical_rate(curve)
        gap_early = float(abs(cen_rate[0] - rate[0]))
        gap_late = float(abs(cen_rate[1] - rate[1]))
        shrinks = bool(gap_late < gap_early or gap_late <= GAP_NOISE_FRACTION * chernoff)
        all_pass = all_pass and gap_late <= tolerance and shrinks
        nodes.append(
            {
                "node": curve.node,
                "rate_early": float(rate[0]),
                "rate_late": float(rate[1]),
                "gap_early": gap_early,
                "gap_late": gap_late,
                "within_tolerance": bool(gap_late <= tolerance),
                "gap_shrinks": shrinks,
            }
        )
    if header["assumption_check"]["passed"]:
        verdict = "pass" if all_pass else "fail"
        note = None
    else:
        verdict = None
        note = "schedule failed structural validation; rate comparison suppressed"
    return {
        **header,
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


def check_simulation(plan: ExperimentPlan, thresholds: Thresholds) -> tuple:
    """Run the simulate check; return (result, exact_curves, report, accepted).

    The Monte Carlo ``result`` is scored against ``exact_curves`` (nodes
    1..N, then centralized, at its checkpoints) into the ``agreement``
    block of the ``compare_detectors`` report.  Agreement is waived below
    ``mc_min_trials`` trials; a run is accepted when the verdict is pass
    and agreement passed or was waived.
    """
    model = plan.model
    result = run_monte_carlo(plan)
    trajectory = propagate_moments(model, plan.schedule, thresholds.visits(plan.k_checkpoints))
    report = compare_detectors(model, plan.schedule, thresholds, trajectory)
    exact_curves = exact_error_curves(trajectory, ks=result.ks) + [centralized_error_curve(model, result.ks)]
    estimates = [*result.node_curves, result.centralized_curve]
    cells, passing, worst_pull = score_agreement(
        zip(exact_curves, estimates),
        plan.n_trials,
        thresholds.agreement_min_prob,
        thresholds.agreement_sigma,
    )
    waived = plan.n_trials < thresholds.mc_min_trials
    fraction = passing / cells if cells else 1.0
    agreement = {
        "waived": waived,
        "n_cells": cells,
        "n_passing": passing,
        "fraction": fraction,
        "worst_pull": worst_pull,
        "sigma": thresholds.agreement_sigma,
        "min_prob": thresholds.agreement_min_prob,
        "min_fraction": thresholds.agreement_min_fraction,
        "passed": bool(fraction >= thresholds.agreement_min_fraction),
    }
    if waived:
        agreement["note"] = (
            f"n_trials {plan.n_trials} below mc_min_trials "
            f"{thresholds.mc_min_trials}; intervals are wide and the "
            "agreement criterion is not enforced"
        )
    report["agreement"] = agreement
    report["n_trials"] = plan.n_trials
    report["master_seed"] = plan.master_seed
    report["paired_gap"] = result.paired_gap
    accepted = report["verdict"] == "pass" and (waived or agreement["passed"])
    return result, exact_curves, report, accepted
