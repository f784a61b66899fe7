"""Gaussian hypothesis pair: sensing model, log-likelihood ratios, innovations.

Observations follow y(k) = m_l + noise under hypothesis l in {0, 1}, where the
noise is zero-mean Gaussian with covariance ``cov`` shared by both hypotheses
and independent across time.  The log-likelihood ratio of a single snapshot is

    L(y) = w . (y - (m0 + m1)/2),        w = cov^{-1} (m1 - m0),

which is Gaussian under either hypothesis with variance sigma2 = (m1-m0) . w
and mean +sigma2/2 under H1, -sigma2/2 under H0.  L splits into per-sensor
terms eta_i = w_i (y_i - (m0_i + m1_i)/2); these "innovations" are what the
distributed detector exchanges, so their joint statistics are exposed here.
The noise is symmetric, so under H0 the llr and the innovations have the law
of their H1 values negated: only H1's means are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (
    DegenerateCovariance,
    IndistinguishableHypotheses,
    ParameterError,
    ShapeError,
)

__all__ = [
    "Hypothesis",
    "GaussianHypothesisPair",
    "build_model",
    "innovation_stats",
]

SPD_PIVOT_RTOL = 1e-12
SYMMETRY_ATOL = 1e-12


class Hypothesis(IntEnum):
    H0 = 0
    H1 = 1


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianHypothesisPair:
    """Two Gaussian measures on R^n differing only in their mean vector.

    All derived quantities are fixed at build time; arrays are read-only.
    ``noise_chol`` is the lower-triangular factor of ``cov`` used for
    sampling, ``innovation_weights`` solves cov @ w = m1 - m0.
    """

    n_sensors: int
    m0: np.ndarray
    m1: np.ndarray
    cov: np.ndarray
    noise_chol: np.ndarray
    innovation_weights: np.ndarray
    llr_variance: float  # the llr mean is +llr_variance/2 under H1, -llr_variance/2 under H0


def build_model(m0, m1, cov) -> GaussianHypothesisPair:
    """Validate inputs and fix every derived quantity of the pair.

    Raises ShapeError for dimension mismatches, IndistinguishableHypotheses
    when m0 == m1, DegenerateCovariance when cov is asymmetric beyond 1e-12
    or not positive definite (Cholesky failure, or any pivot below
    1e-12 times the largest diagonal entry).
    """
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if m0.ndim != 1 or m1.ndim != 1 or cov.ndim != 2:
        raise ShapeError("m0, m1 must be vectors and cov a matrix")
    n = m0.shape[0]
    if m1.shape != (n,) or cov.shape != (n, n):
        raise ShapeError(
            f"inconsistent shapes: m0 {m0.shape}, m1 {m1.shape}, cov {cov.shape}"
        )
    if not (np.isfinite(m0).all() and np.isfinite(m1).all() and np.isfinite(cov).all()):
        raise ParameterError("model inputs must be finite")
    scale = max(1.0, float(np.abs(cov).max()))
    if float(np.abs(cov - cov.T).max()) > SYMMETRY_ATOL * scale:
        raise DegenerateCovariance("covariance is not symmetric")
    if np.array_equal(m0, m1):
        raise IndistinguishableHypotheses("m0 and m1 are identical")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance("covariance is not positive definite") from exc
    pivots = np.diag(chol) ** 2
    if pivots.min() < SPD_PIVOT_RTOL * float(np.diag(cov).max()):
        raise DegenerateCovariance(
            f"covariance nearly singular: pivot {pivots.min():.3e}"
        )
    diff = m1 - m0
    weights = np.linalg.solve(cov, diff)
    sigma2 = float(diff @ weights)
    return GaussianHypothesisPair(
        n_sensors=n,
        m0=_frozen(m0),
        m1=_frozen(m1),
        cov=_frozen(cov),
        noise_chol=_frozen(chol),
        innovation_weights=_frozen(weights),
        llr_variance=sigma2,
    )


def innovation_stats(model: GaussianHypothesisPair) -> tuple[np.ndarray, np.ndarray]:
    """The innovation vector's H1 mean and its covariance, computed on demand.

    The H0 mean is the negation and the covariance is shared; the mean sums
    to llr_variance / 2 and the covariance's grand sum is llr_variance.
    """
    w = model.innovation_weights
    return _frozen(w * (model.m1 - model.m0) / 2.0), _frozen(np.outer(w, w) * model.cov)
