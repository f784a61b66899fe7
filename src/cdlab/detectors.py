"""Step-driven detectors: centralized running mean and running consensus.

The centralized detector keeps D(k), the running mean of snapshot
log-likelihood ratios.  The distributed detector keeps one decision
variable per node and evolves it by

    x(k+1) = (k/(k+1)) W(k) x(k) + (N/(k+1)) eta(k+1),    x(1) = N eta(1),

where eta is the innovation vector of the new observation.  Because every
W(k) is doubly stochastic, the node average of x(k) reproduces D(k)
exactly, so both detectors can be compared pathwise on a shared stream.
Both decide H1 iff the decision variable is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import GaussianHypothesisPair, Hypothesis, llr, local_innovations
from .network import WeightSchedule

__all__ = [
    "CentralizedState",
    "DistributedState",
    "centralized_init",
    "centralized_step",
    "distributed_init",
    "distributed_step",
    "distributed_closed_form",
    "decide",
]


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
