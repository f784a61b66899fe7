"""Deterministic time-varying consensus schedules and their mixing bounds.

A schedule is a periodic sequence W(1), W(2), ... of symmetric stochastic
matrices, and it is nothing else: ``min_weight`` (the smallest positive entry
across one period), ``window`` (the shortest B for which the union of the
support graphs over every B consecutive steps is connected, None if none is),
the assumption check and the envelope are measured from the matrices, once.
Validity means: every W(k) is symmetric, stochastic and nonnegative with
strictly positive diagonal, and the union support over one period is
connected.  A graph is its edge set, a frozenset of (i < j) pairs on nodes
1..n, and ``ScheduleSpec`` checks each edge list once.

The backward product Phi(k, j) = W(k-1) ... W(j) governs how innovations
entered at time j spread by time k.  Its disagreement part (Phi minus the
averaging projector) contracts geometrically on a valid schedule, under the
proven ``envelope`` amplitude * ratio**(k-j); ``check_geometric_decay``
judges every gap against it: measured products first, then the 2-norm of
one period's product, which bounds every later gap.

``WeightSchedule.operators`` hands the exact path row-padded numpy factors on
large sparse schedules and dense BLAS ones otherwise, as for every corpus schedule.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidWeights, NoConnectedWindow, ParameterError, ShapeError

__all__ = [
    "ScheduleSpec",
    "WeightSchedule",
    "ContractionBound",
    "ValidationReport",
    "DecayReport",
    "build_schedule",
    "validate_assumption",
    "check_geometric_decay",
]

STOCHASTIC_ATOL = 1e-12
# factors with SPARSE_MIN_NODES nodes or more and at most SPARSE_DENSITY N nonzeros a row are
# padded; one covariance step on the two-matching ring (2-vCPU host, OpenBLAS at 1 thread),
# the fastest of 9 timings in us, padded sandwich against the dense step, in two runs:
#   N        32       48       64       80       96       128       256
#   padded   14       19       25       33-44    42-57    74        303-333
#   dense    12       20-21    37-44    59-86    93       221-222   1424-1473
# padded first wins at N = 48; no corpus or benchmark schedule has N in 9..255
SPARSE_DENSITY = 1 / 16
SPARSE_MIN_NODES = 64
# the ScheduleSpec fields each topology reads
TOPOLOGY_FIELDS = {
    "static": ("edges",),
    "alternating-links": ("link_cycle",),
    "random-subgraph": ("edges", "period", "seed", "keep_prob"),
    "explicit": ("matrices",),
}
TOPOLOGIES = tuple(TOPOLOGY_FIELDS)


def _check_integer(value, name: str, minimum: int) -> int:
    """The integer rule: a Python or numpy integer, not a bool, at least ``minimum``.

    Anything else, an integral float included, raises ParameterError rather
    than being truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_ks(values, name: str, minimum: int = 1) -> list:
    """The k-set rule: a nonempty set of integers >= ``minimum``, each by the integer rule, sorted."""
    ks = sorted({_check_integer(k, name, minimum) for k in values})
    if not ks:
        raise ParameterError(f"need at least one {name}, got none")
    return ks


def _edge_set(n: int, edges) -> frozenset:
    """The edge rule: pairs of distinct integer endpoints in 1..n, returned as (i < j)."""
    out = set()
    for e in edges:
        pair = tuple(_check_integer(x, f"edge {e!r} endpoint", 1) for x in e) if np.iterable(e) else ()
        if len(pair) != 2:
            raise ParameterError(f"edge {e!r} is not a pair")
        i, j = min(pair), max(pair)
        if i == j:
            raise ParameterError(f"self-loop on node {i}")
        if j > n:
            raise ParameterError(f"edge {e!r} outside nodes 1..{n}")
        out.add((i, j))
    return frozenset(out)


def _connected(n: int, edges) -> bool:
    """Breadth-first reachability from node 1; a single node is connected."""
    if n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    queue = [1]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def _metropolis_weights(n: int, edges: frozenset) -> np.ndarray:
    """W_ij = 1/(1 + max(d_i, d_j)) on checked edges, diagonal takes the remainder."""
    d = Counter(node for edge in edges for node in edge)
    w = np.zeros((n, n))
    for i, j in edges:
        w[i - 1, j - 1] = w[j - 1, i - 1] = 1.0 / (1.0 + max(d[i], d[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


@dataclass(frozen=True)
class ScheduleSpec:
    """Recipe for a periodic schedule.

    topology selects how the per-step matrices W(k) are produced:
      static             one graph (``edges``) repeated, period 1
      alternating-links  ``link_cycle`` lists the edge set of each step
      random-subgraph    seeded per-step subsets of ``edges``, each edge kept
                         with probability ``keep_prob``, frozen at build
      explicit           ``matrices`` taken verbatim, one per step
    Every topology but explicit takes Metropolis weights on each step's graph.

    Construction refuses a field the topology does not read (see
    ``TOPOLOGY_FIELDS``) unless it holds its default, then checks an integer
    ``n_nodes`` >= 1 and the fields read: explicit ``matrices`` nonempty and
    n_nodes x n_nodes (ShapeError otherwise), a nonempty ``link_cycle``, a
    random-subgraph integer ``period`` >= 1 and ``seed`` >= 0, ``keep_prob`` a
    number in [0, 1], and each edge list by the edge rule, kept as a frozenset
    of (i < j) pairs (``link_cycle`` as a tuple of them) that building trusts.
    """

    n_nodes: int
    topology: str = "static"
    edges: tuple = ()
    link_cycle: tuple | None = None
    period: int | None = None
    seed: int | None = None
    keep_prob: float = 0.5
    matrices: tuple | None = None

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ParameterError(f"unknown topology {self.topology!r}")
        read = ("n_nodes", "topology", *TOPOLOGY_FIELDS[self.topology])
        unread = []
        for f in fields(self):
            value = getattr(self, f.name)  # by identity against None, by contents otherwise: edges may be an array
            if f.name not in read and (value is not None if f.default is None else not np.array_equal(value, f.default)):
                unread.append(f.name)
        if unread:
            raise ParameterError(f"topology {self.topology!r} does not read {', '.join(unread)}")
        n = _check_integer(self.n_nodes, "n_nodes", 1)
        object.__setattr__(self, "n_nodes", n)
        if self.topology == "random-subgraph":
            _check_integer(self.period, "random-subgraph period", 1)
            _check_integer(self.seed, "random-subgraph seed", 0)
            if isinstance(self.keep_prob, bool) or not isinstance(self.keep_prob, (int, float, np.integer, np.floating)) or not 0.0 <= self.keep_prob <= 1.0:
                raise ParameterError(f"keep_prob must be a number in [0, 1], got {self.keep_prob!r}")
        if self.topology == "explicit":
            if not self.matrices:
                raise ParameterError("explicit topology needs matrices")
            for k, w in enumerate(self.matrices, start=1):
                if np.shape(w) != (n, n):
                    raise ShapeError(f"matrix {k} has shape {np.shape(w)}, expected ({n}, {n})")
        elif self.topology == "alternating-links":
            if not self.link_cycle:
                raise ParameterError("alternating-links needs a nonempty link_cycle")
            object.__setattr__(self, "link_cycle", tuple(_edge_set(n, step) for step in self.link_cycle))
        else:
            object.__setattr__(self, "edges", _edge_set(n, self.edges))


@dataclass(frozen=True)
class WeightSchedule:
    """W(k) = matrices[(k-1) % period]; every other figure is measured from the matrices, once."""

    matrices: np.ndarray  # (period, n, n), read-only

    def __post_init__(self):
        if len(shape := np.shape(self.matrices)) != 3 or shape[1] != shape[2] or 0 in shape:
            raise ShapeError(f"matrices must be (period, n, n) with period, n >= 1, got shape {shape}")

    @cached_property
    def min_weight(self) -> float:
        """The smallest positive entry over one period, 0.0 if none is."""
        positive = self.matrices[self.matrices > 0.0]
        return float(positive.min()) if positive.size else 0.0

    @cached_property
    def window(self) -> int | None:
        """Smallest B <= period with every B-step union support connected.

        A window of length >= period covers every residue, so searching up
        to the period is exhaustive; None when none is.
        """
        p, n = self.period, self.n_nodes
        step_edges = [_support_edges(w) for w in self.matrices]
        for b in range(1, p + 1):
            unions = (frozenset().union(*(step_edges[l % p] for l in range(k, k + b))) for k in range(p))
            if all(_connected(n, union) for union in unions):
                return b
        return None

    @cached_property
    def assumption_check(self) -> ValidationReport:
        """The matrices against the paper's network assumptions, in three items:
        symmetric-stochastic structure and the positive-weight floor, with the
        failures ``_weight_issues`` lists, and connectivity of the union support
        over one period, which fails exactly when ``window`` is None."""
        failures = {"symmetric-stochastic": [], "weight-floor": []}
        for check, failure in _weight_issues(self):
            failures[check].append(failure)
        failures["window-connectivity"] = [{"window": self.period, "issue": "disconnected-union"}] if self.window is None else []
        return ValidationReport(
            items=tuple(CheckResult(name, not found, tuple(found)) for name, found in failures.items())
        )

    @cached_property
    def envelope(self) -> ContractionBound | None:
        """The geometric envelope from network size, weight floor and window, proven
        under the paper's assumptions only: None unless ``assumption_check`` passes."""
        if not self.assumption_check.passed:
            return None
        n = self.n_nodes
        base = 1.0 - self.min_weight / (4.0 * n * n)
        return ContractionBound(amplitude=base**-2, ratio=base ** (1.0 / self.window))

    @property
    def n_nodes(self) -> int:
        return self.matrices.shape[1]

    @property
    def period(self) -> int:
        return self.matrices.shape[0]

    def operators(self) -> tuple:
        """W(1), ..., W(period) for ``@``: row-padded when large and no row holds
        more than ``SPARSE_DENSITY`` N nonzeros (one hub row would make every
        product pay N padded gathers), else dense.  The padded factors share
        one gather target and one transpose buffer, made here: a fresh one
        faults its pages in at every product."""
        n = self.n_nodes
        ops = [_PaddedRows(w) if n >= SPARSE_MIN_NODES and np.count_nonzero(w, axis=1).max() <= SPARSE_DENSITY * n else w for w in self.matrices]
        padded = [op for op in ops if type(op) is _PaddedRows]
        if padded:
            gather = np.empty((1 + max(len(op.cols) for op in padded), n, n))
            flip = np.empty((n, n))
            for op in padded:
                op.gather, op.flip = gather, flip
        return tuple(ops)


class _PaddedRows:
    """W x = sum over slots s of weights[s] x[cols[s]], slot 0 the diagonal; a row
    with fewer nonzeros pads with its own column at weight 0, reading only what
    the diagonal reads.  A product is one gather of x's rows into planes
    1..slots of ``gather``, the target ``WeightSchedule.operators`` shares
    with ``flip`` among a schedule's factors, and one weighted sum over the
    slots; plane 0 holds the fixed term of ``sandwich``, set once by the caller."""

    def __init__(self, w: np.ndarray):
        rows, cols = np.nonzero(w - np.diag(np.diag(w)))  # row-major: each row's slots are contiguous
        slots = 1 + np.arange(len(rows)) - np.searchsorted(rows, rows)
        self.cols = np.tile(np.arange(len(w)), (slots.max(initial=0) + 1, 1))
        self.weights = np.zeros(self.cols.shape)
        self.weights[0] = np.diag(w)
        self.cols[slots, rows], self.weights[slots, rows] = cols, w[rows, cols]
        self.scaled = np.empty((len(self.cols) + 1, len(w)))  # sandwich's weights, the fixed term's first

    def _gather(self, x: np.ndarray) -> np.ndarray:
        planes = self.gather[1 : len(self.cols) + 1] if x.shape == self.flip.shape else None
        return np.take(x, self.cols, axis=0, out=planes, mode="clip")

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("sa,sa...->a...", self.weights, self._gather(x))

    def sandwich(self, p: np.ndarray, scale: float, weight: float) -> None:
        """p <- scale W p W' + weight F in place, F = ``gather[0]``, for a symmetric N x N p.

        W (W p)' is formed as two products, the second summing the fixed term
        with the gathered rows, so no pass scales, adds or symmetrizes; the
        result is symmetric up to rounding.
        """
        np.einsum("sa,sam->am", self.weights, self._gather(p), out=p)
        np.copyto(self.flip, p.T)
        self._gather(self.flip)
        self.scaled[0] = weight
        np.multiply(self.weights, scale, out=self.scaled[1:])
        np.einsum("sa,sam->am", self.scaled, self.gather[: len(self.scaled)], out=p)


def _support_edges(w: np.ndarray) -> frozenset:
    rows, cols = np.nonzero(np.triu(w, 1) > 0.0)
    return frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))


def _step_edges(spec: ScheduleSpec) -> list:
    """The spec's checked edge set of each step of one period."""
    if spec.topology == "static":
        return [spec.edges]
    if spec.topology == "alternating-links":
        return list(spec.link_cycle)
    base = sorted(spec.edges)
    rng = np.random.default_rng(spec.seed)
    keeps = (rng.random(len(base)) < spec.keep_prob for _ in range(spec.period))
    return [frozenset(e for e, m in zip(base, keep) if m) for keep in keeps]


def build_schedule(spec: ScheduleSpec) -> WeightSchedule:
    """Weigh each step's checked edge set, or take explicit matrices; freeze; validate.

    The one place a failed assumption check raises: InvalidWeights on the
    first weight issue in step order (structure or floor), else
    NoConnectedWindow when no window length up to the period has connected
    union support; the returned schedule therefore passes its check.
    """
    if spec.topology == "explicit":
        mats = [np.array(m, dtype=float) for m in spec.matrices]
    else:
        mats = [_metropolis_weights(spec.n_nodes, edges) for edges in _step_edges(spec)]

    stacked = np.array(mats)
    stacked.flags.writeable = False
    schedule = WeightSchedule(matrices=stacked)
    *weights, connectivity = schedule.assumption_check.items
    # _weight_issues's order: by step, structure before floor, and a failure with no step last
    issues = [(failure.get("k", math.inf), item.name, failure) for item in weights for failure in item.failures]
    if issues:
        _, check, failure = min(issues, key=lambda issue: issue[0])
        raise InvalidWeights(f"{check}: {failure}")
    if not connectivity.passed:
        raise NoConnectedWindow(f"union support over a full period is disconnected (period {schedule.period})")
    return schedule


def _weight_issues(s: WeightSchedule) -> list:
    """Every violation of the weight assumption as (check name, failure) pairs.

    Per step k, under "symmetric-stochastic": non-finite entries (which end
    the step's checks), asymmetry, row sums off 1 and negative entries;
    under "weight-floor": a nonpositive diagonal entry.  Last, a measured
    ``min_weight`` outside (0, 1] is a "weight-floor" issue of its own.
    """
    issues = []

    def flag(check, k, issue, value):
        issues.append((check, {"k": k, "issue": issue, "value": value}))

    for k, w in enumerate(s.matrices, start=1):
        bad = int(np.count_nonzero(~np.isfinite(w)))
        if bad:
            flag("symmetric-stochastic", k, "non-finite", bad)
            continue
        sym = float(np.abs(w - w.T).max())
        rows = float(np.abs(w.sum(axis=1) - 1.0).max())
        neg = float(w.min())
        if sym > STOCHASTIC_ATOL:
            flag("symmetric-stochastic", k, "asymmetric", sym)
        if rows > STOCHASTIC_ATOL:
            flag("symmetric-stochastic", k, "row-sum", rows)
        if neg < -STOCHASTIC_ATOL:
            flag("symmetric-stochastic", k, "negative-entry", neg)
        dmin = float(np.diag(w).min())
        if dmin <= 0.0:
            flag("weight-floor", k, "diagonal-below-floor", dmin)
    if not 0.0 < s.min_weight <= 1.0:
        issues.append(("weight-floor", {"issue": "min-weight-range", "value": s.min_weight}))
    return issues


# ── validation report ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    failures: tuple = ()

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "failures": list(self.failures)}


@dataclass(frozen=True)
class ValidationReport:
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [item.as_dict() for item in self.items]}


def validate_assumption(s: WeightSchedule) -> ValidationReport:
    """The schedule's ``assumption_check``, which reports a failure and does not raise."""
    return s.assumption_check


# ── contraction ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ContractionBound:
    """Envelope amplitude * ratio**(k-j) for disagreement-product entries."""

    amplitude: float
    ratio: float


@dataclass(frozen=True)
class DecayReport:
    """Disagreement decay against the proven envelope, at every gap.

    Per start phase r, ``phases`` holds ``norm``, the 2-norm sigma_r of the
    disagreement product over one period from r, the rate -log(sigma_r) / P it
    proves, and ``tail_gap``, from which on sigma_r ** (gap // P) bounds every
    entry under the envelope.  The gaps before it are measured, and
    ``worst_ratio`` and ``worst_witness`` give their largest entry-to-envelope
    ratio.  ``asymptotic_rate`` is -log(rho) / P, rho the spectral radius the
    period products of every phase share, and ``envelope_rate`` is
    -log(ratio) of the paper's envelope.  ``note`` says why a check without
    an envelope or a closing tail fails.
    """

    worst_ratio: float
    worst_witness: dict
    phases: tuple
    asymptotic_rate: float | None
    envelope_rate: float | None
    passed: bool
    note: str | None = None


def _rate(norm: float, period: int) -> float:
    """The per-step rate -log(norm) / P, infinite when the products vanish."""
    return -math.log(norm) / period if norm > 0.0 else math.inf


def check_geometric_decay(s: WeightSchedule) -> DecayReport:
    """Judge max |disagreement entry| against the envelope at every gap.

    Each W(k) - J has 2-norm at most 1 on a schedule that passes
    ``validate_assumption``, so an entry of the product over g steps from
    phase r is at most sigma_r ** (g // P).  Products from each phase
    accumulate through ``s.operators()``, O(d N^2) a step with at most d
    nonzeros a row, and each is measured until that tail bound lies under
    the envelope for one full period; as sigma_r <= ratio ** P, it then does
    at every later gap too (Xiao and Boyd, Systems & Control Letters 53,
    2004).  ``passed`` is False when a measured entry exceeds the envelope
    by more than a relative 1e-9, when sigma_r > ratio ** P leaves the tail
    unproven, and when the schedule has no envelope: there is no contraction.
    """
    bound = s.envelope
    if bound is None:
        note = "no contraction: the weights fail the assumption check or the union support over a period is disconnected"
        return DecayReport(0.0, {}, (), None, None, False, note)
    n, period = s.n_nodes, s.period

    def envelope(gap):
        return bound.amplitude * bound.ratio**gap

    def tail_closes(norm, gap):
        """Whether norm ** (g // P) lies under the envelope at the P gaps after ``gap``."""
        return all(norm ** (g // period) <= envelope(g) * (1.0 + 1e-9) for g in range(gap + 1, gap + period + 1))

    ops = s.operators()
    worst = (0.0, {})
    passed = True
    phases = []
    for j0 in range(1, period + 1):
        prod = np.eye(n) - 1.0 / n
        gap, norm = 0, None
        while norm is None or (norm <= bound.ratio**period and not tail_closes(norm, gap)):
            gap += 1
            # (I - J) W prod = (W - J) prod: W is doubly stochastic, prod's columns sum to 0
            prod = ops[(j0 + gap - 2) % period] @ prod
            prod -= prod.mean(axis=0)
            value, line = float(np.abs(prod).max()), envelope(gap)
            passed = passed and value <= line * (1.0 + 1e-9)
            if value / line > worst[0]:
                worst = (value / line, {"j": j0, "k": j0 + gap, "gap": gap, "value": value, "bound": line})
            if gap == period:
                norm = float(np.linalg.norm(prod, 2))
                if j0 == 1:  # the period products of all phases are cyclic shifts: one spectrum
                    rho = float(np.abs(np.linalg.eigvals(prod)).max())
        phases.append({"phase": j0, "norm": norm, "proven_rate": _rate(norm, period), "tail_gap": gap + 1})
    unproven = [row["phase"] for row in phases if row["norm"] > bound.ratio**period]
    return DecayReport(
        worst_ratio=worst[0],
        worst_witness=worst[1],
        phases=tuple(phases),
        asymptotic_rate=_rate(rho, period),
        envelope_rate=-math.log(bound.ratio),
        passed=passed and not unproven,
        note=f"one period's norm does not prove the envelope's ratio from phases {unproven}" if unproven else None,
    )
