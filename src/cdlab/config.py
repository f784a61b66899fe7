"""Scenario files: strict parsing, domain checks and object construction.

A scenario is one JSON document with four sections (model, network,
experiment, output).  Parsing is strict: unknown keys anywhere are
rejected, and so are network keys the chosen topology or weight rule would
not read; numeric fields must sit in their documented domains, and all
diagnostics carry the dotted key path.  Content-level degeneracy (a
singular covariance, say) is left to the builders so it surfaces as a
domain error, not a parse error.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import _check_priors
from .errors import ConfigError, ParameterError
from .experiment import ExperimentPlan, Thresholds
from .model import GaussianHypothesisPair, build_model
from .network import TOPOLOGIES, TOPOLOGY_FIELDS, WEIGHT_RULES, ScheduleSpec, WeightSchedule, build_schedule

# default checkpoint grid: log-spaced coverage for exponent fits
GEOMETRIC_CHECKPOINTS = tuple(2**i for i in range(10))

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
_EXPONENTIAL_PATTERN = re.compile(r"^exponential\((?P<rho>[^)]*)\)$")


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, path: str, required, optional):
    allowed = set(required) | set(optional)
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {', '.join(missing)}")


def _finite_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {out}")
    return out


def _integer(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _vector(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return tuple(_finite_number(x, f"{path}[{i}]") for i, x in enumerate(value))


def _edge_list(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of [i, j] pairs")
    edges = []
    for i, e in enumerate(value):
        if not isinstance(e, list) or len(e) != 2:
            raise ConfigError(f"{path}[{i}]: expected a pair [i, j], got {e!r}")
        edges.append((_integer(e[0], f"{path}[{i}][0]", 1), _integer(e[1], f"{path}[{i}][1]", 1)))
    return tuple(edges)


def _parse_covariance(value, n: int, path: str):
    """Return the normalized spec ('identity', 'exponential(rho)' or a
    tuple-of-tuples matrix).  Only structure is checked here."""
    if isinstance(value, str):
        if value == "identity":
            return "identity"
        m = _EXPONENTIAL_PATTERN.match(value)
        if m is None:
            raise ConfigError(
                f"{path}: expected 'identity', 'exponential(rho)' or a matrix, got {value!r}"
            )
        try:
            rho = float(m.group("rho"))
        except ValueError:
            raise ConfigError(f"{path}: bad correlation {m.group('rho')!r}") from None
        if not math.isfinite(rho) or rho < 0.0:
            raise ConfigError(f"{path}: correlation must be finite and >= 0, got {rho}")
        return f"exponential({rho!r})"
    if isinstance(value, list):
        if len(value) != n:
            raise ConfigError(f"{path}: matrix must be {n}x{n}, got {len(value)} rows")
        rows = []
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != n:
                raise ConfigError(f"{path}[{i}]: matrix must be {n}x{n}")
            rows.append(tuple(_finite_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)))
        return tuple(rows)
    raise ConfigError(f"{path}: expected a string or a matrix, got {type(value).__name__}")


def covariance_matrix(spec, n: int) -> np.ndarray:
    """Materialize a normalized covariance spec as an (n, n) array."""
    if spec == "identity":
        return np.eye(n)
    if isinstance(spec, str):
        m = _EXPONENTIAL_PATTERN.match(spec)
        if m is None:
            raise ConfigError(f"unrecognized covariance spec {spec!r}")
        rho = float(m.group("rho"))
        idx = np.arange(n)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    return np.array(spec, dtype=float)


def _parse_priors(value, path: str) -> tuple:
    try:
        return _check_priors(_vector(value, path))
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_thresholds(d, path: str) -> Thresholds:
    d = _require_mapping(d, path)
    _check_keys(d, path, required=(), optional=[f.name for f in fields(Thresholds)])
    base = Thresholds()
    gap_tolerance = _finite_number(d.get("gap_tolerance", base.gap_tolerance), f"{path}.gap_tolerance")
    if gap_tolerance <= 0.0:
        raise ConfigError(f"{path}.gap_tolerance: must be > 0, got {gap_tolerance}")
    k_early = _integer(d.get("k_early", base.k_early), f"{path}.k_early", 1)
    k_late = _integer(d.get("k_late", base.k_late), f"{path}.k_late", 2)
    if k_early >= k_late:
        raise ConfigError(f"{path}: k_early ({k_early}) must be < k_late ({k_late})")
    sigma = _finite_number(d.get("agreement_sigma", base.agreement_sigma), f"{path}.agreement_sigma")
    if sigma <= 0.0:
        raise ConfigError(f"{path}.agreement_sigma: must be > 0, got {sigma}")
    min_prob = _finite_number(
        d.get("agreement_min_prob", base.agreement_min_prob), f"{path}.agreement_min_prob"
    )
    if not 0.0 < min_prob < 1.0:
        raise ConfigError(f"{path}.agreement_min_prob: must be in (0, 1), got {min_prob}")
    min_fraction = _finite_number(
        d.get("agreement_min_fraction", base.agreement_min_fraction),
        f"{path}.agreement_min_fraction",
    )
    if not 0.0 < min_fraction <= 1.0:
        raise ConfigError(
            f"{path}.agreement_min_fraction: must be in (0, 1], got {min_fraction}"
        )
    mc_min_trials = _integer(d.get("mc_min_trials", base.mc_min_trials), f"{path}.mc_min_trials", 0)
    return Thresholds(
        gap_tolerance=gap_tolerance,
        k_early=k_early,
        k_late=k_late,
        agreement_sigma=sigma,
        agreement_min_prob=min_prob,
        agreement_min_fraction=min_fraction,
        mc_min_trials=mc_min_trials,
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario: plain values in, builders out."""

    name: str
    m0: tuple
    m1: tuple
    covariance_spec: object
    priors: tuple
    schedule_spec: ScheduleSpec
    checkpoints: tuple
    n_trials: int
    master_seed: int
    thresholds: Thresholds
    out_dir: str

    @property
    def n_sensors(self) -> int:
        return len(self.m0)

    def covariance(self) -> np.ndarray:
        return covariance_matrix(self.covariance_spec, self.n_sensors)

    def build_model(self) -> GaussianHypothesisPair:
        return build_model(self.m0, self.m1, self.covariance())

    def build_schedule(self) -> WeightSchedule:
        return build_schedule(self.schedule_spec)

    def build_plan(self, n_trials=None, master_seed=None) -> ExperimentPlan:
        return ExperimentPlan(
            model=self.build_model(),
            schedule=self.build_schedule(),
            k_checkpoints=self.checkpoints,
            n_trials=self.n_trials if n_trials is None else n_trials,
            master_seed=self.master_seed if master_seed is None else master_seed,
            priors=self.priors,
        )


def scenario_from_dict(data) -> ScenarioConfig:
    top = _require_mapping(data, "config")
    _check_keys(top, "config", required=("name", "model", "network"), optional=("experiment", "output"))

    name = top["name"]
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ConfigError(f"config.name: expected a [A-Za-z0-9_-] identifier, got {name!r}")

    model = _require_mapping(top["model"], "model")
    _check_keys(model, "model", required=("m0", "m1", "covariance"), optional=("priors",))
    m0 = _vector(model["m0"], "model.m0")
    m1 = _vector(model["m1"], "model.m1")
    if len(m0) != len(m1):
        raise ConfigError(f"model: m0 has {len(m0)} entries but m1 has {len(m1)}")
    covariance_spec = _parse_covariance(model["covariance"], len(m0), "model.covariance")
    priors = _parse_priors(model.get("priors", [0.5, 0.5]), "model.priors")

    network = _require_mapping(top["network"], "network")
    topology = network.get("topology", "static")
    if topology not in TOPOLOGIES:
        raise ConfigError(f"network.topology: expected one of {TOPOLOGIES}, got {topology!r}")
    weight_rule = network.get("weight_rule", "metropolis")
    if weight_rule not in WEIGHT_RULES:
        raise ConfigError(f"network.weight_rule: expected one of {WEIGHT_RULES}, got {weight_rule!r}")
    # a network section holds only keys it reads; those ScheduleSpec defaults to None are required
    if weight_rule == "explicit":
        path, read = "network (weight_rule 'explicit')", ("weight_rule", "matrices")
    else:
        path = f"network (topology {topology!r})"
        read = ("topology", "weight_rule", *TOPOLOGY_FIELDS[topology])
    needed = [f.name for f in fields(ScheduleSpec) if f.name in read and f.default is None]
    _check_keys(network, path, required=needed, optional=read)
    edges = _edge_list(network.get("edges", []), "network.edges")
    link_cycle = None
    if "link_cycle" in network:
        raw_cycle = network["link_cycle"]
        if not isinstance(raw_cycle, list) or not raw_cycle:
            raise ConfigError("network.link_cycle: expected a nonempty list of edge lists")
        link_cycle = tuple(
            _edge_list(step, f"network.link_cycle[{i}]") for i, step in enumerate(raw_cycle)
        )
    period = None
    if "period" in network:
        period = _integer(network["period"], "network.period", 1)
    seed = None
    if "seed" in network:
        seed = _integer(network["seed"], "network.seed", 0)
    keep_prob = 0.5
    if "keep_prob" in network:
        keep_prob = _finite_number(network["keep_prob"], "network.keep_prob")
        if not 0.0 <= keep_prob <= 1.0:
            raise ConfigError(f"network.keep_prob: must be in [0, 1], got {keep_prob}")
    matrices = None
    if "matrices" in network:
        raw_m = network["matrices"]
        if not isinstance(raw_m, list) or not raw_m:
            raise ConfigError("network.matrices: expected a nonempty list of matrices")
        n = len(m0)
        matrices = tuple(
            _parse_covariance(mat, n, f"network.matrices[{i}]") for i, mat in enumerate(raw_m)
        )
        for i, mat in enumerate(matrices):
            if isinstance(mat, str):
                raise ConfigError(f"network.matrices[{i}]: expected an explicit matrix")
    schedule_spec = ScheduleSpec(
        n_nodes=len(m0),
        topology=topology,
        edges=edges,
        link_cycle=link_cycle,
        period=period,
        seed=seed,
        keep_prob=keep_prob,
        weight_rule=weight_rule,
        matrices=matrices,
    )

    experiment = _require_mapping(top.get("experiment", {}), "experiment")
    _check_keys(
        experiment,
        "experiment",
        required=(),
        optional=("checkpoints", "n_trials", "master_seed", "thresholds"),
    )
    raw_ck = experiment.get("checkpoints", list(GEOMETRIC_CHECKPOINTS))
    if not isinstance(raw_ck, list) or not raw_ck:
        raise ConfigError("experiment.checkpoints: expected a nonempty list of integers")
    checkpoints = tuple(
        _integer(k, f"experiment.checkpoints[{i}]", 1) for i, k in enumerate(raw_ck)
    )
    n_trials = _integer(experiment.get("n_trials", 10_000), "experiment.n_trials", 1)
    master_seed = _integer(experiment.get("master_seed", 0), "experiment.master_seed", 0)
    thresholds = _parse_thresholds(experiment.get("thresholds", {}), "experiment.thresholds")

    output = _require_mapping(top.get("output", {}), "output")
    _check_keys(output, "output", required=(), optional=("directory",))
    out_dir = output.get("directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.directory: expected a nonempty string, got {out_dir!r}")

    return ScenarioConfig(
        name=name,
        m0=m0,
        m1=m1,
        covariance_spec=covariance_spec,
        priors=priors,
        schedule_spec=schedule_spec,
        checkpoints=checkpoints,
        n_trials=n_trials,
        master_seed=master_seed,
        thresholds=thresholds,
        out_dir=out_dir,
    )


def scenario_from_file(path) -> ScenarioConfig:
    """Parse a scenario JSON file; all failures become ConfigError."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data)
