"""Scenario files: strict reading of JSON shapes, then object construction.

A scenario is one JSON document with four sections (model, network,
experiment, output).  Reading is strict: the file must be UTF-8, a key
repeated within an object is refused rather than overwritten, unknown keys
anywhere are rejected, and so are network keys the topology would not read;
every value must have its JSON shape (a number, an integer, a list of
[i, j] pairs, a matrix), and diagnostics carry the dotted key path.
The domain of each field is checked once, by the rule that needs it:
``ScheduleSpec`` for the network, ``Thresholds`` for the acceptance
thresholds, ``covariance_matrix`` for the covariance and the integer rule
for the checkpoints, trial count and seed.  No key weights the hypotheses:
every Bayes error is (alpha + beta) / 2.
Their ParameterError or ShapeError becomes a ConfigError naming the
section, so the CLI exits 2 for every bad value in a file.
Content-level degeneracy (a singular covariance, a disconnected schedule)
is left to the builders so it surfaces as a domain error, not a parse error.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError
from .experiment import ExperimentPlan, Thresholds
from .model import GaussianHypothesisPair, _frozen, build_model
from .network import TOPOLOGIES, TOPOLOGY_FIELDS, ScheduleSpec, WeightSchedule, _check_integer, build_schedule

# default checkpoint grid: the powers of two up to 512, log-spaced curve rows
GEOMETRIC_CHECKPOINTS = tuple(2**i for i in range(10))

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
_EXPONENTIAL_PATTERN = re.compile(r"^exponential\((?P<rho>[^)]*)\)$")


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a key it holds twice (json.loads would keep the last)."""
    repeated = sorted(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
    if repeated:
        raise ConfigError(f"duplicate key(s) {', '.join(repeated)}")
    return dict(pairs)


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


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _vector(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return tuple(_finite_number(x, f"{path}[{i}]") for i, x in enumerate(value))


def _list(value, path: str, read) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(value))


def _edge(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected a pair [i, j], got {value!r}")
    return (_integer(value[0], f"{path}[0]"), _integer(value[1], f"{path}[1]"))


def _edge_list(value, path: str) -> tuple:
    return _list(value, path, _edge)


def _matrix(value, path: str) -> tuple:
    """A nonempty square matrix of finite numbers, as a tuple of row tuples."""
    rows = _list(value, path, lambda row, row_path: _list(row, row_path, _finite_number))
    if not rows or any(len(row) != len(rows) for row in rows):
        lengths = sorted({len(row) for row in rows})
        raise ConfigError(f"{path}: expected a square matrix, got {len(rows)} rows of lengths {lengths}")
    return rows


# the JSON shape of each ScheduleSpec field a network section may hold
_SPEC_READERS = {
    "edges": _edge_list,
    "link_cycle": lambda value, path: _list(value, path, _edge_list),
    "period": _integer,
    "seed": _integer,
    "keep_prob": _finite_number,
    "matrices": lambda value, path: _list(value, path, _matrix),
}


def _construct(path: str, make, *args, **kwargs):
    """Call a library constructor; its domain errors become ConfigErrors at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ParameterError, ShapeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def covariance_matrix(spec, n: int) -> np.ndarray:
    """Materialize a covariance spec as a read-only (n, n) array.

    ``spec`` is "identity", "exponential(rho)" with rho finite and >= 0
    (entry (i, j) is rho**|i - j|) or an n x n matrix; any other string
    raises ParameterError and a matrix of another size ShapeError.  Being
    read-only, the array is the one ``build_model`` holds, not copied.
    """
    if not isinstance(spec, str):
        cov = np.array(spec, dtype=float)
        if cov.shape != (n, n):
            raise ShapeError(f"matrix must be {n}x{n}, got shape {cov.shape}")
        return _frozen(cov)
    if spec == "identity":
        return _frozen(np.eye(n))
    m = _EXPONENTIAL_PATTERN.match(spec)
    if m is None:
        raise ParameterError(f"expected 'identity', 'exponential(rho)' or a matrix, got {spec!r}")
    try:
        rho = float(m.group("rho"))
    except ValueError:
        raise ParameterError(f"bad correlation {m.group('rho')!r}") from None
    if not math.isfinite(rho) or rho < 0.0:
        raise ParameterError(f"correlation must be finite and >= 0, got {rho}")
    idx = np.arange(n)
    return _frozen(rho ** np.abs(idx[:, None] - idx[None, :]))


def _parse_thresholds(d, path: str) -> Thresholds:
    d = _require_mapping(d, path)
    _check_keys(d, path, required=(), optional=[f.name for f in fields(Thresholds)])
    values = {}
    for f in fields(Thresholds):
        if f.name in d:
            read = _integer if isinstance(f.default, int) else _finite_number
            values[f.name] = read(d[f.name], f"{path}.{f.name}")
    return _construct(path, Thresholds, **values)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Parsed scenario: checked values in, builders out."""

    name: str
    m0: tuple
    m1: tuple
    covariance: np.ndarray
    schedule_spec: ScheduleSpec
    checkpoints: tuple  # sorted and distinct, so analyze and simulate see one set
    n_trials: int
    master_seed: int
    thresholds: Thresholds
    out_dir: str

    def build_model(self) -> GaussianHypothesisPair:
        return build_model(self.m0, self.m1, self.covariance)

    def build_schedule(self) -> WeightSchedule:
        return build_schedule(self.schedule_spec)

    def build_plan(self, n_trials=None, master_seed=None) -> ExperimentPlan:
        return ExperimentPlan(
            model=self.build_model(),
            schedule=self.build_schedule(),
            k_checkpoints=self.checkpoints,
            n_trials=self.n_trials if n_trials is None else n_trials,
            master_seed=self.master_seed if master_seed is None else master_seed,
        )


def scenario_from_dict(data) -> ScenarioConfig:
    top = _require_mapping(data, "config")
    _check_keys(top, "config", required=("name", "model", "network"), optional=("experiment", "output"))

    name = top["name"]
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ConfigError(f"config.name: expected a [A-Za-z0-9_-] identifier, got {name!r}")

    model = _require_mapping(top["model"], "model")
    _check_keys(model, "model", required=("m0", "m1", "covariance"), optional=())
    m0 = _vector(model["m0"], "model.m0")
    m1 = _vector(model["m1"], "model.m1")
    if len(m0) != len(m1):
        raise ConfigError(f"model: m0 has {len(m0)} entries but m1 has {len(m1)}")
    cov = model["covariance"]
    if not isinstance(cov, str):
        cov = _matrix(cov, "model.covariance")
    covariance = _construct("model.covariance", covariance_matrix, cov, len(m0))

    network = _require_mapping(top["network"], "network")
    topology = network.get("topology", "static")
    if topology not in TOPOLOGIES:
        raise ConfigError(f"network.topology: expected one of {TOPOLOGIES}, got {topology!r}")
    # a network section holds only keys it reads; those ScheduleSpec defaults to None are required
    path = f"network (topology {topology!r})"
    read = ("topology", *TOPOLOGY_FIELDS[topology])
    needed = [f.name for f in fields(ScheduleSpec) if f.name in read and f.default is None]
    _check_keys(network, path, required=needed, optional=read)
    spec_fields = {
        key: _SPEC_READERS[key](value, f"network.{key}")
        for key, value in network.items()
        if key in _SPEC_READERS
    }
    schedule_spec = _construct(path, ScheduleSpec, n_nodes=len(m0), topology=topology, **spec_fields)

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
    # the integer rule ExperimentPlan applies, reported at each value's dotted path
    checkpoints = tuple(
        sorted({_construct(f"experiment.checkpoints[{i}]", _check_integer, k, "checkpoint", 1) for i, k in enumerate(raw_ck)})
    )
    n_trials = _construct("experiment.n_trials", _check_integer, experiment.get("n_trials", 10_000), "n_trials", 1)
    master_seed = _construct("experiment.master_seed", _check_integer, experiment.get("master_seed", 0), "master_seed", 0)
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
        covariance=covariance,
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
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: cannot read config: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data)
