"""Command-line front end: validate, analyze, simulate.

Exit codes: 0 success, 1 domain or acceptance failure, 2 config error,
3 I/O error.  Every artifact is a deterministic function of the config
file and flags, not of the thread count (``simulate`` prints that), streamed
to disk, hashed as it is written and replaced atomically; a manifest
records the config hash, tool version and those hashes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    centralized_error_curve,
    exact_error_curves,
    mixing_residual_curves,
    propagate_moments,
)
from .config import ScenarioConfig, scenario_from_file
from .errors import ConfigError, ParameterError
from .experiment import check_simulation, compare_detectors, report_header
from .network import check_geometric_decay

CURVE_HEADER = "node,k,source,alpha,beta,pe,log10_pe,se_alpha,se_beta,se_pe"
RESIDUAL_HEADER = "k,max_abs_a,node_a,c1,max_abs_b,node_b,c2"
# analyze reads the residual at its checkpoints in 2..here: it cancels a consensus part about k
# times its size from the moments, so it loses digits deeper, until that part is carried on its own
RESIDUAL_HORIZON = 512


def _jsonable(obj):
    """Recursively cast to JSON-safe natives; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _curves_csv(curves):
    """Yield the curves CSV: the header, then one chunk per curve."""
    yield CURVE_HEADER + "\n"
    for curve in curves:
        n = len(curve.ks)
        alpha = [*map(repr, curve.alpha.tolist())]
        # an exact curve's alpha, beta and pe are one tail, formatted once
        one_tail = np.array_equal(curve.log_beta, curve.log_alpha) and np.array_equal(curve.log_pe, curve.log_alpha)
        views = (curve.log10_pe, curve.se_alpha, curve.se_beta, curve.se_pe)
        columns = [[curve.node] * n, [str(int(k)) for k in curve.ks], [curve.source] * n, alpha]
        columns += [alpha, alpha] if one_tail else [map(repr, curve.beta.tolist()), map(repr, curve.pe.tolist())]
        columns += [[""] * n if view is None else map(repr, view.tolist()) for view in views]
        yield "".join([",".join(cells) + "\n" for cells in zip(*columns)])


def _residual_csv(peaks):
    """Yield the residual summary CSV: the header, then one line per row of ``ResidualCurves.peaks``."""
    yield RESIDUAL_HEADER + "\n"
    for k, peak_a, node_a, c1, peak_b, node_b, c2 in peaks:
        yield f"{k},{peak_a!r},{node_a},{c1!r},{peak_b!r},{node_b},{c2!r}\n"


class _Workspace:
    """Streams output files for one command run and writes the manifest."""

    def __init__(self, config_path: Path, config: ScenarioConfig, out_override, quiet: bool):
        self.config_path = config_path
        self.config = config
        self.out_dir = Path(out_override) if out_override else Path(config.out_dir)
        self.quiet = quiet
        self.written = []  # (path, sha256 hex digest) per file, in write order

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def write(self, suffix: str, chunks) -> Path:
        """Stream a text or text chunks, hashed as written, to a file that replaces the target."""
        target = self.out_dir / f"{self.config.name}_{suffix}"
        target.parent.mkdir(parents=True, exist_ok=True)
        partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        digest = hashlib.sha256()
        try:
            with open(partial, "wb") as handle:
                for chunk in (chunks,) if isinstance(chunks, str) else chunks:
                    data = chunk.encode()
                    handle.write(data)
                    digest.update(data)
            os.replace(partial, target)
        finally:
            partial.unlink(missing_ok=True)
        self.written.append((target, digest.hexdigest()))
        self.say(f"wrote {target}")
        return target

    def write_manifest(self, command: str) -> Path:
        manifest = {
            "command": command,
            "config_path": str(self.config_path),
            "config_sha256": hashlib.sha256(self.config_path.read_bytes()).hexdigest(),
            "scenario": self.config.name,
            "version": __version__,
            "files": {path.name: digest for path, digest in self.written},
        }
        return self.write(f"{command}_manifest.json", _dump_json(manifest))


def cmd_validate(args) -> int:
    config = scenario_from_file(args.config)
    model = config.build_model()
    schedule = config.build_schedule()
    header = report_header(model, schedule)
    if not args.quiet:
        print(_dump_json({"scenario": config.name, "period": schedule.period, **header}), end="")
    return 0 if header["assumption_check"]["passed"] else 1


def cmd_analyze(args) -> int:
    config = scenario_from_file(args.config)
    model = config.build_model()
    schedule = config.build_schedule()
    ws = _Workspace(Path(args.config), config, args.out, args.quiet)

    ks = config.checkpoints
    traj = propagate_moments(model, schedule, config.thresholds.visits(ks))
    rate = compare_detectors(model, schedule, config.thresholds, traj)
    ws.write("curves_exact.csv", _curves_csv([centralized_error_curve(model, ks), *exact_error_curves(traj, ks=ks)]))

    decay = check_geometric_decay(schedule)

    residual_ks = [k for k in ks if 2 <= k <= RESIDUAL_HORIZON]
    residual = mixing_residual_curves(model, schedule, traj, residual_ks) if residual_ks else None
    ws.write("residual_diagnostic.csv", _residual_csv(residual.peaks() if residual else ()))

    analysis = {
        **rate,
        "scenario": config.name,
        "llr_variance": model.llr_variance,
        "decay": dataclasses.asdict(decay),
        "checkpoints": [int(k) for k in ks],
        "residual": residual.supremum() if residual else None,
    }
    ws.write("analysis.json", _dump_json(analysis))
    ws.write_manifest("analyze")
    # the exit code is the decay check's alone: the rate verdict is reported, and a
    # schedule that has not mixed by k_late fails it without being in error
    if not decay.passed:
        print(decay.note or f"decay envelope exceeded: {decay.worst_witness}", file=sys.stderr)
    return 0 if decay.passed else 1


def plan_with_flags(config: ScenarioConfig, trials, seed):
    """The file's plan under each --trials/--seed given, applied alone; a ConfigError names the flag that failed."""
    plan = config.build_plan()
    for flag, field, value in (("--trials", "n_trials", trials), ("--seed", "master_seed", seed)):
        if value is not None:
            try:
                plan = dataclasses.replace(plan, **{field: value})
            except ParameterError as exc:
                raise ConfigError(f"{flag} {value}: {exc}") from None
    return plan


def cmd_simulate(args) -> int:
    config = scenario_from_file(args.config)
    plan = plan_with_flags(config, args.trials, args.seed)
    ws = _Workspace(Path(args.config), config, args.out, args.quiet)
    result, _, report, accepted = check_simulation(plan, config.thresholds)
    ws.write("curves_mc.csv", _curves_csv([result.centralized_curve, *result.node_curves]))
    ws.write("comparison.json", _dump_json(report))
    ws.write_manifest("simulate")

    agreement = report["agreement"]
    status = "waived" if agreement["waived"] else agreement["passed"]
    ws.say(f"verdict={report['verdict']} agreement={status} threads={result.threads} -> exit {0 if accepted else 1}")
    return 0 if accepted else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="Consensus detection laboratory: exact analysis and Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=f"cdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_validate = sub.add_parser("validate", help="print the schedule's measured floor, window and assumption check")
    common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser("analyze", help="exact curves, decay and residual reports")
    common(p_analyze)
    p_analyze.add_argument("--out", help="output directory (overrides config)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_simulate = sub.add_parser("simulate", help="Monte Carlo run and comparison report")
    common(p_simulate)
    p_simulate.add_argument("--out", help="output directory (overrides config)")
    p_simulate.add_argument("--trials", type=int, help="override experiment.n_trials")
    p_simulate.add_argument("--seed", type=int, help="override experiment.master_seed")
    p_simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
