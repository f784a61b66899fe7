"""Command-line front end: validate, analyze, simulate.

Exit codes: 0 success, 1 domain or acceptance failure, 2 config error,
3 I/O error.  Every artifact is a deterministic function of the config
file; a manifest records the config hash and tool version alongside the
hashes of the files written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    mixing_residual_curves,
    propagate_moments,
)
from .config import ScenarioConfig, scenario_from_file
from .errors import ConfigError
from .experiment import compare_detectors, fit_exponent, run_monte_carlo, score_agreement
from .network import check_geometric_decay, contraction_bound, validate_assumption

CURVE_HEADER = "node,k,source,alpha,beta,pe,log10_pe,se_alpha,se_beta,se_pe"
RESIDUAL_HEADER = "mu,k,node,value,bound"
RESIDUAL_MUS = (-1.0, -0.1, 0.1, 1.0)


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


def _float_cell(value) -> str:
    return repr(float(value))


def _curve_rows(curve) -> list:
    rows = []
    for i, k in enumerate(curve.ks):
        cells = [
            curve.node,
            str(int(k)),
            curve.source,
            _float_cell(curve.alpha[i]),
            _float_cell(curve.beta[i]),
            _float_cell(curve.pe[i]),
            _float_cell(curve.log10_pe[i]),
        ]
        for se in (curve.se_alpha, curve.se_beta, curve.se_pe):
            cells.append("" if se is None else _float_cell(se[i]))
        rows.append(",".join(cells))
    return rows


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Workspace:
    """Collects output files for one command run and writes the manifest."""

    def __init__(self, config_path: Path, config: ScenarioConfig, out_override, quiet: bool):
        self.config_path = config_path
        self.config = config
        self.out_dir = Path(out_override) if out_override else Path(config.out_dir)
        self.quiet = quiet
        self.written = []

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def path(self, suffix: str) -> Path:
        return self.out_dir / f"{self.config.name}_{suffix}"

    def write(self, suffix: str, text: str) -> Path:
        target = self.path(suffix)
        _write_text(target, text)
        self.written.append(target)
        self.say(f"wrote {target}")
        return target

    def write_manifest(self, command: str) -> Path:
        manifest = {
            "command": command,
            "config_path": str(self.config_path),
            "config_sha256": _sha256_file(self.config_path),
            "scenario": self.config.name,
            "version": __version__,
            "files": {p.name: _sha256_file(p) for p in self.written},
        }
        return self.write(f"{command}_manifest.json", _dump_json(manifest))


def _fit_window(checkpoints) -> tuple:
    """Default fit window: the last five checkpoints (at least three)."""
    ks = sorted(checkpoints)
    lo = ks[-5] if len(ks) >= 5 else ks[0]
    return (lo, ks[-1])


def _safe_fit(curve, window):
    try:
        fit = fit_exponent(curve, window)
    except ValueError as exc:
        return {"window": list(window), "error": str(exc)}
    return {
        "window": list(fit.window),
        "rate": fit.rate,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "n_points": fit.n_points,
    }


def cmd_validate(args) -> int:
    config = scenario_from_file(args.config)
    model = config.build_model()
    schedule = config.build_schedule()
    report = validate_assumption(schedule)
    payload = {
        "scenario": config.name,
        "n_sensors": model.n_sensors,
        "period": schedule.period,
        "window": schedule.window,
        "min_weight": schedule.min_weight,
        "validation": report.as_dict(),
    }
    if not args.quiet:
        print(_dump_json(payload), end="")
    return 0 if report.passed else 1


def cmd_analyze(args) -> int:
    config = scenario_from_file(args.config)
    model = config.build_model()
    schedule = config.build_schedule()
    validation = validate_assumption(schedule)
    if not validation.passed:
        print("schedule failed structural validation", file=sys.stderr)
        return 1
    ws = _Workspace(Path(args.config), config, args.out, args.quiet)

    ks = sorted(config.checkpoints)
    k_max = ks[-1]
    traj = propagate_moments(model, schedule, k_max)
    node_curves = exact_error_curves(model, traj, priors=config.priors, ks=ks)
    cen_curve = centralized_error_curve(model, ks, priors=config.priors)
    rows = [CURVE_HEADER]
    for curve in [cen_curve] + node_curves:
        rows.extend(_curve_rows(curve))
    ws.write("curves_exact.csv", "\n".join(rows) + "\n")

    decay = check_geometric_decay(schedule, max_gap=min(200, max(k_max, 2)))
    ws.write("decay_report.json", _dump_json(decay.as_dict()))

    res_rows = [RESIDUAL_HEADER]
    res_k_max = min(k_max, 512)
    residual_summary = {}
    if res_k_max >= 2:
        res_ks, values, bounds = mixing_residual_curves(model, schedule, res_k_max, RESIDUAL_MUS)
        node_cells = [f"{node}," for node in range(1, model.n_sensors + 1)]
        for mu, mu_values, mu_bounds in zip(RESIDUAL_MUS, values, bounds):
            for k, row, bound in zip(res_ks.tolist(), mu_values.tolist(), mu_bounds.tolist()):
                head, tail = f"{mu!r},{k},", f",{bound!r}"
                res_rows.extend([f"{head}{node}{value!r}{tail}" for node, value in zip(node_cells, row)])
            with np.errstate(invalid="ignore"):
                ratio = float((np.abs(mu_values) / mu_bounds[:, None]).max())
            residual_summary[repr(mu)] = {"max_abs_over_bound": ratio}
    ws.write("residual_diagnostic.csv", "\n".join(res_rows) + "\n")

    window = _fit_window(ks)
    envelope = contraction_bound(schedule.n_nodes, schedule.min_weight, schedule.window)
    fits = {"cen": _safe_fit(cen_curve, window)}
    for curve in node_curves:
        fits[curve.node] = _safe_fit(curve, window)
    analysis = {
        "scenario": config.name,
        "n_sensors": model.n_sensors,
        "priors": list(config.priors),
        "chernoff_information": chernoff_information(model),
        "llr_variance": model.llr_variance,
        "contraction": {
            "min_weight": schedule.min_weight,
            "window": schedule.window,
            "amplitude": envelope.amplitude,
            "ratio": envelope.ratio,
        },
        "assumption_check": validation.as_dict(),
        "decay_passed": decay.passed,
        "checkpoints": [int(k) for k in ks],
        "fit_window": list(window),
        "fits": fits,
        "residual": residual_summary,
    }
    ws.write("analysis.json", _dump_json(analysis))
    ws.write_manifest("analyze")
    return 0


def cmd_simulate(args) -> int:
    config = scenario_from_file(args.config)
    model = config.build_model()
    schedule = config.build_schedule()
    validation = validate_assumption(schedule)
    if not validation.passed:
        print("schedule failed structural validation", file=sys.stderr)
        return 1
    ws = _Workspace(Path(args.config), config, args.out, args.quiet)
    plan = config.build_plan(
        model=model, schedule=schedule, n_trials=args.trials, master_seed=args.seed
    )
    thresholds = config.thresholds

    result = run_monte_carlo(plan)
    rows = [CURVE_HEADER]
    for curve in [result.centralized_curve] + list(result.node_curves):
        rows.extend(_curve_rows(curve))
    ws.write("curves_mc.csv", "\n".join(rows) + "\n")

    traj = propagate_moments(model, schedule, max(plan.k_checkpoints[-1], thresholds.k_late))
    report = compare_detectors(
        plan,
        k_early=thresholds.k_early,
        k_late=thresholds.k_late,
        gap_tolerance=thresholds.gap_tolerance,
        trajectory=traj,
    )

    exact_nodes = exact_error_curves(model, traj, priors=plan.priors, ks=result.ks)
    exact_cen = centralized_error_curve(model, result.ks, priors=plan.priors)
    pairs = list(zip(exact_nodes, result.node_curves)) + [(exact_cen, result.centralized_curve)]
    cells, passing, _ = score_agreement(
        pairs, plan.n_trials, thresholds.agreement_min_prob, thresholds.agreement_sigma
    )
    waived = plan.n_trials < thresholds.mc_min_trials
    fraction = passing / cells if cells else 1.0
    agreement = {
        "waived": waived,
        "n_cells": cells,
        "n_passing": passing,
        "fraction": fraction,
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
    report["threads"] = result.threads
    ws.write("comparison.json", _dump_json(report))
    ws.write_manifest("simulate")

    accepted = report["verdict"] == "pass" and (waived or agreement["passed"])
    ws.say(
        f"verdict={report['verdict']} agreement="
        f"{'waived' if waived else agreement['passed']} -> exit {0 if accepted else 1}"
    )
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

    p_validate = sub.add_parser("validate", help="check the schedule's claims")
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
