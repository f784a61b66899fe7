#!/usr/bin/env python3
"""Run one corpus scenario end to end and print a compact report.

Exact analysis first (rates, per-node gap to the centralized exponent),
then a seeded Monte Carlo run cross-checked against the exact curves: the
same check as ``cdlab simulate``, printed instead of written.
"""

import argparse
from pathlib import Path

from cdlab.cli import plan_with_flags
from cdlab.config import scenario_from_file
from cdlab.errors import ConfigError
from cdlab.experiment import check_simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=sorted(p.stem for p in SCENARIOS.glob("*.json")), default="ref3",
                        help="run scenarios/SCENARIO.json")
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    config = scenario_from_file(SCENARIOS / f"{args.scenario}.json")
    try:
        plan = plan_with_flags(config, args.trials, args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    result, exact, report, _ = check_simulation(plan, config.thresholds)
    schedule, contraction = plan.schedule, report["contraction"]

    print(f"scenario {config.name}: {report['n_sensors']} sensors, period {schedule.period}, "
          f"window {schedule.window}, min weight {schedule.min_weight:.4f}")
    print(f"chernoff information C = {report['chernoff_information']:.6f}   "
          f"envelope amplitude {contraction['amplitude']:.4f}, ratio {contraction['ratio']:.6f}")

    print(f"\nexact per-node exponent gap to centralized "
          f"(tolerance {report['gap_tolerance']:.2e}):")
    for entry in report["nodes"]:
        print(f"  node {entry['node']}: gap(k={report['k_early']}) {entry['gap_early']:.3e}  "
              f"gap(k={report['k_late']}) {entry['gap_late']:.3e}  "
              f"{'ok' if entry['within_tolerance'] and entry['gap_shrinks'] else 'FLAG'}")
    print(f"verdict: {report['verdict']}")

    print(f"\nmonte carlo: {plan.n_trials} trials per hypothesis, "
          f"seed {plan.master_seed}, checkpoints {list(plan.k_checkpoints)}")
    print(f"paired node-average vs centralized gap: {result.paired_gap:.2e}")
    agreement = report["agreement"]
    print(f"agreement: {agreement['n_passing']}/{agreement['n_cells']} cells with exact p >= "
          f"{agreement['min_prob']:g} within {agreement['sigma']:g} binomial se; "
          f"worst pull {agreement['worst_pull']:.2f} se")

    print("\nbayes error, node 1 vs centralized (exact | estimated):")
    node1_exact, node1_est, exact_cen = exact[0], result.node_curves[0], exact[-1]
    for pos, k in enumerate(result.ks):
        if node1_exact.pe[pos] < 1e-6:
            break
        print(f"  k={int(k):4d}  node1 {node1_exact.pe[pos]:.3e} | {node1_est.pe[pos]:.3e}   "
              f"cen {exact_cen.pe[pos]:.3e} | {result.centralized_curve.pe[pos]:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
