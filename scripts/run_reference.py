#!/usr/bin/env python3
"""Run one corpus scenario end to end and print a compact report.

Exact analysis first (rates, per-node gap to the centralized exponent),
then a seeded Monte Carlo run cross-checked against the exact curves.
"""

import argparse

from cdlab.analysis import (
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    propagate_moments,
)
from cdlab.experiment import compare_detectors, run_monte_carlo, score_agreement
from cdlab.network import contraction_bound
from cdlab.scenarios import CORPUS, build_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=CORPUS, default="ref3")
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    model, schedule, config = build_scenario(args.scenario)
    plan = config.build_plan(
        model=model, schedule=schedule, n_trials=args.trials, master_seed=args.seed
    )
    c = chernoff_information(model)
    envelope = contraction_bound(schedule.n_nodes, schedule.min_weight, schedule.window)

    print(f"scenario {config.name}: {model.n_sensors} sensors, period {schedule.period}, "
          f"window {schedule.window}, min weight {schedule.min_weight:.4f}")
    print(f"chernoff information C = {c:.6f}   "
          f"envelope amplitude {envelope.amplitude:.4f}, ratio {envelope.ratio:.6f}")

    thresholds = config.thresholds
    traj = propagate_moments(model, schedule, max(plan.k_checkpoints[-1], thresholds.k_late))
    report = compare_detectors(
        plan,
        k_early=thresholds.k_early,
        k_late=thresholds.k_late,
        gap_tolerance=thresholds.gap_tolerance,
        trajectory=traj,
    )
    print(f"\nexact per-node exponent gap to centralized "
          f"(tolerance {report['gap_tolerance']:.2e}):")
    for entry in report["nodes"]:
        print(f"  node {entry['node']}: gap(k={report['k_early']}) {entry['gap_early']:.3e}  "
              f"gap(k={report['k_late']}) {entry['gap_late']:.3e}  "
              f"{'ok' if entry['within_tolerance'] and entry['gap_shrinks'] else 'FLAG'}")
    print(f"verdict: {report['verdict']}")

    print(f"\nmonte carlo: {plan.n_trials} trials per hypothesis, "
          f"seed {plan.master_seed}, checkpoints {list(plan.k_checkpoints)}")
    result = run_monte_carlo(plan)
    exact = exact_error_curves(model, traj, priors=plan.priors, ks=result.ks)
    exact_cen = centralized_error_curve(model, result.ks, priors=plan.priors)
    print(f"paired node-average vs centralized gap: {result.paired_gap:.2e}")

    pairs = list(zip(exact, result.node_curves)) + [(exact_cen, result.centralized_curve)]
    cells, passing, worst_pull = score_agreement(
        pairs, plan.n_trials, thresholds.agreement_min_prob, thresholds.agreement_sigma
    )
    print(f"agreement: {passing}/{cells} cells with exact p >= "
          f"{thresholds.agreement_min_prob:g} within {thresholds.agreement_sigma:g} binomial se; "
          f"worst pull {worst_pull:.2f} se")

    print("\nbayes error, node 1 vs centralized (exact | estimated):")
    node1_exact, node1_est = exact[0], result.node_curves[0]
    for pos, k in enumerate(result.ks):
        if node1_exact.pe[pos] < 1e-6:
            break
        print(f"  k={int(k):4d}  node1 {node1_exact.pe[pos]:.3e} | {node1_est.pe[pos]:.3e}   "
              f"cen {exact_cen.pe[pos]:.3e} | {result.centralized_curve.pe[pos]:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
