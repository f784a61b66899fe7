#!/usr/bin/env python3
"""Sweep the network mixing residual over tilt values and steps.

One sweep of the disagreement products gives, for every tilt, node and
step, the residual (the part of the scaled cumulant not explained by the
drift term) and the geometric envelope derived from the schedule's
contraction constants.  Optionally writes the raw rows to CSV.
"""

import argparse
import csv

import numpy as np

from cdlab.analysis import mixing_residual_curves
from cdlab.model import Hypothesis
from cdlab.scenarios import CORPUS, build_scenario


def parse_mus(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one tilt value")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=CORPUS, default="ref3")
    parser.add_argument("--k-max", type=int, default=500)
    parser.add_argument("--mus", type=parse_mus, default="-1.0,-0.1,0.1,1.0")
    parser.add_argument("--hypothesis", choices=["h0", "h1"], default="h1")
    parser.add_argument("--out", default=None, help="optional CSV path for raw rows")
    args = parser.parse_args()
    mus = args.mus if isinstance(args.mus, list) else parse_mus(args.mus)

    model, schedule, config = build_scenario(args.scenario)
    hypothesis = Hypothesis.H1 if args.hypothesis == "h1" else Hypothesis.H0

    print(f"scenario {config.name}, hypothesis {args.hypothesis}, k in [2, {args.k_max}]")
    ks, values, bounds = mixing_residual_curves(model, schedule, args.k_max, mus, hypothesis)
    rows = []
    for mu, mu_values, mu_bounds in zip(mus, values, bounds):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.abs(mu_values) / mu_bounds[:, None]
        worst_ratio = float(np.nanmax(ratios)) if np.isfinite(ratios).any() else 0.0
        worst_scaled = float(np.max(ks[:, None] * np.abs(mu_values)))
        for k, row, bound in zip(ks.tolist(), mu_values.tolist(), mu_bounds.tolist()):
            rows.extend((mu, k, node, value, bound) for node, value in enumerate(row, 1))
        print(f"  mu={mu:+.3g}: max |residual|/bound {worst_ratio:.3e}   "
              f"max k*|residual| {worst_scaled:.3e}")

    if args.out is not None:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["mu", "k", "node", "value", "bound"])
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
