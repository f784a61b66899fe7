#!/usr/bin/env python3
"""Sweep the network mixing residual over tilt values and steps.

One exact moment propagation gives, for every tilt, node and step, the
residual (the part of the scaled cumulant not explained by the drift
term, read off the disagreement parts of the moments) and the geometric
envelope derived from the schedule's contraction constants.  Optionally
streams the raw rows to CSV in the same format as ``cdlab analyze``'s
residual diagnostic.
"""

import argparse

import numpy as np

from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.cli import residual_csv
from cdlab.model import Hypothesis
from cdlab.scenarios import CORPUS, build_scenario


def parse_mus(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one tilt value")
    return values


def parse_k_max(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"the residual needs k-max >= 2, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=CORPUS, default="ref3")
    parser.add_argument("--k-max", type=parse_k_max, default=500)
    parser.add_argument("--mus", type=parse_mus, default="-1.0,-0.1,0.1,1.0")
    parser.add_argument("--hypothesis", choices=["h0", "h1"], default="h1")
    parser.add_argument("--out", default=None, help="optional CSV path for raw rows")
    args = parser.parse_args()
    mus = args.mus if isinstance(args.mus, list) else parse_mus(args.mus)

    model, schedule, config = build_scenario(args.scenario)
    hypothesis = Hypothesis.H1 if args.hypothesis == "h1" else Hypothesis.H0

    print(f"scenario {config.name}, hypothesis {args.hypothesis}, k in [2, {args.k_max}]")
    trajectory = propagate_moments(model, schedule, range(1, args.k_max + 1))
    ks, values, bounds = mixing_residual_curves(model, schedule, trajectory, args.k_max, mus, hypothesis)
    for mu, mu_values, mu_bounds in zip(mus, values, bounds):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.abs(mu_values) / mu_bounds[:, None]
        worst_ratio = float(np.nanmax(ratios)) if np.isfinite(ratios).any() else 0.0
        worst_scaled = float(np.max(ks[:, None] * np.abs(mu_values)))
        print(f"  mu={mu:+.3g}: max |residual|/bound {worst_ratio:.3e}   "
              f"max k*|residual| {worst_scaled:.3e}")

    if args.out is not None:
        with open(args.out, "w", newline="") as handle:
            handle.writelines(residual_csv(mus, ks, values, bounds))
        print(f"wrote {values.size} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
