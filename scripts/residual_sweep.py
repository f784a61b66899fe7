#!/usr/bin/env python3
"""Sweep the network mixing residual over tilt values and steps.

One exact moment propagation gives, for every tilt, node and step, the
residual (the part of the scaled cumulant not explained by the drift
term, read off the disagreement parts of the moments) and the geometric
envelope derived from the schedule's contraction constants.  Each row is
formed once, summarized as it goes by and optionally streamed to CSV in
the same format as ``cdlab analyze``'s residual diagnostic, so memory is
O(k-max N) whatever the number of tilts.
"""

import argparse
import collections

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
    residual = mixing_residual_curves(model, schedule, trajectory, args.k_max, mus, hypothesis)
    ratio, finite, scaled = {}, set(), {}  # per mu: nanmax |residual|/bound, any finite ratio, max k|residual|

    def tracked(rows):
        for mu, k, values, bound in rows:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.abs(values) / bound
            if np.isfinite(ratios).any():
                finite.add(mu)
            ratio[mu] = np.fmax(ratio.get(mu, np.nan), np.fmax.reduce(ratios))
            scaled[mu] = np.maximum(scaled.get(mu, -np.inf), (k * np.abs(values)).max())
            yield mu, k, values, bound

    rows = tracked(residual.rows())
    if args.out is None:
        collections.deque(rows, maxlen=0)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.writelines(residual_csv(rows, residual.lin.shape[1]))
    for mu in residual.mus:
        worst_ratio = float(ratio[mu]) if mu in finite else 0.0
        print(f"  mu={mu:+.3g}: max |residual|/bound {worst_ratio:.3e}   "
              f"max k*|residual| {float(scaled[mu]):.3e}")
    if args.out is not None:
        print(f"wrote {len(mus) * residual.lin.size} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
