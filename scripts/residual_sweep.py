#!/usr/bin/env python3
"""Sweep the network mixing residual over tilt values and steps.

One exact moment propagation gives, for every tilt, node and step, the
residual (the part of the scaled cumulant not explained by the drift
term, read off the disagreement parts of the moments) and the geometric
envelope derived from the schedule's contraction constants.  Each row is
formed once, summarized as it goes by and optionally streamed to CSV, one
line per (tilt, k, node), so memory is O(k-max N) whatever the number of
tilts.  It visits every k up to k-max; ``cdlab analyze`` forms rows only at
its checkpoints, so folded to max |value| per (tilt, k), first node on ties,
that CSV agrees with ``analyze``'s residual diagnostic at those k alone.
The residual is the H1 one; the H0 residual at a tilt is the H1 residual at
its negation.
"""

import argparse
import collections
from pathlib import Path

# cdlab before numpy, so that the script runs OpenBLAS on one thread as the CLI does
from cdlab.analysis import check_tilts, fold_worst_ratio, mixing_residual_curves, propagate_moments
from cdlab.cli import RESIDUAL_HORIZON, RESIDUAL_MUS
from cdlab.config import scenario_from_file
from cdlab.errors import ParameterError

import numpy as np

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PER_NODE_HEADER = "mu,k,node,value,bound"


def residual_csv(rows, n_nodes: int):
    """Yield the per-node residual CSV: the header, then n_nodes lines per (mu, k, values, bound) row."""
    yield PER_NODE_HEADER + "\n"
    node_cells = [f"{node},%r" for node in range(1, n_nodes + 1)]
    for mu, k, values, bound in rows:
        head, tail = f"{mu!r},{k},", f",{bound!r}\n"
        yield (head + (tail + head).join(node_cells) + tail) % tuple(values.tolist())


def parse_mus(text: str) -> tuple:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one tilt value")
    try:
        return check_tilts(values)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_k_max(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"the residual needs k-max >= 2, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", choices=sorted(p.stem for p in SCENARIOS.glob("*.json")), default="ref3",
                        help="run scenarios/SCENARIO.json")
    parser.add_argument("--k-max", type=parse_k_max, default=RESIDUAL_HORIZON, help="last step (default: analyze's last residual k)")
    parser.add_argument("--mus", type=parse_mus, default=RESIDUAL_MUS, help="comma-separated tilts (default: analyze's)")
    parser.add_argument("--out", default=None, help="optional CSV path for raw rows")
    args = parser.parse_args()

    config = scenario_from_file(SCENARIOS / f"{args.scenario}.json")
    model, schedule = config.build_model(), config.build_schedule()
    trajectory = propagate_moments(model, schedule, range(1, args.k_max + 1))
    residual = mixing_residual_curves(model, schedule, trajectory, range(2, args.k_max + 1), args.mus)
    print(f"scenario {config.name}, k in [2, {args.k_max}]")
    worst, scaled = {}, {}  # per mu: max |residual|/bound, max k|residual|

    def tracked(rows):
        for mu, k, values, bound, _, peak in fold_worst_ratio(rows, worst):
            scaled[mu] = np.maximum(scaled.get(mu, -np.inf), k * peak)
            yield mu, k, values, bound

    rows = tracked(residual.rows())
    if args.out is None:
        collections.deque(rows, maxlen=0)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.writelines(residual_csv(rows, residual.lin.shape[1]))
    for mu in residual.mus:
        print(f"  mu={mu:+.3g}: max |residual|/bound {float(worst[mu]):.3e}   "
              f"max k*|residual| {float(scaled[mu]):.3e}")
    if args.out is not None:
        print(f"wrote {len(residual.mus) * residual.lin.size} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
