#!/usr/bin/env python3
"""Sweep the network mixing residual over every step up to k-max.

One exact moment propagation gives, for every node and step, the residual's
two vectors a and b and the two terms c1 and c2 of the geometric envelope
derived from the schedule's contraction constants.  At tilt mu the residual
(the part of the scaled cumulant not explained by the drift term, read off
the disagreement parts of the moments) is mu a + mu^2 b and its bound
|mu| c1 + mu^2 c2.  The script prints the supremum of |residual| / bound over
every tilt 0 < |mu| <= 1, node and k, with its witness, and max k|a| and
max k|b|, which the 1/k envelope keeps bounded.  ``--out`` streams the
per-node rows, one line per (k, node).  It visits every k up to k-max;
``cdlab analyze`` reads the residual only at its checkpoints, so folded to
max |a| and max |b| per k, lowest node on ties, that CSV agrees with
``analyze``'s residual diagnostic at those k alone.  The residual is the H1
one; the H0 residual at a tilt is the H1 residual at its negation.
"""

import argparse
from pathlib import Path

# cdlab before numpy, so that the script runs OpenBLAS on one thread as the CLI does
from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.cli import RESIDUAL_HORIZON
from cdlab.config import scenario_from_file

import numpy as np

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PER_NODE_HEADER = "k,node,a,b,c1,c2"


def residual_csv(residual):
    """Yield the per-node residual CSV of a ``ResidualCurves``: the header, then one line per (k, node)."""
    yield PER_NODE_HEADER + "\n"
    for k, a, b, c1, c2 in zip(residual.ks.tolist(), residual.a, residual.b, residual.c1.tolist(), residual.c2.tolist()):
        tail = f",{c1!r},{c2!r}\n"
        yield "".join(f"{k},{node},{x!r},{y!r}{tail}" for node, (x, y) in enumerate(zip(a.tolist(), b.tolist()), 1))


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
    parser.add_argument("--out", default=None, help="optional CSV path for the per-node rows")
    args = parser.parse_args()

    config = scenario_from_file(SCENARIOS / f"{args.scenario}.json")
    model, schedule = config.build_model(), config.build_schedule()
    trajectory = propagate_moments(model, schedule, range(1, args.k_max + 1))
    residual = mixing_residual_curves(model, schedule, trajectory, range(2, args.k_max + 1))
    print(f"scenario {config.name}, k in [2, {args.k_max}]")
    sup = residual.supremum()  # a scenario file's schedule passed the assumption check, so it has an envelope
    tilt = "-> 0" if sup["tilt"] == 0.0 else f"{sup['tilt']:+.0f}"
    print(f"  sup over 0 < |mu| <= 1 of |residual|/bound {sup['sup_abs_over_bound']:.3e} "
          f"(node {sup['node']}, k {sup['k']}, mu {tilt})")
    ks = residual.ks[:, None]
    print(f"  max k*|a| {float((ks * np.abs(residual.a)).max()):.3e}   max k*|b| {float((ks * np.abs(residual.b)).max()):.3e}")
    if args.out is not None:
        with open(args.out, "w", newline="") as handle:
            handle.writelines(residual_csv(residual))
        print(f"wrote {residual.a.size} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
