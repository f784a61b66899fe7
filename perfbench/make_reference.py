#!/usr/bin/env python3
"""Regenerate the references the benchmark checks outputs against.

Run from the repository root, only when the seeding contract or the
analysis deliberately changes:

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference/mc-<scenario>.json (false-alarm and miss counts
of ``cdlab simulate`` for simulate seeds 0..REFERENCE_SEEDS-1) and
perfbench/reference/exact-ring256_curves.csv (the exact curves of
``cdlab analyze``).  ``analyze`` must exit 0.  The counts of every seed are
stored with ``simulate``'s exit code.  The benchmark runs only the seeds
stored with exit code 0 and fails a command that exits nonzero.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run

from cdlab.cli import main as cdlab_main


def mc_reference(workload: str, tmp: Path) -> dict:
    """Counts and exit codes of simulate seeds 0..REFERENCE_SEEDS-1."""
    spec = run.WORKLOADS[workload]
    config = str(run.ROOT / spec["config"])
    seeds, exit_codes = {}, {}
    for seed in range(run.REFERENCE_SEEDS):
        out = tmp / f"{workload}-{seed}"
        argv = ["simulate", "--config", config, "--trials", str(run.MC_TRIALS),
                "--seed", str(seed), "--out", str(out), "--quiet"]
        rc = cdlab_main(argv)
        seeds[str(seed)] = checks.counts_from_csv(out / f"{spec['scenario']}_curves_mc.csv", run.MC_TRIALS)
        exit_codes[str(seed)] = rc
        print(f"{workload} seed {seed}: exit {rc}", file=sys.stderr)
    return {"config": spec["config"], "trials": run.MC_TRIALS, "exit_codes": exit_codes, "seeds": seeds}


def format_mc_reference(ref: dict) -> str:
    """JSON with one line per seed."""
    seeds = ",\n".join(f"  {json.dumps(s)}: {json.dumps(c)}" for s, c in ref["seeds"].items())
    return (
        f'{{"config": {json.dumps(ref["config"])}, "trials": {ref["trials"]},\n'
        f' "exit_codes": {json.dumps(ref["exit_codes"])},\n'
        f' "seeds": {{\n{seeds}\n}}}}\n'
    )


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    work = run.HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        for workload, spec in run.WORKLOADS.items():
            if spec["config"] is None:
                config = tmp / f"{spec['scenario']}.json"
                config.write_text(json.dumps(run.ring_config()))
                rc = cdlab_main(["analyze", "--config", str(config), "--out", str(tmp), "--quiet"])
                if rc != 0:
                    raise SystemExit(f"{workload}: analyze exited {rc}")
                checks.write_reference_curves(
                    tmp / f"{spec['scenario']}_curves_exact.csv",
                    checks.exact_reference_path(workload),
                )
            else:
                ref = mc_reference(workload, tmp)
                checks.mc_reference_path(workload).write_text(format_mc_reference(ref))
            print(f"{workload}: reference written", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
