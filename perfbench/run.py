#!/usr/bin/env python3
"""Benchmark of cdlab's two verification paths: exact analysis and Monte Carlo.

Run from the repository root:

    python3 perfbench/run.py --workload mc-ref3 --seed 0 --seconds 20 --trace 0

Every CLI command runs as ``cdlab.cli.main([...])`` in a fresh process, one at
a time (closed loop, one client), with CDL_THREADS set to the number of
usable cores.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced command plus an untraced one for the tracing
overhead.  The last line of standard output is the result object; the line
before it is the environment record.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# ten full chunks of the engine's 4096 trials
MC_TRIALS = 40960
# simulate seeds 0..REFERENCE_SEEDS-1 have stored counts and exit codes
REFERENCE_SEEDS = 16
SETUP_REPEATS = 7
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0

RING_N = 256
RING_CHECKPOINTS = [2**i for i in range(11)]

WORKLOADS = {
    "mc-ref3": {"config": "scenarios/ref3.json", "scenario": "ref3"},
    "mc-n8": {"config": "scenarios/n8.json", "scenario": "n8"},
    "exact-ring256": {"config": None, "scenario": "ring256"},
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "config.parse_s": "s",
    "model.build_s": "s",
    "network.build_schedule_s": "s",
    "network.validate_s": "s",
    "network.validate_calls": "count",
    "network.decay_s": "s",
    "analysis.propagate_s": "s",
    "analysis.propagate_calls": "count",
    "analysis.propagate_bytes": "B",
    "analysis.curves_s": "s",
    "analysis.residual_s": "s",
    "analysis.residual_calls": "count",
    "experiment.mc_s": "s",
    "experiment.trial_steps_per_s": "1/s",
    "experiment.generators": "count",
    "experiment.rng_floor_s": "s",
    "experiment.mc_1t_s": "s",
    "experiment.mc_over_floor": "ratio",
    "experiment.thread_speedup": "ratio",
    "experiment.compare_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def ring_config() -> dict:
    """Ring of RING_N split into two alternating perfect matchings (period 2).

    No single step is connected; the union of two consecutive steps is the
    ring, like ref3 at scale.
    """
    n = RING_N
    odd = [[i, i + 1] for i in range(1, n, 2)]
    even = [[i, i + 1] for i in range(2, n, 2)] + [[n, 1]]
    return {
        "name": WORKLOADS["exact-ring256"]["scenario"],
        "model": {"m0": [0.0] * n, "m1": [0.3] * n, "covariance": "exponential(0.5)"},
        "network": {"topology": "alternating-links", "link_cycle": [odd, even]},
        "experiment": {"checkpoints": RING_CHECKPOINTS},
    }


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def src_record() -> dict:
    """Source line count and git commit (None outside a git work tree)."""
    loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"src_loc": loc, "git_commit": commit}


class Run:
    """One benchmark run: its inputs, its child processes and its deadline."""

    def __init__(self, workload: str, seed: int, seconds: int):
        spec = WORKLOADS[workload]
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = HERE / "_work" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["CDL_THREADS"] = str(usable_cores())
        self.scenario = spec["scenario"]
        if spec["config"] is None:
            self.config = self.work / f"{self.scenario}.json"
            self.config.write_text(json.dumps(ring_config()))
            self.mc = None
            self.reference = checks.exact_reference_path(workload)
        else:
            self.config = ROOT / spec["config"]
            ref = checks.load_json(checks.mc_reference_path(workload))
            if ref["trials"] != MC_TRIALS:
                raise BenchError(f"reference holds {ref['trials']} trials, bench runs {MC_TRIALS}")
            # --seed n runs the n-th (cyclically) stored seed at which simulate
            # exits 0; see the agreement-rule defect in NOTES.md
            passing = [s for s in range(REFERENCE_SEEDS) if ref["exit_codes"][str(s)] == 0]
            if not passing:
                raise BenchError("no stored simulate seed exits 0")
            sim_seed = passing[seed % len(passing)]
            self.mc = {"config": str(self.config), "trials": MC_TRIALS, "seed": sim_seed}
            self.reference = ref["seeds"][str(sim_seed)]
        self.commands = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def child(self, args) -> dict | None:
        """Run worker.py in a fresh process; its last stdout line, or None on failure."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            log(f"child timed out: {args[:2]}")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"child exited {proc.returncode}: {args[:2]}")
            return None
        return json.loads(lines[-1])

    def argv(self, out: Path) -> list:
        if self.mc is None:
            return ["analyze", "--config", str(self.config), "--out", str(out), "--quiet"]
        return [
            "simulate", "--config", str(self.config), "--trials", str(MC_TRIALS),
            "--seed", str(self.mc["seed"]), "--out", str(out), "--quiet",
        ]

    def out_dir(self) -> Path:
        self.commands += 1
        return self.work / f"cmd{self.commands}"

    def check(self, rc, out: Path) -> list:
        """Problems with one command's outputs; empty when correct.

        simulate writes its curves before it decides its exit code, so the
        counts are checked whatever the exit code.
        """
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            if self.mc is None:
                if rc != 0:
                    return problems
                return checks.curve_mismatches(out / f"{self.scenario}_curves_exact.csv", self.reference)
            counts = checks.counts_from_csv(out / f"{self.scenario}_curves_mc.csv", MC_TRIALS)
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"unreadable output: {type(exc).__name__}: {exc}"]
        if counts != self.reference:
            problems.append("counts differ from the stored reference")
        return problems

    def setup_times(self, repeats: int = SETUP_REPEATS) -> tuple:
        times, env = [], None
        for _ in range(repeats):
            res = self.child(["setup", str(self.config)])
            if res is None or not res["passed"]:
                raise BenchError("set-up failed: the scenario does not build or validate")
            times.append(res["setup_s"])
            env = res["env"]
        return times, env

    def command(self) -> tuple:
        """One untraced CLI command: (measurement or None, problems)."""
        out = self.out_dir()
        res = self.child(["command", *self.argv(out)])
        problems = ["no measurement"] if res is None else self.check(res["rc"], out)
        shutil.rmtree(out, ignore_errors=True)
        return res, problems

    def traced(self) -> tuple:
        """One traced command: (measurement or None, problems of command and probe)."""
        out = self.out_dir()
        spec = {"argv": self.argv(out), "out": str(out), "mc": self.mc}
        res = self.child(["trace", json.dumps(spec)])
        problems = ["no measurement"] if res is None else self.check(res["rc"], out)
        shutil.rmtree(out, ignore_errors=True)
        probe = []
        if res is not None and self.mc is not None:
            if res.get("counts_1t") != res.get("counts"):
                probe.append("1-thread counts differ from the multi-thread run")
            if res.get("counts_1t") != self.reference:
                probe.append("1-thread counts differ from the stored reference")
        return res, problems, probe


def median(values) -> float:
    return float(statistics.median(values))


def measure(run: Run) -> dict:
    setup, env = run.setup_times()
    log(f"setup_s: {' '.join(f'{t:.3f}' for t in setup)}")
    rows, attempted, failed = [], 0, 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < run.seconds:
        res, problems = run.command()
        attempted += 1
        if problems:
            failed += 1
            log(f"command {attempted} FAILED: {'; '.join(problems)}")
        if res is not None:
            rows.append(res)
            log(
                f"command {attempted}: wall {res['wall_s']:.3f} s cpu {res['cpu_s']:.3f} s "
                f"rss {res['peak_rss_mb']:.0f} MB rc {res['rc']}"
            )
    if not rows:
        raise BenchError("no command produced a measurement")
    values = {
        "wall_s": median(r["wall_s"] for r in rows),
        "cpu_s": median(r["cpu_s"] for r in rows),
        "setup_s": median(setup),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rows),
    }
    return {"values": values, "attempted": attempted, "failed": failed, "env": env}


def measure_traced(run: Run) -> dict:
    _, env = run.setup_times(repeats=1)
    passes, attempted, failed = [], 0, 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < run.seconds:
        traced, problems, probe = run.traced()
        plain, plain_problems = run.command()
        attempted += 2 + (run.mc is not None)
        failed += bool(problems) + bool(plain_problems) + bool(probe)
        for p in problems + plain_problems + probe:
            log(f"FAILED: {p}")
        if traced is None or plain is None:
            continue
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        passes.append(metrics)
        log(f"traced wall {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s, "
            f"{traced['wrapped']} functions wrapped")
        for name, row in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            log(f"  {name:60s} calls {row['calls']:6d} self {row['self_s']:.4f} s")
    if not passes:
        raise BenchError("no traced command produced a measurement")
    # Monte Carlo metrics read 0 on the exact workload, where that layer never runs
    values = {name: median(p.get(name, 0.0) for p in passes) for name in PER_LAYER}
    return {"values": values, "attempted": attempted, "failed": failed, "env": env}


def preflight() -> None:
    needed = [ROOT / "src" / "cdlab" / "cli.py", WORKER]
    needed += [ROOT / w["config"] for w in WORKLOADS.values() if w["config"]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a cdlab checkout, missing: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    run = None
    try:
        preflight()
        run = Run(args.workload, args.seed, args.seconds)
        result = measure_traced(run) if args.trace else measure(run)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        log(f"benchmark error: {type(exc).__name__}: {exc}")
        return 1
    finally:
        if run is not None:
            run.close()

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "simulate_seed": run.mc["seed"] if run.mc else None,
        "trials": MC_TRIALS if run.mc else None,
        "nproc": usable_cores(),
        **(result.get("env") or {}),
        **src_record(),
    }
    print(json.dumps({"environment": record}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["values"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
