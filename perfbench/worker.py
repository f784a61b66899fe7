"""One fresh benchmark process: set-up timing, one CLI command, or one traced command.

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py command ARGV...
    python3 perfbench/worker.py trace SPEC_JSON

``cdlab`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).  The
last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

# span name -> per-layer metric stem; spans below a boundary belong to its
# layer, spans with no boundary above them are the CLI's own work
BOUNDARIES = {
    "config.scenario_from_file": "config.parse",
    "config.scenario_from_dict": "config.parse",
    "config.covariance_matrix": "model.build",
    "model.build_model": "model.build",
    "network.build_schedule": "network.build_schedule",
    "network.validate_assumption": "network.validate",
    "network.check_geometric_decay": "network.decay",
    "analysis.propagate_moments": "analysis.propagate",
    "analysis.exact_error_curves": "analysis.curves",
    "analysis.centralized_error_curve": "analysis.curves",
    "analysis.mixing_residual_curves": "analysis.residual",
    "experiment.run_monte_carlo": "experiment.mc",
    "experiment.compare_detectors": "experiment.compare",
}
# per-layer call counts: metric -> span name
CALL_COUNTS = {
    "network.validate_calls": "network.validate_assumption",
    "analysis.propagate_calls": "analysis.propagate_moments",
    "analysis.residual_calls": "analysis.mixing_residual_curves",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_main(argv):
    from cdlab.cli import main

    c0 = time.process_time()
    t0 = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return rc, wall, cpu


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded; None if unknown."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CDL_THREADS": os.environ.get("CDL_THREADS"),
    }


def setup(config: str) -> dict:
    """Import, parse, build and validate through public functions, in a fresh process."""
    t0 = time.perf_counter()
    import cdlab.cli  # noqa: F401  (the entry point's import cost is part of set-up)
    from cdlab.config import scenario_from_file
    from cdlab.network import validate_assumption

    cfg = scenario_from_file(config)
    model = cfg.build_model()
    schedule = cfg.build_schedule()
    report = validate_assumption(schedule)
    setup_s = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "passed": report.passed,
        "n_sensors": model.n_sensors,
        "env": environment(),
    }


def command(argv) -> dict:
    import cdlab.cli  # noqa: F401  (import is set-up, not command time)

    rc, wall, cpu = _timed_main(argv)
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb()}


def rng_floor(master_seed: int, n_trials: int, n: int, k_max: int) -> float:
    """Seconds to make the engine's generators and normals, with no arithmetic.

    Follows the documented seeding contract: one
    ``default_rng((master_seed, hypothesis, k, chunk))`` per (hypothesis,
    step, chunk), chunks of CHUNK_TRIALS trials, ``standard_normal((chunk_n, n))``
    per step, on one thread.
    """
    import numpy as np
    from cdlab.experiment import CHUNK_TRIALS
    from cdlab.model import Hypothesis

    sizes = [min(CHUNK_TRIALS, n_trials - start) for start in range(0, n_trials, CHUNK_TRIALS)]
    t0 = time.perf_counter()
    for hypothesis in (Hypothesis.H0, Hypothesis.H1):
        for chunk, chunk_n in enumerate(sizes):
            for k in range(1, k_max + 1):
                rng = np.random.default_rng((master_seed, int(hypothesis), k, chunk))
                rng.standard_normal((chunk_n, n))
    return time.perf_counter() - t0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def trace(spec: dict) -> dict:
    """Run one CLI command under the tracer; for simulate, add the 1-thread probe and RNG floor."""
    import cdlab  # noqa: F401  (loads every cdlab module so all are wrapped)
    import cdlab.cli  # noqa: F401
    from checks import counts_from_result
    from tracer import Tracer

    tracer = Tracer(
        probes={
            "analysis.propagate_moments": lambda t: int(t.means.nbytes + t.covariances.nbytes),
            "experiment.run_monte_carlo": lambda r: {"counts": counts_from_result(r), "n_chunks": r.n_chunks},
        }
    )
    wrapped = tracer.install()
    try:
        rc, wall, _ = _timed_main(spec["argv"])
    finally:
        tracer.uninstall()

    self_times = tracer.self_times()
    layers = tracer.attribute(BOUNDARIES)
    metrics = {f"{stem}_s": 0.0 for stem in sorted(set(BOUNDARIES.values()))}
    for layer, t in zip(layers, self_times):
        if layer is not None:
            metrics[f"{layer}_s"] += t
    metrics["cli.self_s"] = wall - sum(metrics.values())
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = sum(1 for s in tracer.spans if s[0] == name)
    metrics["analysis.propagate_bytes"] = sum(
        s[4] for s in tracer.spans if s[0] == "analysis.propagate_moments" and s[4] is not None
    )
    metrics["cli.bytes_written"] = _dir_bytes(Path(spec["out"]))

    summary = {}
    for (name, *_), t, layer in zip(tracer.spans, self_times, layers):
        row = summary.setdefault(f"{name} in {layer or 'cli'}", {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += t

    out = {
        "rc": rc,
        "wall_s": wall,
        "wrapped": wrapped,
        "metrics": metrics,
        "spans": summary,
    }
    mc = spec.get("mc")
    mc_spans = [s for s in tracer.spans if s[0] == "experiment.run_monte_carlo" and s[4]]
    if mc is None or not mc_spans:
        return out

    from cdlab.config import scenario_from_file
    from cdlab.experiment import run_monte_carlo

    traced = mc_spans[-1][4]
    plan = scenario_from_file(mc["config"]).build_plan(n_trials=mc["trials"], master_seed=mc["seed"])
    k_max = max(plan.k_checkpoints)
    t0 = time.perf_counter()
    single = run_monte_carlo(plan, threads=1)
    mc_1t = time.perf_counter() - t0
    floor = rng_floor(plan.master_seed, plan.n_trials, plan.model.n_sensors, k_max)
    mc_s = metrics["experiment.mc_s"]
    metrics.update(
        {
            "experiment.rng_floor_s": floor,
            "experiment.mc_1t_s": mc_1t,
            "experiment.mc_over_floor": mc_1t / floor,
            "experiment.thread_speedup": mc_1t / mc_s,
            "experiment.trial_steps_per_s": 2 * plan.n_trials * k_max / mc_s,
            "experiment.generators": 2 * traced["n_chunks"] * k_max,
        }
    )
    out["counts"] = traced["counts"]
    out["counts_1t"] = counts_from_result(single)
    return out


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(rest[0])
    elif mode == "command":
        result = command(rest)
    elif mode == "trace":
        result = trace(json.loads(rest[0]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
