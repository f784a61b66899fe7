"""The scripts under scripts/ run to completion, agree with analyze on every corpus scenario and reject bad input."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.config import scenario_from_file
from corpus import CORPUS, build_scenario
from test_golden import REL, RESIDUAL_FLOOR
from oracles import fold_mismatches, per_cell_residual_csv

ROOT = Path(__file__).resolve().parent.parent


def load_sweep():
    """scripts/residual_sweep.py as a module, to run in this process."""
    spec = importlib.util.spec_from_file_location("residual_sweep", ROOT / "scripts" / "residual_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


@pytest.mark.parametrize(
    "argv",
    [
        ["run_reference.py", "--scenario", "ref3", "--trials", "2000"],
        ["residual_sweep.py", "--scenario", "ref3", "--k-max", "50"],
    ],
)
def test_script_exits_zero(argv, tmp_path):
    proc = run_script(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["residual_sweep.py", "--k-max", "1"], "k-max >= 2"),
        (["residual_sweep.py", "--k-max", "0"], "k-max >= 2"),
        # the tilt grid is gone: the residual's two vectors hold every tilt
        (["residual_sweep.py", "--mus=0,nan"], "unrecognized arguments: --mus=0,nan"),
        # the error names the flag that failed, and only that flag
        (["run_reference.py", "--trials", "0"], "error: --trials 0: n_trials must be an integer >= 1"),
        (["run_reference.py", "--seed", "-1"], "error: --seed -1: master_seed must be an integer >= 0"),
        (["residual_sweep.py", "--scenario", "nope"], "invalid choice"),
        (["run_reference.py", "--scenario", "nope"], "invalid choice"),
        (["run_reference.py", "--trials", "5", "--seed", "-1"], "error: --seed -1: master_seed must be an integer >= 0"),
    ],
    ids=[
        "sweep-k-max-1",
        "sweep-k-max-0",
        "sweep-mus-nan",
        "reference-trials-0",
        "reference-seed-neg",
        "sweep-scenario-unknown",
        "reference-scenario-unknown",
        "reference-trials-5-seed-neg",
    ],
)
def test_script_rejects_bad_flag(argv, message, tmp_path):
    """A bad flag is a usage error: exit 2 with the rule's message, no traceback."""
    proc = run_script(argv, tmp_path)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, flags",
    [("ref3", []), *((name, ["--scenario", name, "--k-max", "512"]) for name in CORPUS)],
    ids=["defaults", *CORPUS],
)
def test_residual_sweep_csv_folds_to_the_analyze_csv(name, flags, tmp_path, corpus_run):
    """One default: the script's --out file is the per-cell formatter's rows at every k, and
    folded by max |a| and max |b| per k, it is analyze's residual diagnostic at analyze's
    checkpoints, within the golden tolerances: analyze may jump to a checkpoint that the
    sweep steps to."""
    sweep = tmp_path / "sweep.csv"
    proc = run_script(["residual_sweep.py", *flags, "--out", str(sweep)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    model, schedule, config = build_scenario(name)
    trajectory = propagate_moments(model, schedule, range(1, 513))
    per_node = per_cell_residual_csv(mixing_residual_curves(model, schedule, trajectory, range(2, 513)))
    assert sweep.read_bytes() == per_node.encode()
    summary = (corpus_run(name) / f"{name}_residual_diagnostic.csv").read_text()
    assert fold_mismatches(per_node, summary, REL, RESIDUAL_FLOOR) == []
    rows = summary.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(k) for k in config.checkpoints if k >= 2]


def test_sweep_peak_memory_below_residual_csv_size(tmp_path, monkeypatch, capsys):
    """The sweep's per-node CSV is streamed: no copy of it, as rows or as one text, is held."""
    sweep = load_sweep()
    csv = tmp_path / "n8.csv"
    monkeypatch.setattr(sys, "argv", ["residual_sweep.py", "--scenario", "n8", "--k-max", "8192", "--out", str(csv)])
    tracemalloc.start()
    try:
        code = sweep.main()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    csv_size = csv.stat().st_size
    assert csv_size > 5_000_000
    assert peak < csv_size, (peak, csv_size)


def test_residual_memory_stays_within_a_few_vectors(ring_config):
    """Building the residual and streaming its per-node CSV holds a few K x N arrays: the two
    vectors, the temporaries that form them and one k's rows at a time.

    On a 64-node ring to k = 512 the traced peak stays under 6 K x N arrays
    (1.5 MiB); it reads 4.4.  Turning all of a and b into lists of Python
    floats at once would hold 10.5 of them.
    """
    sweep = load_sweep()
    config = scenario_from_file(ring_config(64, 512))
    model, schedule = config.build_model(), config.build_schedule()
    traj = propagate_moments(model, schedule, range(1, 513))
    tracemalloc.start()
    try:
        residual = mixing_residual_curves(model, schedule, traj, range(2, 513))
        for _ in sweep.residual_csv(residual):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 511 * 64 * 8, peak


def run_script(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
