"""The scripts under scripts/ run to completion, agree with analyze on every corpus scenario and reject bad input."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.cli import RESIDUAL_MUS
from cdlab.config import scenario_from_file
from corpus import CORPUS, build_scenario
from test_golden import REL, RESIDUAL_FLOOR
from oracles import fold_mismatches, per_cell_residual_csv, residual_cube

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
        (["residual_sweep.py", "--mus=0,nan"], "tilts must be finite, got nan"),
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


def test_residual_sweep_refuses_a_bad_tilt_before_it_propagates(monkeypatch, capsys):
    """The tilts are checked as the flags are parsed, so no propagation runs for a bad one."""
    sweep = load_sweep()

    def propagate_moments(*args, **kwargs):
        raise AssertionError("propagate_moments ran")

    monkeypatch.setattr(sweep, "propagate_moments", propagate_moments)
    monkeypatch.setattr(sys, "argv", ["residual_sweep.py", "--k-max", "2", "--mus=0,1"])
    with pytest.raises(AssertionError, match="propagate_moments ran"):
        sweep.main()  # good tilts reach the patched propagation
    monkeypatch.setattr(sys, "argv", ["residual_sweep.py", "--k-max", "2", "--mus=0,nan"])
    with pytest.raises(SystemExit) as exit_info:
        sweep.main()
    assert exit_info.value.code == 2
    assert "tilts must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, flags",
    [("ref3", []), *((name, ["--scenario", name, "--k-max", "512"]) for name in CORPUS)],
    ids=["defaults", *CORPUS],
)
def test_residual_sweep_csv_folds_to_the_analyze_csv(name, flags, tmp_path, corpus_run):
    """One default: the script's --out file is the per-cell formatter's rows at every k, and
    folded by max |value| per (tilt, k), it is analyze's residual diagnostic at analyze's
    checkpoints, within the golden tolerances: analyze may jump to a checkpoint that the
    sweep steps to."""
    sweep = tmp_path / "sweep.csv"
    proc = run_script(["residual_sweep.py", *flags, "--out", str(sweep)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    model, schedule, config = build_scenario(name)
    trajectory = propagate_moments(model, schedule, range(1, 513))
    per_node = per_cell_residual_csv(RESIDUAL_MUS, *residual_cube(model, schedule, trajectory, range(2, 513), RESIDUAL_MUS))
    assert sweep.read_bytes() == per_node.encode()
    summary = (corpus_run(name) / f"{name}_residual_diagnostic.csv").read_text()
    assert fold_mismatches(per_node, summary, REL, RESIDUAL_FLOOR) == []
    rows = summary.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [str(k) for _ in RESIDUAL_MUS for k in config.checkpoints if k >= 2]


def test_sweep_peak_memory_below_residual_csv_size(tmp_path, monkeypatch, capsys):
    """The sweep's per-node CSV is streamed: no copy of it, as rows or as one text, is held."""
    sweep = load_sweep()
    csv = tmp_path / "n8.csv"
    monkeypatch.setattr(sys, "argv", ["residual_sweep.py", "--scenario", "n8", "--k-max", "4096", "--out", str(csv)])
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


def test_residual_memory_does_not_grow_with_tilts(ring_config):
    """Building and streaming the per-node residual holds O(K N), not O(len(mus) K N).

    Going from 4 tilts to 32 on a 64-node ring to k = 512 may add less
    than one K x N array (0.25 MiB) to the traced peak; a (len(mus), K, N)
    cube would add 28 of them (7.1 MiB).
    """
    sweep = load_sweep()
    config = scenario_from_file(ring_config(64, 512))
    model, schedule = config.build_model(), config.build_schedule()
    traj = propagate_moments(model, schedule, range(1, 513))
    peaks = []
    for mus in (RESIDUAL_MUS, [i / 16 for i in range(-16, 16)]):
        tracemalloc.start()
        try:
            residual = mixing_residual_curves(model, schedule, traj, range(2, 513), mus)
            for _ in sweep.residual_csv(residual.rows(), 64):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 511 * 64 * 8, peaks


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
