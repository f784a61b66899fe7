"""Smoke tests: the scripts under scripts/ run to completion on ref3 and reject bad input."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdlab.cli import main

ROOT = Path(__file__).resolve().parent.parent


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
    spec = importlib.util.spec_from_file_location("residual_sweep", ROOT / "scripts" / "residual_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

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


@pytest.mark.parametrize("flags", [[], ["--scenario", "ref3", "--k-max", "512"]], ids=["defaults", "explicit"])
def test_residual_sweep_csv_is_the_analyze_csv(flags, tmp_path):
    """One row format and one default: the script's --out file has the bytes of analyze's residual diagnostic."""
    sweep = tmp_path / "sweep.csv"
    proc = run_script(["residual_sweep.py", *flags, "--out", str(sweep)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    config = str(ROOT / "scenarios" / "ref3.json")
    assert main(["analyze", "--quiet", "--config", config, "--out", str(out)]) == 0
    assert sweep.read_bytes() == (out / "ref3_residual_diagnostic.csv").read_bytes()


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
