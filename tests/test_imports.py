"""The commands need numpy alone: no cdlab command loads any scipy module.

Each case runs in a fresh interpreter, because the test process itself has
scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF3 = str(ROOT / "scenarios" / "ref3.json")

# argv: a JSON list of cdlab argvs.  Fails when `import cdlab.cli` loads any
# scipy module; scipy cannot be imported afterwards.  Prints the scipy modules
# loaded once every command has exited 0.
PROBE = """
import json, sys
import cdlab.cli

def scipy_loaded():
    return sorted(m for m, mod in list(sys.modules.items())
                  if mod is not None and m.split(".")[0] == "scipy")

if scipy_loaded():
    sys.exit(f"import cdlab.cli loaded {sorted({'.'.join(m.split('.')[:2]) for m in scipy_loaded()})}")
sys.modules["scipy"] = None
for argv in json.loads(sys.argv[1]):
    rc = cdlab.cli.main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
print(json.dumps(scipy_loaded()))
"""


def run_probe(argvs, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_corpus_commands_run_without_scipy(tmp_path):
    out = str(tmp_path / "out")
    argvs = [
        ["validate", "--quiet", "--config", REF3],
        ["analyze", "--quiet", "--config", REF3, "--out", out],
        ["simulate", "--quiet", "--config", REF3, "--out", out, "--trials", "2000"],
    ]
    assert run_probe(argvs, tmp_path) == []


def test_large_sparse_schedule_runs_without_scipy(tmp_path, ring_config):
    """A 64-node two-matching ring gets padded factors, built by numpy alone."""
    config = ring_config(64, 32)
    argvs = [
        ["validate", "--quiet", "--config", config],
        ["analyze", "--quiet", "--config", config, "--out", str(tmp_path / "out")],
    ]
    assert run_probe(argvs, tmp_path) == []
