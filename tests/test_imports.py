"""The commands need the package and numpy alone: no cdlab command loads any
scipy module, and none loads the test helpers.

Each case runs in a fresh interpreter, because the test process itself has
scipy and the helpers loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF3 = str(ROOT / "scenarios" / "ref3.json")

# argv: a JSON list of cdlab argvs, then the src directory.  Fails when cdlab
# loads from elsewhere or `import cdlab.cli` loads any scipy module; scipy
# cannot be imported afterwards.  Once every command has exited 0, fails when
# a test helper (tests, oracles, corpus, conftest) was loaded, and prints the
# scipy modules loaded.
PROBE = """
import json, sys
from pathlib import Path
import cdlab.cli

if Path(cdlab.cli.__file__).resolve().parent.parent != Path(sys.argv[2]):
    sys.exit(f"cdlab loaded from {cdlab.cli.__file__}, not from {sys.argv[2]}")

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
helpers = sorted(m for m, mod in list(sys.modules.items())
                 if mod is not None and m.split(".")[0] in ("tests", "oracles", "corpus", "conftest"))
if helpers:
    sys.exit(f"the commands loaded {helpers}")
print(json.dumps(scipy_loaded()))
"""


def run_probe(argvs, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs), str(ROOT / "src")],
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
