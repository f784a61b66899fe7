"""One thread model: the CDL_THREADS workers are cdlab's only parallelism.

``import cdlab`` sets OPENBLAS_NUM_THREADS to 1 unless the user set it, so no
artifact depends on the host's core count.  Each case runs in a fresh
interpreter, because the test process has numpy, and so OpenBLAS, loaded.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# argv: modules to import in turn.  Prints OPENBLAS_NUM_THREADS, then the
# threads the loaded OpenBLAS reports after each import (perfbench's reader).
BLAS_PROBE = """
import json, os, sys
from worker import _blas_threads
threads = []
for module in sys.argv[1:]:
    __import__(module)
    threads.append(_blas_threads())
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""

# argv: a JSON list of cdlab argvs.  Prints their exit codes.
COMMANDS = """
import json, sys
import cdlab.cli
print(json.dumps([cdlab.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def run_fresh(code, args, cwd, openblas=None):
    """Run ``code`` in a fresh interpreter with OPENBLAS_NUM_THREADS unset, or
    set to ``openblas``; return its last line of output, read as JSON."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    paths = (str(ROOT / "src"), str(ROOT / "scripts"), str(PERFBENCH), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["cdlab", "residual_sweep", "run_reference"])
def test_import_puts_openblas_on_one_thread(module, tmp_path):
    """cdlab, and the scripts, which import it before numpy."""
    value, (threads,) = run_fresh(BLAS_PROBE, [module], tmp_path)
    assert value == "1"
    if threads is None:
        pytest.skip("no OpenBLAS found beside numpy")
    assert threads == 1


def test_user_and_earlier_blas_settings_are_kept(tmp_path):
    """A user's OPENBLAS_NUM_THREADS wins, and numpy loaded before cdlab keeps
    the library's default."""
    value, (threads,) = run_fresh(BLAS_PROBE, ["cdlab"], tmp_path, openblas="2")
    assert value == "2"
    _, (default, after_cdlab) = run_fresh(BLAS_PROBE, ["numpy", "cdlab"], tmp_path)
    if default is None:
        pytest.skip("no OpenBLAS found beside numpy")
    assert after_cdlab == default
    assert threads == min(2, default)


def test_artifacts_do_not_depend_on_the_cores(tmp_path, monkeypatch, ring_config):
    """analyze on the benchmark's 256-node ring (perfbench's own ``ring_config``)
    and simulate on a 64-node ring write the same bytes with OPENBLAS_NUM_THREADS
    unset as at 1, the library default of a one-core host."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ring256 = tmp_path / "ring256.json"
    ring256.write_text(json.dumps(importlib.import_module("run").ring_config()))
    ring64 = ring_config(64, 64)
    digests = []
    for openblas in (None, "1"):
        out = tmp_path / f"out-{openblas}"
        argvs = [
            ["analyze", "--quiet", "--config", str(ring256), "--out", str(out)],
            ["simulate", "--quiet", "--config", ring64, "--out", str(out), "--trials", "4096"],
        ]
        # neither ring has mixed by k_late, so simulate's rate verdict fails
        assert run_fresh(COMMANDS, [json.dumps(argvs)], tmp_path, openblas) == [0, 1]
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())})
    assert len(digests[0]) == 7
    assert digests[0] == digests[1]
