"""The package's shape: the commands need the package and numpy alone, and
no function takes a parameter it ignores.

No cdlab command loads any scipy module, and none loads the test helpers.
Each such case runs in a fresh interpreter, because the test process itself
has scipy and the helpers loaded.  The parameter rule is read off the source
tree: every parameter of every function and lambda under ``src/cdlab`` and
``scripts``, bar ``self``, is read somewhere in its body.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdlab"
SCRIPTS = ROOT / "scripts"
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


def unread_parameters(tree):
    """(line, function, parameter) for each parameter, bar ``self``, that its function's body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for param in params:
                if param != "self" and param not in read:
                    yield node.lineno, getattr(node, "name", "<lambda>"), param


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line} {name}({param})"
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]
        for line, name, param in unread_parameters(ast.parse(path.read_text()))
    ]
    assert unread == []


def test_unread_parameters_are_found():
    """The scan sees a parameter left unread by a def and by a lambda, and not one that is read."""
    tree = ast.parse("def f(self, a, *, b, **c):\n    return a\ng = lambda x, y: y")
    assert [(name, param) for _, name, param in unread_parameters(tree)] == [("f", "b"), ("f", "c"), ("<lambda>", "x")]
