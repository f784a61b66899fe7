"""Corpus outputs against stored golden values, through ``cli.main``.

For each corpus scenario, ``golden/<name>_curves_exact.csv`` is the
``analyze`` curves file, compared cell by cell at rel 1e-9 (the spread
measured across BLAS thread counts), and ``golden/<name>.json`` holds the
``analysis.json`` fits (``rate`` and ``intercept`` at rel 1e-9, ``window``
and ``n_points`` exact) and the false-alarm and miss counts of
``simulate --trials 8192 --seed 3``, compared exactly.  The counts are the
``curves_mc.csv`` alpha and beta times 8192, rounded: the CSV holds
exp(log(count / 8192)), within a few ulps of the count.

Regenerate only after a change that is meant to move these values, from
the repository root::

    PYTHONPATH=src:tests python -c "import test_golden as g; [g.GOLDEN.joinpath(f).write_text(t) for n in g.CORPUS for f, t in g.observed(n, g.Path('out/golden')).items()]"

and review the diff of ``tests/golden/`` before committing it.
"""

import json
import math
from pathlib import Path

import pytest

from cdlab.cli import main
from cdlab.scenarios import CORPUS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
TRIALS = 8192
SIMULATE = ["--trials", str(TRIALS), "--seed", "3"]
REL = 1e-9
FIT_KEYS = ("window", "rate", "intercept", "n_points")


def _rows(text: str) -> list:
    return [line.split(",") for line in text.splitlines()]


def observed(name: str, out: Path) -> dict:
    """Run analyze and simulate on a corpus scenario; return the golden files' text."""
    config = str(ROOT / "scenarios" / f"{name}.json")
    for command, extra in (("analyze", []), ("simulate", SIMULATE)):
        assert main([command, "--quiet", "--config", config, "--out", str(out), *extra]) == 0
    analysis = json.loads((out / f"{name}_analysis.json").read_text())
    fits = {node: {key: fit[key] for key in FIT_KEYS} for node, fit in analysis["fits"].items()}
    header, *rows = _rows((out / f"{name}_curves_mc.csv").read_text())
    col = {key: header.index(key) for key in ("node", "k", "alpha", "beta")}
    counts = {}
    for row in rows:
        entry = counts.setdefault(row[col["node"]], {"ks": [], "false_alarm": [], "miss": []})
        entry["ks"].append(int(row[col["k"]]))
        for key, column in (("false_alarm", "alpha"), ("miss", "beta")):
            count = float(row[col[column]]) * TRIALS
            assert abs(count - round(count)) < 1e-6, f"{name}: {column} {row[col[column]]} is not a count"
            entry[key].append(round(count))
    record = {"fits": fits, "simulate": {"argv": SIMULATE, "counts": counts}}
    return {
        f"{name}_curves_exact.csv": (out / f"{name}_curves_exact.csv").read_text(),
        f"{name}.json": json.dumps(record, indent=1, sort_keys=True) + "\n",
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = observed(name, tmp_path_factory.mktemp(name))
        return cache[name]

    return run


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("name", CORPUS)
def test_exact_curves_match_golden(name, runs):
    csv = f"{name}_curves_exact.csv"
    expected = _rows((GOLDEN / csv).read_text())
    actual = _rows(runs(name)[csv])
    assert actual[0] == expected[0]
    assert len(actual) == len(expected)
    for got, want in zip(actual[1:], expected[1:]):
        assert got[:3] == want[:3]
        for header, g, w in zip(expected[0][3:], got[3:], want[3:]):
            assert (g == w == "") or _close(float(g), float(w)), f"{name} {want[:2]} {header}: {g} != {w}"


@pytest.mark.parametrize("name", CORPUS)
def test_fits_and_counts_match_golden(name, runs):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    actual = json.loads(runs(name)[f"{name}.json"])
    assert actual["simulate"] == expected["simulate"]
    assert actual["fits"].keys() == expected["fits"].keys()
    for node, want in expected["fits"].items():
        got = actual["fits"][node]
        assert (got["window"], got["n_points"]) == (want["window"], want["n_points"]), node
        assert _close(got["rate"], want["rate"]), f"{name} node {node} rate"
        assert _close(got["intercept"], want["intercept"]), f"{name} node {node} intercept"
