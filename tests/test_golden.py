"""Corpus outputs against stored golden values, through ``cli.main``.

For each corpus scenario, ``golden/<name>_curves_exact.csv`` is the
``analyze`` curves file, compared cell by cell at rel 1e-9 (the spread
measured across BLAS thread counts), and ``golden/<name>.json`` holds the
``analysis.json`` finite-k exponents -log(pe)/k of every node and ``cen``
(``rate_early`` and ``rate_late``, at rel 1e-9) and the false-alarm and
miss counts of ``simulate --trials 8192 --seed 3``, compared exactly.  The counts are the
``curves_mc.csv`` alpha and beta times 8192, rounded: the CSV holds
exp(log(count / 8192)), within a few ulps of the count.

``golden/<name>_residual.csv`` holds the mixing residual's two vectors
and its bound's two terms per node, ``k,node,a,b,c1,c2`` in the format of
``residual_sweep.py --out``, at k = 2, 4, ..., 512, from a trajectory that
steps through every k: at tilt mu a row is mu a + mu^2 b against
|mu| c1 + mu^2 c2.  ``analyze`` reads the residual only at its checkpoints in
2..512, so its residual diagnostic, one row per k, is checked against the
golden rows at the checkpoints folded by max |a| and max |b|, and the
``analysis.json`` ``residual`` supremum and its witness against the golden
ratios over every tilt 0 < |mu| <= 1 at the same k.  A residual value is a
difference of terms that carry the rounding of k propagation steps (or of a
jump), so it is compared at rel 1e-9 with an absolute floor,
``RESIDUAL_FLOOR`` = 1e-12.  That floor lies above the largest rounding floor
N k eps (|mu mean_i(k)| + (k/2) mu^2 var_i(k)) of any corpus value at
k <= 512 and |mu| <= 1, 7.0e-13 on n8, and below every value that is not
rounding noise.  On correlated2, identity2 and n1 every value is noise: there
is no disagreement to measure, and the values lie within 2e-15 of 0, so the
node attaining a maximum is checked only up to that tolerance.  A ratio is a
value over a bound, so its floor is ``RESIDUAL_FLOOR`` over the smallest
bound that it can divide by.

The residual goldens were not generated by the two-vector code.  They were
derived from the earlier goldens, which held per-node rows
``mu,k,node,value,bound`` at the tilts -1, -0.1, 0.1 and 1 (commit 59865f1):
the rows at 0.1 and 1 give a, b, c1 and c2 by a 2 x 2 solve, and the rows at
-0.1 and -1 then match the solve within ``REL`` and ``RESIDUAL_FLOOR``
(``derived_residual``).  From the repository root::

    PYTHONPATH=src:tests python -c "import subprocess, test_golden as g; [g.GOLDEN.joinpath(f'{n}_residual.csv').write_text(g.derived_residual(subprocess.run(['git', 'show', f'59865f1:tests/golden/{n}_residual.csv'], capture_output=True, text=True, check=True).stdout)) for n in g.CORPUS]"

Regenerate only after a change that is meant to move these values, from
the repository root::

    PYTHONPATH=src:tests python -c "import corpus, test_golden as g; [g.GOLDEN.joinpath(f).write_text(t) for n in g.CORPUS for f, t in g.observed(n, corpus.write_artifacts(n, g.Path('out/golden'))).items()]"

and review the diff of ``tests/golden/`` before committing it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.cli import RESIDUAL_HORIZON
from corpus import CORPUS, GOLDEN_SIMULATE, GOLDEN_TRIALS, build_scenario, scenario_config
from oracles import fold_mismatches, per_cell_residual_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-9
RESIDUAL_FLOOR = 1e-12
RATE_KEYS = ("rate_early", "rate_late")


def _rows(text: str) -> list:
    return [line.split(",") for line in text.splitlines()]


def observed(name: str, out: Path) -> dict:
    """The golden files' text, from the artifacts ``write_artifacts`` left in ``out``."""
    analysis = json.loads((out / f"{name}_analysis.json").read_text())
    rate = {entry["node"]: {key: entry[key] for key in RATE_KEYS} for entry in analysis["nodes"]}
    rate["cen"] = {key: analysis["centralized"][key] for key in RATE_KEYS}
    header, *rows = _rows((out / f"{name}_curves_mc.csv").read_text())
    col = {key: header.index(key) for key in ("node", "k", "alpha", "beta")}
    counts = {}
    for row in rows:
        entry = counts.setdefault(row[col["node"]], {"ks": [], "false_alarm": [], "miss": []})
        entry["ks"].append(int(row[col["k"]]))
        for key, column in (("false_alarm", "alpha"), ("miss", "beta")):
            count = float(row[col[column]]) * GOLDEN_TRIALS
            assert abs(count - round(count)) < 1e-6, f"{name}: {column} {row[col[column]]} is not a count"
            entry[key].append(round(count))
    record = {"rate": rate, "simulate": {"argv": GOLDEN_SIMULATE, "counts": counts}}
    model, schedule, config = build_scenario(name)
    k_max = min(config.checkpoints[-1], RESIDUAL_HORIZON)
    trajectory = propagate_moments(model, schedule, range(1, k_max + 1))
    residual = mixing_residual_curves(model, schedule, trajectory, range(2, k_max + 1, 2))
    return {
        f"{name}_curves_exact.csv": (out / f"{name}_curves_exact.csv").read_text(),
        f"{name}_residual.csv": per_cell_residual_csv(residual),
        f"{name}.json": json.dumps(record, indent=1, sort_keys=True) + "\n",
    }


def derived_residual(per_tilt: str) -> str:
    """The per-node rows ``k,node,a,b,c1,c2`` from rows ``mu,k,node,value,bound`` at the tilts
    -1, -0.1, 0.1 and 1: a, b, c1 and c2 solve the rows at 0.1 and 1, and the rows at -0.1 and
    -1 must then match within ``REL`` and ``RESIDUAL_FLOOR`` (``REL`` alone for a bound)."""
    cells = {}  # (k, node) -> {mu: (value, bound)}
    for mu, k, node, value, bound in _rows(per_tilt)[1:]:
        cells.setdefault((int(k), int(node)), {})[float(mu)] = float(value), float(bound)
    tilts = np.array([[0.1, 0.1 * 0.1], [1.0, 1.0]])  # a row is mu a + mu^2 b, its bound |mu| c1 + mu^2 c2
    lines = ["k,node,a,b,c1,c2"]
    for (k, node), rows in sorted(cells.items()):
        (a, c1), (b, c2) = np.linalg.solve(tilts, np.array([rows[0.1], rows[1.0]])).tolist()
        for mu in (-0.1, -1.0):
            value, bound = rows[mu]
            assert math.isclose(mu * a + mu * mu * b, value, rel_tol=REL, abs_tol=RESIDUAL_FLOOR), (k, node, mu)
            assert _close(abs(mu) * c1 + mu * mu * c2, bound), (k, node, mu)
        lines.append(f"{k},{node},{a!r},{b!r},{c1!r},{c2!r}")
    return "\n".join(lines) + "\n"


def residual_ratios(rows) -> tuple:
    """(k, node) -> {tilt: |residual| / bound at the tilt 1 or -1, or in the limit mu -> 0 under
    the key 0}, the candidates for the sup over 0 < |mu| <= 1, and the floor of a ratio, from
    golden rows ``k,node,a,b,c1,c2``."""
    ratios, floor = {}, 0.0
    for k, node, a, b, c1, c2 in rows:
        a, b, c1, c2 = map(float, (a, b, c1, c2))
        ratios[int(k), int(node)] = {0.0: abs(a) / c1, 1.0: abs(a + b) / (c1 + c2), -1.0: abs(b - a) / (c1 + c2)}
        floor = max(floor, RESIDUAL_FLOOR / c1, 2.0 * RESIDUAL_FLOOR / (c1 + c2))
    return ratios, floor


@pytest.fixture(scope="module")
def runs(corpus_run):
    """run(name) -> (the golden files' text, the directory analyze and simulate wrote to)."""
    cache = {}

    def run(name):
        if name not in cache:
            out = corpus_run(name)
            cache[name] = observed(name, out), out
        return cache[name]

    return run


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("name", CORPUS)
def test_exact_curves_match_golden(name, runs):
    csv = f"{name}_curves_exact.csv"
    expected = _rows((GOLDEN / csv).read_text())
    actual = _rows(runs(name)[0][csv])
    assert actual[0] == expected[0]
    assert len(actual) == len(expected)
    for got, want in zip(actual[1:], expected[1:]):
        assert got[:3] == want[:3]
        for header, g, w in zip(expected[0][3:], got[3:], want[3:]):
            assert (g == w == "") or _close(float(g), float(w)), f"{name} {want[:2]} {header}: {g} != {w}"


@pytest.mark.parametrize("name", CORPUS)
def test_rates_and_counts_match_golden(name, runs):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    actual = json.loads(runs(name)[0][f"{name}.json"])
    assert actual["simulate"] == expected["simulate"]
    assert actual["rate"].keys() == expected["rate"].keys()
    for node, want in expected["rate"].items():
        for key in RATE_KEYS:
            assert _close(actual["rate"][node][key], want[key]), f"{name} node {node} {key}"


@pytest.mark.parametrize("name", CORPUS)
def test_residual_matches_golden(name, runs):
    """The per-node vectors and bound terms at every even k, from the library on a stepped trajectory."""
    csv = f"{name}_residual.csv"
    expected = _rows((GOLDEN / csv).read_text())
    actual = _rows(runs(name)[0][csv])
    assert actual[0] == expected[0] == ["k", "node", "a", "b", "c1", "c2"]
    assert len(actual) == len(expected) > 1
    for got, want in zip(actual[1:], expected[1:]):
        assert got[:2] == want[:2]
        for column, g, w in zip(("a", "b"), got[2:4], want[2:4]):
            assert math.isclose(float(g), float(w), rel_tol=REL, abs_tol=RESIDUAL_FLOOR), f"{name} {want[:2]} {column}"
        for column, g, w in zip(("c1", "c2"), got[4:], want[4:]):
            assert _close(float(g), float(w)), f"{name} {want[:2]} {column}"


@pytest.mark.parametrize("name", CORPUS)
def test_residual_summary_matches_golden(name, runs):
    """analyze's row at each checkpoint in 2..512 is the golden per-node rows' max |a| and max
    |b|, their nodes and the bound terms, and its supremum is the golden ratios' over every tilt
    0 < |mu| <= 1 and those checkpoints.

    A node is exact where the golden maximum stands apart from the runner-up by
    more than the tolerance; where it does not, as on every row of the
    noise-only scenarios, any node whose golden magnitude is within tolerance
    of the maximum is accepted (``oracles.fold_mismatches``).  So is any
    witness (node, k, tilt) at which the golden ratio is within tolerance of
    the supremum.
    """
    checkpoints = {k for k in scenario_config(name).checkpoints if 2 <= k <= RESIDUAL_HORIZON}
    golden = (GOLDEN / f"{name}_residual.csv").read_text()
    summary = (runs(name)[1] / f"{name}_residual_diagnostic.csv").read_text()
    assert fold_mismatches(golden, summary, REL, RESIDUAL_FLOOR) == []
    assert [int(row[0]) for row in _rows(summary)[1:]] == sorted(checkpoints)
    ratios, floor = residual_ratios(row for row in _rows(golden)[1:] if int(row[0]) in checkpoints)
    want = max(max(cell.values()) for cell in ratios.values())
    got = json.loads((runs(name)[1] / f"{name}_analysis.json").read_text())["residual"]
    assert got.keys() == {"sup_abs_over_bound", "node", "k", "tilt"}
    assert math.isclose(got["sup_abs_over_bound"], want, rel_tol=REL, abs_tol=floor), f"{name}: {got} != {want}"
    witness = ratios[got["k"], got["node"]][got["tilt"]]
    assert math.isclose(witness, want, rel_tol=REL, abs_tol=floor), f"{name}: the witness {got} reads {witness}"
