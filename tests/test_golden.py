"""Corpus outputs against stored golden values, through ``cli.main``.

For each corpus scenario, ``golden/<name>_curves_exact.csv`` is the
``analyze`` curves file, compared cell by cell at rel 1e-9 (the spread
measured across BLAS thread counts), and ``golden/<name>.json`` holds the
``analysis.json`` finite-k exponents -log(pe)/k of every node and ``cen``
(``rate_early`` and ``rate_late``, at rel 1e-9) and the false-alarm and
miss counts of ``simulate --trials 8192 --seed 3``, compared exactly.  The counts are the
``curves_mc.csv`` alpha and beta times 8192, rounded: the CSV holds
exp(log(count / 8192)), within a few ulps of the count.

``golden/<name>_residual.csv`` holds the per-node rows of the mixing
residual (``ResidualCurves.rows()``, in the format of ``residual_sweep.py
--out``) at ``analyze``'s tilts and k = 2, 4, ..., 512, and
``golden/<name>.json`` also the ``analysis.json`` ``residual`` summary.
``analyze``'s residual diagnostic, one row per (tilt, k), is checked
against those per-node rows folded by max |value|.  A residual value is a
difference of terms that carry the rounding of k propagation steps, so it is
compared at rel 1e-9 with an absolute floor, ``RESIDUAL_FLOOR`` = 1e-12.
That floor lies above the largest rounding floor N k eps (|mu mean_i(k)| +
(k/2) mu^2 var_i(k)) of any corpus value at k <= 512, 7.0e-13 on n8, and
below every value that is not rounding noise (the smallest is 1.6e-6, on
ref3).  On correlated2, identity2 and n1 every value is noise: there is no
disagreement to measure, and the values lie within 2e-15 of 0, so the
node attaining a maximum is checked only up to that tolerance.  A
``max_abs_over_bound`` is a value over its bound, so its floor is
``RESIDUAL_FLOOR`` over the smallest bound of its tilt.

Regenerate only after a change that is meant to move these values, from
the repository root::

    PYTHONPATH=src:tests python -c "import corpus, test_golden as g; [g.GOLDEN.joinpath(f).write_text(t) for n in g.CORPUS for f, t in g.observed(n, corpus.write_artifacts(n, g.Path('out/golden'))).items()]"

and review the diff of ``tests/golden/`` before committing it.
"""

import json
import math
from pathlib import Path

import pytest

from cdlab.analysis import propagate_moments
from cdlab.cli import RESIDUAL_HORIZON, RESIDUAL_MUS
from corpus import CORPUS, GOLDEN_SIMULATE, GOLDEN_TRIALS, build_scenario
from oracles import per_cell_residual_csv, residual_cube

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
    record = {"rate": rate, "residual": analysis["residual"], "simulate": {"argv": GOLDEN_SIMULATE, "counts": counts}}
    model, schedule, config = build_scenario(name)
    k_max = min(config.checkpoints[-1], RESIDUAL_HORIZON)
    trajectory = propagate_moments(model, schedule, range(1, k_max + 1))
    ks, values, bounds = residual_cube(model, schedule, trajectory, k_max, RESIDUAL_MUS)
    header, *rows = per_cell_residual_csv(RESIDUAL_MUS, ks, values, bounds).splitlines(keepends=True)
    return {
        f"{name}_curves_exact.csv": (out / f"{name}_curves_exact.csv").read_text(),
        f"{name}_residual.csv": header + "".join(row for row in rows if int(row.split(",")[1]) % 2 == 0),
        f"{name}.json": json.dumps(record, indent=1, sort_keys=True) + "\n",
    }


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
    csv = f"{name}_residual.csv"
    expected = _rows((GOLDEN / csv).read_text())
    actual = _rows(runs(name)[0][csv])
    assert actual[0] == expected[0] == ["mu", "k", "node", "value", "bound"]
    assert len(actual) == len(expected) > 1
    smallest_bound = {}
    for got, want in zip(actual[1:], expected[1:]):
        assert got[:3] == want[:3]
        value, bound = float(want[3]), float(want[4])
        assert math.isclose(float(got[3]), value, rel_tol=REL, abs_tol=RESIDUAL_FLOOR), f"{name} {want[:3]} value"
        assert _close(float(got[4]), bound), f"{name} {want[:3]} bound"
        smallest_bound[want[0]] = min(bound, smallest_bound.get(want[0], math.inf))
    expected = json.loads((GOLDEN / f"{name}.json").read_text())["residual"]
    actual = json.loads(runs(name)[0][f"{name}.json"])["residual"]
    assert actual.keys() == expected.keys() == smallest_bound.keys()
    for mu, want in expected.items():
        got, want = actual[mu]["max_abs_over_bound"], want["max_abs_over_bound"]
        floor = RESIDUAL_FLOOR / smallest_bound[mu]
        assert math.isclose(got, want, rel_tol=REL, abs_tol=floor), f"{name} mu={mu}: {got} != {want}"


@pytest.mark.parametrize("name", CORPUS)
def test_residual_summary_matches_golden(name, runs):
    """analyze's row at each even (tilt, k) is the golden per-node rows' max |value|, its node and bound.

    The node is exact where the golden maximum stands apart from the runner-up
    by more than the tolerance; where it does not, as on every row of the
    noise-only scenarios, any node whose golden |value| is within tolerance of
    the maximum is accepted.
    """
    header, *rows = _rows((GOLDEN / f"{name}_residual.csv").read_text())
    assert header == ["mu", "k", "node", "value", "bound"]
    expected = {}  # (mu, k) -> ({node: |value|}, bound)
    for mu, k, node, value, bound in rows:
        expected.setdefault((mu, k), ({}, float(bound)))[0][node] = abs(float(value))
    header, *rows = _rows((runs(name)[1] / f"{name}_residual_diagnostic.csv").read_text())
    assert header == ["mu", "k", "max_abs", "node", "bound"]
    assert len(rows) == len(RESIDUAL_MUS) * (RESIDUAL_HORIZON - 1)
    actual = {(mu, k): row for mu, k, *row in rows if int(k) % 2 == 0}
    assert actual.keys() == expected.keys()
    for key, (magnitudes, bound) in expected.items():
        max_abs, node, got_bound = actual[key]
        peak = max(magnitudes.values())
        accepted = [i for i, m in magnitudes.items() if math.isclose(m, peak, rel_tol=REL, abs_tol=RESIDUAL_FLOOR)]
        assert math.isclose(float(max_abs), peak, rel_tol=REL, abs_tol=RESIDUAL_FLOOR), f"{name} {key} max_abs"
        assert node in accepted, f"{name} {key}: node {node} not in {accepted}"
        assert _close(float(got_bound), bound), f"{name} {key} bound"
