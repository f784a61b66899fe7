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
--out``) at ``analyze``'s tilts and k = 2, 4, ..., 512, from a trajectory
that steps through every k.  ``analyze`` forms rows only at its checkpoints
in 2..512, so its residual diagnostic, one row per (tilt, k), is checked
against those per-node rows at the checkpoints folded by max |value|, and the
``analysis.json`` ``residual`` summary against their |value| / bound folded
over the same k.  A residual value is a difference of terms that carry the
rounding of k propagation steps (or of a jump), so it is
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
from corpus import CORPUS, GOLDEN_SIMULATE, GOLDEN_TRIALS, build_scenario, scenario_config
from oracles import fold_mismatches, per_cell_residual_csv, residual_cube

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
    ks, values, bounds = residual_cube(model, schedule, trajectory, range(2, k_max + 1), RESIDUAL_MUS)
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
    """The per-node rows at every even k, from the library on a stepped trajectory."""
    csv = f"{name}_residual.csv"
    expected = _rows((GOLDEN / csv).read_text())
    actual = _rows(runs(name)[0][csv])
    assert actual[0] == expected[0] == ["mu", "k", "node", "value", "bound"]
    assert len(actual) == len(expected) > 1
    for got, want in zip(actual[1:], expected[1:]):
        assert got[:3] == want[:3]
        assert math.isclose(float(got[3]), float(want[3]), rel_tol=REL, abs_tol=RESIDUAL_FLOOR), f"{name} {want[:3]} value"
        assert _close(float(got[4]), float(want[4])), f"{name} {want[:3]} bound"


@pytest.mark.parametrize("name", CORPUS)
def test_residual_summary_matches_golden(name, runs):
    """analyze's row at each (tilt, checkpoint) in 2..512 is the golden per-node rows' max
    |value|, its node and bound, and its max_abs_over_bound per tilt is their |value| / bound
    folded over those checkpoints.

    The node is exact where the golden maximum stands apart from the runner-up
    by more than the tolerance; where it does not, as on every row of the
    noise-only scenarios, any node whose golden |value| is within tolerance of
    the maximum is accepted (``oracles.fold_mismatches``).
    """
    checkpoints = {k for k in scenario_config(name).checkpoints if 2 <= k <= RESIDUAL_HORIZON}
    golden = (GOLDEN / f"{name}_residual.csv").read_text()
    summary = (runs(name)[1] / f"{name}_residual_diagnostic.csv").read_text()
    assert fold_mismatches(golden, summary, REL, RESIDUAL_FLOOR) == []
    _, *rows = _rows(summary)
    assert sorted((mu, int(k)) for mu, k, *_ in rows) == sorted((repr(mu), k) for mu in RESIDUAL_MUS for k in checkpoints)
    worst, smallest_bound = {}, {}  # per mu, over the golden rows at the checkpoints
    for mu, k, _, value, bound in _rows(golden)[1:]:
        if int(k) in checkpoints:
            worst[mu] = max(abs(float(value)) / float(bound), worst.get(mu, 0.0))
            smallest_bound[mu] = min(float(bound), smallest_bound.get(mu, math.inf))
    summary = json.loads((runs(name)[1] / f"{name}_analysis.json").read_text())["residual"]
    assert summary.keys() == worst.keys()
    for mu, want in worst.items():
        got = summary[mu]["max_abs_over_bound"]
        floor = RESIDUAL_FLOOR / smallest_bound[mu]
        assert math.isclose(got, want, rel_tol=REL, abs_tol=floor), f"{name} mu={mu}: {got} != {want}"
