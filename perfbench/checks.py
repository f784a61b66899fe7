"""Output checks against the references stored in ``perfbench/reference``.

Monte Carlo counts must match exactly: the seeding contract makes them a
function of (seed, trials) alone, whatever the thread count.  Exact curves
are compared with a tolerance, not a byte digest, because OpenBLAS rounds
differently at 1 and 2 threads.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# exact curves: alpha, beta and pe relative, log10(pe) absolute.  With
# OPENBLAS_NUM_THREADS=1 against the 2-thread reference the ring curves moved
# by at most 3.1e-13 relative and 1.3e-13 in log10(pe); the tolerances are
# 1000 times that, rounded up to a power of ten, to leave room for other
# BLAS kernels.
CURVE_REL_TOL = 1e-9
LOG10_ABS_TOL = 1e-9
CURVE_COLUMNS = ("node", "k", "alpha", "beta", "pe", "log10_pe")


def mc_reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def exact_reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}_curves.csv"


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def counts_from_csv(path: Path, n_trials: int) -> dict:
    """False-alarm and miss counts recovered from a ``curves_mc.csv``.

    Each estimate is count / n_trials in double precision, so rounding
    alpha * n_trials gives the integer count back exactly.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ks = sorted({int(r["k"]) for r in rows})
    nodes = sorted({r["node"] for r in rows if r["node"] != "cen"}, key=int)
    pos = {k: i for i, k in enumerate(ks)}
    col = {node: j for j, node in enumerate(nodes)}
    fa = [[0] * len(nodes) for _ in ks]
    miss = [[0] * len(nodes) for _ in ks]
    cen_fa = [0] * len(ks)
    cen_miss = [0] * len(ks)
    for r in rows:
        i = pos[int(r["k"])]
        a = round(float(r["alpha"]) * n_trials)
        b = round(float(r["beta"]) * n_trials)
        if r["node"] == "cen":
            cen_fa[i], cen_miss[i] = a, b
        else:
            fa[i][col[r["node"]]], miss[i][col[r["node"]]] = a, b
    return {"ks": ks, "fa": fa, "miss": miss, "cen_fa": cen_fa, "cen_miss": cen_miss}


def counts_from_result(result) -> dict:
    """The same count record from a ``MonteCarloResult``."""
    return {
        "ks": [int(k) for k in result.ks],
        "fa": result.false_alarm_counts.tolist(),
        "miss": result.miss_counts.tolist(),
        "cen_fa": result.cen_false_alarm_counts.tolist(),
        "cen_miss": result.cen_miss_counts.tolist(),
    }


def read_curves(path: Path) -> dict:
    """(node, k) -> (alpha, beta, pe, log10_pe) from a curves CSV."""
    out = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            out[(r["node"], int(r["k"]))] = tuple(float(r[c]) for c in CURVE_COLUMNS[2:])
    return out


def curve_mismatches(path: Path, reference: Path, limit: int = 5) -> list:
    """Cells of ``path`` outside tolerance of ``reference``; empty when they agree."""
    got = read_curves(path)
    want = read_curves(reference)
    bad = []
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))[:limit]
        extra = sorted(set(got) - set(want))[:limit]
        return [f"row sets differ: missing {missing}, extra {extra}"]
    for key, ref in want.items():
        val = got[key]
        for name, v, r in zip(CURVE_COLUMNS[2:5], val[:3], ref[:3]):
            if not math.isclose(v, r, rel_tol=CURVE_REL_TOL, abs_tol=0.0):
                bad.append(f"{key} {name}: {v!r} vs reference {r!r}")
        if not math.isclose(val[3], ref[3], rel_tol=0.0, abs_tol=LOG10_ABS_TOL):
            bad.append(f"{key} log10_pe: {val[3]!r} vs reference {ref[3]!r}")
        if len(bad) >= limit:
            break
    return bad


def write_reference_curves(src: Path, dst: Path) -> None:
    """Keep the compared columns of a ``curves_exact.csv``."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_COLUMNS)
        for r in rows:
            writer.writerow([r[c] for c in CURVE_COLUMNS])
