"""The scenario corpus, read from its one copy: the JSON files under scenarios/."""

from pathlib import Path

from cdlab.cli import main
from cdlab.config import scenario_from_file

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CORPUS = tuple(sorted(path.stem for path in SCENARIO_DIR.glob("*.json")))
GOLDEN_TRIALS = 8192
GOLDEN_SIMULATE = ["--trials", str(GOLDEN_TRIALS), "--seed", "3"]


def scenario_config(name: str):
    return scenario_from_file(SCENARIO_DIR / f"{name}.json")


def build_scenario(name: str):
    """(model, schedule, config) for a corpus scenario."""
    config = scenario_config(name)
    return config.build_model(), config.build_schedule(), config


def write_artifacts(name: str, out: Path) -> Path:
    """Run ``analyze``, then ``simulate`` with ``GOLDEN_SIMULATE``, on a corpus scenario into ``out``; return ``out``."""
    config = str(SCENARIO_DIR / f"{name}.json")
    for command, extra in (("analyze", []), ("simulate", GOLDEN_SIMULATE)):
        assert main([command, "--quiet", "--config", config, "--out", str(out), *extra]) == 0
    return out
