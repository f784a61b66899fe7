"""The scenario corpus, read from its one copy: the JSON files under scenarios/."""

from pathlib import Path

from cdlab.config import scenario_from_file

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CORPUS = tuple(sorted(path.stem for path in SCENARIO_DIR.glob("*.json")))


def scenario_config(name: str):
    return scenario_from_file(SCENARIO_DIR / f"{name}.json")


def build_scenario(name: str):
    """(model, schedule, config) for a corpus scenario."""
    config = scenario_config(name)
    return config.build_model(), config.build_schedule(), config
