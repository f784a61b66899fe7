"""Corpus integrity: every scenario file builds, validates and is named for its stem."""

import json

import pytest

from cdlab.network import check_geometric_decay, validate_assumption
from corpus import CORPUS, SCENARIO_DIR, build_scenario, scenario_config


class TestCorpus:
    def test_expected_members_and_sizes(self):
        sizes = {name: scenario_config(name).schedule_spec.n_nodes for name in CORPUS}
        assert sizes == {"n1": 1, "identity2": 2, "correlated2": 2, "ref3": 3, "rand5": 5, "n8": 8}

    @pytest.mark.parametrize("name", CORPUS)
    def test_builds_and_validates(self, name):
        model, schedule, config = build_scenario(name)
        assert model.n_sensors == schedule.n_nodes
        assert validate_assumption(schedule).passed
        assert check_geometric_decay(schedule).passed

    def test_reference_scenario_shape(self):
        _, schedule, _ = build_scenario("ref3")
        assert schedule.period == 2
        assert schedule.window == 2

    @pytest.mark.parametrize("name", CORPUS)
    def test_name_is_file_stem(self, name):
        """Artifacts are named {name}_*, and the scripts and golden files look them up by stem."""
        assert json.loads((SCENARIO_DIR / f"{name}.json").read_text())["name"] == name
