"""Strict-parsing tests for scenario configs."""

import json

import numpy as np
import pytest

from cdlab.cli import main
from cdlab.config import (
    GEOMETRIC_CHECKPOINTS,
    ScenarioConfig,
    Thresholds,
    covariance_matrix,
    scenario_from_dict,
    scenario_from_file,
)
from cdlab.errors import ConfigError, DegenerateCovariance, ParameterError, ShapeError
from cdlab.network import ScheduleSpec


def minimal_dict(**overrides):
    base = {
        "name": "demo",
        "model": {"m0": [0.0, 0.0], "m1": [1.0, 1.0], "covariance": "identity"},
        "network": {"topology": "static", "edges": [[1, 2]]},
    }
    base.update(overrides)
    return base


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = scenario_from_dict(minimal_dict())
        assert cfg.name == "demo"
        assert cfg.checkpoints == GEOMETRIC_CHECKPOINTS
        assert cfg.n_trials == 10_000
        assert cfg.master_seed == 0
        assert cfg.thresholds == Thresholds()
        assert cfg.out_dir == "out"

    def test_builders_produce_consistent_objects(self):
        cfg = scenario_from_dict(minimal_dict())
        assert cfg.build_model().n_sensors == cfg.build_schedule().n_nodes == 2
        plan = cfg.build_plan()
        assert plan.model.n_sensors == plan.schedule.n_nodes == 2
        assert plan.n_trials == 10_000
        assert plan.k_checkpoints == GEOMETRIC_CHECKPOINTS

    def test_plan_overrides(self):
        cfg = scenario_from_dict(minimal_dict())
        plan = cfg.build_plan(n_trials=55, master_seed=99)
        assert plan.n_trials == 55
        assert plan.master_seed == 99


class TestUnknownAndMissingKeys:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d["model"].update(extra=1),
            lambda d: d["network"].update(extra=1),
            lambda d: d.update(experiment={"extra": 1}),
            lambda d: d.update(experiment={"thresholds": {"extra": 1}}),
            lambda d: d.update(output={"extra": 1}),
        ],
    )
    def test_unknown_keys_rejected(self, mutate):
        d = minimal_dict()
        mutate(d)
        with pytest.raises(ConfigError, match="unknown key"):
            scenario_from_dict(d)

    def test_missing_sections_rejected(self):
        d = minimal_dict()
        del d["model"]
        with pytest.raises(ConfigError, match="missing required"):
            scenario_from_dict(d)
        d = minimal_dict()
        del d["model"]["m1"]
        with pytest.raises(ConfigError, match="missing required"):
            scenario_from_dict(d)


class TestModelSection:
    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError, match="config.name"):
            scenario_from_dict(minimal_dict(name="bad name!"))

    def test_length_mismatch_rejected(self):
        d = minimal_dict()
        d["model"]["m1"] = [1.0]
        with pytest.raises(ConfigError, match="m0 has 2"):
            scenario_from_dict(d)

    def test_non_numeric_mean_rejected(self):
        d = minimal_dict()
        d["model"]["m0"] = [0.0, "x"]
        with pytest.raises(ConfigError, match=r"model.m0\[1\]"):
            scenario_from_dict(d)

    def test_priors_key_rejected(self):
        """Every Bayes error weighs the hypotheses equally, so no key sets the weights."""
        d = minimal_dict()
        d["model"]["priors"] = [0.5, 0.5]
        with pytest.raises(ConfigError, match=r"^model: unknown key\(s\) priors$"):
            scenario_from_dict(d)


class TestCovarianceSpec:
    def test_identity_materializes(self):
        assert np.array_equal(covariance_matrix("identity", 3), np.eye(3))

    def test_exponential_materializes_exact_powers(self):
        got = covariance_matrix("exponential(0.5)", 3)
        expect = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        assert np.array_equal(got, expect)

    def test_full_matrix_accepted(self):
        d = minimal_dict()
        d["model"]["covariance"] = [[1.0, 0.25], [0.25, 1.0]]
        cfg = scenario_from_dict(d)
        assert np.array_equal(cfg.covariance, [[1.0, 0.25], [0.25, 1.0]])

    def test_wrong_size_matrix_rejected(self):
        d = minimal_dict()
        d["model"]["covariance"] = [[1.0]]
        with pytest.raises(ConfigError, match="2x2"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "spec", ["gaussian", "exponential(abc)", "exponential(-0.2)", "exponential(inf)"]
    )
    def test_malformed_specs_rejected(self, spec):
        d = minimal_dict()
        d["model"]["covariance"] = spec
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_unit_correlation_parses_but_degenerates_at_build(self):
        """rho = 1.0 is structurally fine; the singular matrix must be a
        domain error from the model builder, not a parse error."""
        d = minimal_dict()
        d["model"]["covariance"] = "exponential(1.0)"
        cfg = scenario_from_dict(d)
        with pytest.raises(DegenerateCovariance):
            cfg.build_model()


class TestNetworkSection:
    def test_bad_topology_rejected(self):
        d = minimal_dict()
        d["network"]["topology"] = "mesh"
        with pytest.raises(ConfigError, match="network.topology"):
            scenario_from_dict(d)

    def test_bad_edges_rejected(self):
        d = minimal_dict()
        d["network"]["edges"] = [[1, 2, 3]]
        with pytest.raises(ConfigError, match=r"network.edges\[0\]"):
            scenario_from_dict(d)

    def test_keep_prob_domain(self):
        d = minimal_dict()
        d["network"] = {"topology": "random-subgraph", "period": 2, "seed": 1, "keep_prob": 1.5}
        with pytest.raises(ConfigError, match="keep_prob"):
            scenario_from_dict(d)

    def test_random_subgraph_spec_carries_through(self):
        d = minimal_dict()
        d["network"] = {
            "topology": "random-subgraph",
            "edges": [[1, 2]],
            "period": 3,
            "seed": 42,
            "keep_prob": 0.9,
        }
        cfg = scenario_from_dict(d)
        spec = cfg.schedule_spec
        assert spec.topology == "random-subgraph"
        assert spec.period == 3 and spec.seed == 42 and spec.keep_prob == 0.9

    def test_link_cycle_parsed_nested(self):
        d = minimal_dict()
        d["network"] = {"topology": "alternating-links", "link_cycle": [[[1, 2]], [[1, 2]]]}
        cfg = scenario_from_dict(d)
        assert cfg.schedule_spec.link_cycle == (frozenset({(1, 2)}), frozenset({(1, 2)}))

    @pytest.mark.parametrize(
        "network, ignored",
        [
            ({"topology": "static", "edges": [[1, 2]], "keep_prob": 0.3}, "keep_prob"),
            ({"topology": "alternating-links", "link_cycle": [[[1, 2]]], "edges": []}, "edges"),
            ({"topology": "explicit", "matrices": [[[1, 0], [0, 1]]], "edges": [[1, 2]]}, "edges"),
            # the weight rule is the topology's: explicit matrices are a topology of their own
            ({"topology": "static", "edges": [[1, 2]], "weight_rule": "metropolis"}, "weight_rule"),
            ({"topology": "explicit", "matrices": [[[0.5, 0.5], [0.5, 0.5]]], "weight_rule": "explicit"}, "weight_rule"),
        ],
    )
    def test_keys_the_network_would_ignore_rejected(self, network, ignored):
        d = minimal_dict()
        d["network"] = network
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) {ignored}$"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "network, missing",
        [
            ({"topology": "explicit"}, "matrices"),
            ({"topology": "alternating-links"}, "link_cycle"),
            ({"topology": "random-subgraph", "edges": [[1, 2]], "seed": 1}, "period"),
            ({"topology": "random-subgraph", "edges": [[1, 2]], "period": 2}, "seed"),
        ],
    )
    def test_keys_the_network_needs_required(self, network, missing):
        d = minimal_dict()
        d["network"] = network
        with pytest.raises(ConfigError, match=f"missing required key\\(s\\) {missing}$"):
            scenario_from_dict(d)

    def test_explicit_matrices_parsed(self):
        d = minimal_dict()
        d["network"] = {
            "topology": "explicit",
            "matrices": [[[0.5, 0.5], [0.5, 0.5]]],
        }
        cfg = scenario_from_dict(d)
        schedule = cfg.build_schedule()
        assert schedule.period == 1
        assert np.allclose(schedule.weight_at(1), 0.5)


class TestExperimentSection:
    def test_custom_checkpoints(self):
        d = minimal_dict(experiment={"checkpoints": [1, 10, 100]})
        assert scenario_from_dict(d).checkpoints == (1, 10, 100)

    def test_checkpoints_are_sorted_and_distinct(self):
        d = minimal_dict(experiment={"checkpoints": [8, 4, 4, 16, 2]})
        assert scenario_from_dict(d).checkpoints == (2, 4, 8, 16)

    def test_bad_checkpoint_rejected(self):
        d = minimal_dict(experiment={"checkpoints": [0, 10]})
        with pytest.raises(ConfigError, match=r"checkpoints\[0\]"):
            scenario_from_dict(d)

    def test_bad_trials_rejected(self):
        d = minimal_dict(experiment={"n_trials": 0})
        with pytest.raises(ConfigError, match="n_trials"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "experiment, path",
        [
            ({"checkpoints": [4, 2.5]}, r"experiment\.checkpoints\[1\]: checkpoint"),
            ({"n_trials": True}, r"experiment\.n_trials: n_trials"),
            ({"master_seed": -1}, r"experiment\.master_seed: master_seed"),
        ],
        ids=["checkpoints", "n_trials", "master_seed"],
    )
    def test_plan_integers_read_by_the_plan_rule(self, experiment, path):
        """The checkpoints, trial count and seed go through the integer rule ExperimentPlan uses."""
        with pytest.raises(ConfigError, match=f"^{path} must be an integer >= "):
            scenario_from_dict(minimal_dict(experiment=experiment))

    def test_threshold_ordering_enforced(self):
        d = minimal_dict(experiment={"thresholds": {"k_early": 500, "k_late": 100}})
        with pytest.raises(ConfigError, match="k_early"):
            scenario_from_dict(d)

    def test_threshold_overrides_apply(self):
        d = minimal_dict(
            experiment={"thresholds": {"gap_tolerance": 0.05, "mc_min_trials": 7}}
        )
        t = scenario_from_dict(d).thresholds
        assert t.gap_tolerance == 0.05
        assert t.mc_min_trials == 7
        assert t.k_early == 100  # untouched default


class TestOutputSection:
    def test_directory_is_read(self):
        cfg = scenario_from_dict(minimal_dict(output={"directory": "results"}))
        assert cfg.out_dir == "results"

    def test_formats_key_rejected(self):
        d = minimal_dict(output={"directory": "results", "formats": ["csv", "json"]})
        with pytest.raises(ConfigError, match=r"output: unknown key\(s\) formats"):
            scenario_from_dict(d)


class TestFromFile:
    def test_round_trip(self, tmp_path):
        import json

        path = tmp_path / "demo.json"
        path.write_text(json.dumps(minimal_dict()))
        cfg = scenario_from_file(path)
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.name == "demo"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "model": }')
        with pytest.raises(ConfigError, match=r":2:"):
            scenario_from_file(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            scenario_from_file(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('"network": {"edges": [[1, 2]]}, "experiment": {"n_trials": 0, "n_trials": 100000}', "n_trials"),
            ('"network": {"topology": "static", "topology": "alternating-links", "edges": [[1, 2]]}', "topology"),
            ('"network": {"edges": [[1, 2]]}, "name": "other"', "name"),
        ],
        ids=["experiment", "network", "top-level"],
    )
    def test_repeated_key_rejected(self, tmp_path, text, key):
        """A repeated key is refused, not parsed with its first value dropped."""
        path = tmp_path / "repeated.json"
        model = '"model": {"m0": [0, 0], "m1": [1, 1], "covariance": "identity"}'
        path.write_text(f'{{"name": "demo", {model}, {text}}}')
        with pytest.raises(ConfigError, match=rf"duplicate key\(s\) {key}$"):
            scenario_from_file(path)

    def test_file_not_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps(minimal_dict()).encode("utf-16"))  # starts with the BOM \xff\xfe
        with pytest.raises(ConfigError, match="cannot read config: 'utf-8' codec"):
            scenario_from_file(path)


# section -> (library constructor of its values, placement of the same values in a 3-node file)
SECTIONS = {
    "model.covariance": (
        lambda v: covariance_matrix(v, 3),
        lambda doc, v: doc["model"].update(covariance=v),
    ),
    "network": (lambda v: ScheduleSpec(n_nodes=3, **v), lambda doc, v: doc.update(network=v)),
    "experiment.thresholds": (
        lambda v: Thresholds(**v),
        lambda doc, v: doc.update(experiment={"thresholds": v}),
    ),
}
RANDOM3 = {"topology": "random-subgraph", "edges": ((1, 2), (2, 3), (1, 3)), "period": 2, "seed": 1}
# every domain rule on a scenario value, each written once in the object that needs it
RULES = [
    ("model.covariance", "exponential(-0.2)", ParameterError),
    ("model.covariance", "gaussian", ParameterError),
    ("model.covariance", ((1.0,),), ShapeError),
    ("network", {"edges": ((1, 9),)}, ParameterError),
    ("network", {"edges": ((2, 2),)}, ParameterError),
    ("network", {"topology": "alternating-links", "link_cycle": (((1, 2),), ((2, 9),))}, ParameterError),
    ("network", {"topology": "alternating-links", "link_cycle": (((1, 2),), ((2, 2),))}, ParameterError),
    ("network", {"topology": "alternating-links", "link_cycle": ()}, ParameterError),
    ("network", {**RANDOM3, "edges": ((0, 1),)}, ParameterError),
    ("network", {**RANDOM3, "period": 0}, ParameterError),
    ("network", {**RANDOM3, "seed": -1}, ParameterError),
    ("network", {**RANDOM3, "keep_prob": 1.5}, ParameterError),
    ("network", {**RANDOM3, "keep_prob": -0.1}, ParameterError),
    ("network", {"topology": "explicit", "matrices": ()}, ParameterError),
    ("network", {"topology": "explicit", "matrices": (((1.0,),),)}, ShapeError),
    ("experiment.thresholds", {"gap_tolerance": 0.0}, ParameterError),
    ("experiment.thresholds", {"k_early": 0}, ParameterError),
    ("experiment.thresholds", {"k_early": 500, "k_late": 100}, ParameterError),
    ("experiment.thresholds", {"k_early": 100, "k_late": 100}, ParameterError),
    ("experiment.thresholds", {"agreement_sigma": 0.0}, ParameterError),
    ("experiment.thresholds", {"agreement_min_prob": 0.0}, ParameterError),
    ("experiment.thresholds", {"agreement_min_prob": 1.0}, ParameterError),
    ("experiment.thresholds", {"agreement_min_fraction": 0.0}, ParameterError),
    ("experiment.thresholds", {"agreement_min_fraction": 1.5}, ParameterError),
    ("experiment.thresholds", {"mc_min_trials": -1}, ParameterError),
    # appended, so the parametrize ids of the rows above stay as they were
    ("network", {**RANDOM3, "period": True}, ParameterError),
    ("network", {**RANDOM3, "period": 2.5}, ParameterError),
    ("network", {**RANDOM3, "seed": 1.5}, ParameterError),
    ("network", {**RANDOM3, "seed": False}, ParameterError),
]


class TestOneHomePerRule:
    """The library constructor and `cdlab validate` reject each bad value by the same rule."""

    @pytest.mark.parametrize("section, values, error", RULES)
    def test_library_constructor_raises(self, section, values, error):
        build, _ = SECTIONS[section]
        with pytest.raises(error):
            build(values)

    @pytest.mark.parametrize("section, values, error", RULES)
    def test_validate_exits_two_naming_the_section(self, section, values, error, tmp_path, capsys):
        doc = {
            "name": "rule",
            "model": {"m0": [0.0] * 3, "m1": [1.0] * 3, "covariance": "identity"},
            "network": {"edges": [[1, 2], [2, 3]]},
        }
        SECTIONS[section][1](doc, values)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--quiet", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}")
