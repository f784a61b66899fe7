"""End-to-end CLI tests: exit codes, artifacts, determinism."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from cdlab import cli
from cdlab.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def ref3_dict(**experiment):
    data = json.loads((SCENARIO_DIR / "ref3.json").read_text())
    data["experiment"].update(experiment)
    return data


class TestValidate:
    def test_reference_passes(self, capsys):
        code = main(["validate", "--config", str(SCENARIO_DIR / "ref3.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["validation"]["passed"] is True
        assert payload["window"] == 2

    def test_quiet_suppresses_output(self, capsys):
        code = main(["validate", "--quiet", "--config", str(SCENARIO_DIR / "n8.json")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_disconnected_schedule_is_domain_failure(self, tmp_path, capsys):
        data = {
            "name": "split",
            "model": {"m0": [0.0] * 3, "m1": [1.0] * 3, "covariance": "identity"},
            "network": {"topology": "static", "edges": [[1, 2]]},
        }
        code = main(["validate", "--config", write_config(tmp_path, data)])
        assert code == 1
        assert "domain error" in capsys.readouterr().err

    def test_unit_correlation_exits_one(self, tmp_path, capsys):
        data = {
            "name": "flat",
            "model": {"m0": [0.0, 0.0], "m1": [1.0, 1.0], "covariance": "exponential(1.0)"},
            "network": {"topology": "static", "edges": [[1, 2]]},
        }
        code = main(["validate", "--config", write_config(tmp_path, data)])
        assert code == 1
        assert "DegenerateCovariance" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        data = ref3_dict()
        data["typo"] = 1
        assert main(["validate", "--config", write_config(tmp_path, data)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_network_missing_needed_key_exits_two(self, tmp_path, capsys):
        data = ref3_dict()
        data["network"] = {"weight_rule": "explicit"}
        assert main(["validate", "--config", write_config(tmp_path, data)]) == 2
        assert "missing required key(s) matrices" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2


class TestAnalyze:
    def test_identity_scenario_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--quiet",
                "--config",
                str(SCENARIO_DIR / "identity2.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for suffix in (
            "curves_exact.csv",
            "decay_report.json",
            "residual_diagnostic.csv",
            "analysis.json",
            "analyze_manifest.json",
        ):
            assert (out / f"identity2_{suffix}").is_file()
        analysis = json.loads((out / "identity2_analysis.json").read_text())
        assert analysis["chernoff_information"] == 0.25
        assert analysis["decay_passed"] is True
        header = (out / "identity2_curves_exact.csv").read_text().splitlines()[0]
        assert header == "node,k,source,alpha,beta,pe,log10_pe,se_alpha,se_beta,se_pe"
        manifest = json.loads((out / "identity2_analyze_manifest.json").read_text())
        assert len(manifest["config_sha256"]) == 64
        assert manifest["version"]
        assert "identity2_curves_exact.csv" in manifest["files"]

    def test_correlated_chernoff_value(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--quiet",
                "--config",
                str(SCENARIO_DIR / "correlated2.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        analysis = json.loads((out / "correlated2_analysis.json").read_text())
        assert analysis["chernoff_information"] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_residual_ratio_of_perfect_averaging_is_rounding_noise(self, tmp_path):
        """correlated2 has W = J: every residual value is rounding, and the ratio stays a number."""
        out = tmp_path / "out"
        code = main(
            ["analyze", "--quiet", "--config", str(SCENARIO_DIR / "correlated2.json"), "--out", str(out)]
        )
        assert code == 0
        residual = json.loads((out / "correlated2_analysis.json").read_text())["residual"]
        assert len(residual) == len(cli.RESIDUAL_MUS)
        for summary in residual.values():
            ratio = summary["max_abs_over_bound"]
            assert isinstance(ratio, float) and math.isfinite(ratio) and ratio <= 1e-12

    def test_outputs_are_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert (
                main(
                    [
                        "analyze",
                        "--quiet",
                        "--config",
                        str(SCENARIO_DIR / "ref3.json"),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        for suffix in ("curves_exact.csv", "residual_diagnostic.csv", "analysis.json"):
            a = (outs[0] / f"ref3_{suffix}").read_bytes()
            b = (outs[1] / f"ref3_{suffix}").read_bytes()
            assert a == b

    def test_decay_violation_leaves_report_and_exits_one(self, tmp_path, monkeypatch, capsys):
        real = cli.check_geometric_decay

        def failing(schedule, max_gap):
            witness = {"j": 1, "k": 2, "gap": 1, "value": 0.5, "bound": 0.25}
            return dataclasses.replace(
                real(schedule, max_gap), passed=False, worst_ratio=2.0, worst_witness=witness
            )

        monkeypatch.setattr(cli, "check_geometric_decay", failing)
        out = tmp_path / "out"
        config = str(SCENARIO_DIR / "identity2.json")
        code = main(["analyze", "--quiet", "--config", config, "--out", str(out)])
        assert code == 1
        assert "decay envelope exceeded" in capsys.readouterr().err
        decay = json.loads((out / "identity2_decay_report.json").read_text())
        assert decay["passed"] is False
        assert decay["worst_witness"]["value"] == 0.5
        assert json.loads((out / "identity2_analysis.json").read_text())["decay_passed"] is False
        manifest = json.loads((out / "identity2_analyze_manifest.json").read_text())
        assert "identity2_decay_report.json" in manifest["files"]
        assert len(manifest["files"]) == 4

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            [
                "analyze",
                "--quiet",
                "--config",
                str(SCENARIO_DIR / "identity2.json"),
                "--out",
                str(blocker / "out"),
            ]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


class TestSimulate:
    def test_small_run_passes_and_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CDL_THREADS", "1")
        config = write_config(tmp_path, ref3_dict(n_trials=4000, checkpoints=[1, 2, 4, 8]))
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["simulate", "--quiet", "--config", config, "--out", str(out)])
            assert code == 0
            digests.append(
                (
                    (out / "ref3_curves_mc.csv").read_bytes(),
                    (out / "ref3_comparison.json").read_bytes(),
                )
            )
        assert digests[0] == digests[1]
        report = json.loads(digests[0][1])
        assert report["verdict"] == "pass"
        assert report["agreement"]["waived"] is False
        assert report["threads"] == 1
        assert report["paired_gap"] <= 1e-9

    def test_trials_override_waives_agreement(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--quiet",
                "--config",
                str(SCENARIO_DIR / "identity2.json"),
                "--out",
                str(out),
                "--trials",
                "10",
            ]
        )
        assert code == 0
        report = json.loads((out / "identity2_comparison.json").read_text())
        assert report["n_trials"] == 10
        assert report["agreement"]["waived"] is True
        assert "wide" in report["agreement"]["note"]

    def test_seed_override_changes_counts(self, tmp_path):
        reports = []
        config = write_config(tmp_path, ref3_dict(n_trials=500, checkpoints=[4]))
        for seed, sub in (("1", "a"), ("2", "b")):
            out = tmp_path / sub
            code = main(
                ["simulate", "--quiet", "--config", config, "--out", str(out), "--seed", seed]
            )
            assert code == 0
            reports.append((out / "ref3_curves_mc.csv").read_text())
        assert reports[0] != reports[1]

    def test_unreachable_threshold_exits_one(self, tmp_path):
        data = ref3_dict(n_trials=200, checkpoints=[1, 2, 4])
        data["experiment"]["thresholds"] = {"gap_tolerance": 1e-9}
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--quiet",
                "--config",
                write_config(tmp_path, data),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads((out / "ref3_comparison.json").read_text())
        assert report["verdict"] == "fail"

    def test_failed_agreement_exits_one(self, tmp_path):
        """An exact verdict of pass does not save a run whose estimates disagree."""
        data = ref3_dict(n_trials=2000, checkpoints=[1, 2, 4])
        data["experiment"]["thresholds"] = {"agreement_sigma": 1e-6}
        out = tmp_path / "out"
        code = main(
            ["simulate", "--quiet", "--config", write_config(tmp_path, data), "--out", str(out)]
        )
        assert code == 1
        report = json.loads((out / "ref3_comparison.json").read_text())
        assert report["verdict"] == "pass"
        assert report["agreement"]["waived"] is False
        assert report["agreement"]["passed"] is False
        assert report["agreement"]["worst_pull"] > 0.0
