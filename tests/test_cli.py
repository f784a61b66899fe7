"""End-to-end CLI tests: exit codes, artifacts, determinism."""

import csv
import dataclasses
import hashlib
import importlib
import json
import math
import time
from pathlib import Path

import pytest

from cdlab import cli, experiment, network
from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.cli import main
from cdlab.config import scenario_from_file
from cdlab.experiment import compare_detectors
from cdlab.network import _PaddedRows
from corpus import CORPUS, SCENARIO_DIR, scenario_config
from oracles import fold_residual_csv, per_cell_residual_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        assert sorted(payload) == ["assumption_check", "chernoff_information", "contraction", "n_sensors", "period", "scenario"]
        assert payload["assumption_check"]["passed"] is True
        assert (payload["period"], payload["contraction"]["window"], payload["contraction"]["min_weight"]) == (2, 2, 0.5)

    @pytest.mark.parametrize("name", CORPUS)
    def test_prints_the_analysis_header(self, name, corpus_run, capsys):
        """validate states the scenario with the header analysis.json carries, whose
        decay check passed, and analyze writes three artifacts besides its manifest."""
        assert main(["validate", "--config", str(SCENARIO_DIR / f"{name}.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["assumption_check", "chernoff_information", "contraction", "n_sensors", "period", "scenario"]
        assert payload.pop("period") == scenario_config(name).build_schedule().period
        out = corpus_run(name)
        analysis = json.loads((out / f"{name}_analysis.json").read_text())
        assert {key: analysis[key] for key in payload} == payload
        assert analysis["decay"]["passed"] is True
        manifest = json.loads((out / f"{name}_analyze_manifest.json").read_text())
        assert sorted(manifest["files"]) == [f"{name}_{suffix}" for suffix in ("analysis.json", "curves_exact.csv", "residual_diagnostic.csv")]

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
        data["network"] = {"topology": "explicit"}
        assert main(["validate", "--config", write_config(tmp_path, data)]) == 2
        assert "missing required key(s) matrices" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        text = (SCENARIO_DIR / "ref3.json").read_text().replace('"n_trials": 100000', '"n_trials": 0, "n_trials": 100000')
        path = tmp_path / "ref3.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert "duplicate key(s) n_trials" in capsys.readouterr().err

    def test_file_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ref3.json"
        path.write_bytes(b"\xff\xfe" + (SCENARIO_DIR / "ref3.json").read_bytes())
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_explicit_matrices_run(self, tmp_path):
        data = {
            "name": "explicit2",
            "model": {"m0": [0, 0], "m1": [1, 1], "covariance": "identity"},
            "network": {"topology": "explicit", "matrices": [[[0.5, 0.5], [0.5, 0.5]]]},
        }
        config = write_config(tmp_path, data)
        assert main(["validate", "--quiet", "--config", config]) == 0
        assert main(["analyze", "--quiet", "--config", config, "--out", str(tmp_path / "out")]) == 0


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
        assert sorted(path.name for path in out.iterdir()) == [
            f"identity2_{suffix}"
            for suffix in ("analysis.json", "analyze_manifest.json", "curves_exact.csv", "residual_diagnostic.csv")
        ]
        analysis = json.loads((out / "identity2_analysis.json").read_text())
        assert analysis["chernoff_information"] == 0.25
        decay = analysis["decay"]
        assert sorted(decay) == ["asymptotic_rate", "envelope_rate", "note", "passed", "phases", "worst_ratio", "worst_witness"]
        assert decay["passed"] is True and decay["note"] is None
        # W = J: the products vanish, so both rates are infinite and written as null
        assert decay["phases"] == [{"phase": 1, "norm": 0.0, "proven_rate": None, "tail_gap": 2}]
        assert decay["asymptotic_rate"] is None
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
        assert residual.keys() == {"sup_abs_over_bound", "node", "k", "tilt"}
        ratio = residual["sup_abs_over_bound"]
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

    def test_billionth_checkpoint_is_jumped_to(self, tmp_path):
        """ref3 with checkpoints 1..512, 512 again and 1e9: the deep row is
        finite and every other row, written once, and the residual CSV, is
        byte-identical to the run without them."""
        shallow = list(range(1, cli.RESIDUAL_HORIZON + 1))
        runs = {}
        for name, checkpoints in (("shallow", shallow), ("deep", shallow + [cli.RESIDUAL_HORIZON, 10**9])):
            config = write_config(tmp_path, ref3_dict(checkpoints=checkpoints), name=f"{name}.json")
            start = time.perf_counter()
            assert main(["analyze", "--quiet", "--config", config, "--out", str(tmp_path / name)]) == 0
            assert time.perf_counter() - start < 30.0
            runs[name] = tmp_path / name
        deep_lines = (runs["deep"] / "ref3_curves_exact.csv").read_text().splitlines()
        jumped = [line for line in deep_lines if line.split(",")[1] == str(10**9)]
        kept = [line for line in deep_lines if line not in jumped]
        assert kept == (runs["shallow"] / "ref3_curves_exact.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in jumped] == ["cen", "1", "2", "3"]
        for line in jumped[1:]:
            log10_pe = float(line.split(",")[6])
            assert math.isfinite(log10_pe)
            assert log10_pe == pytest.approx(-3.26e7, rel=2e-3)
        residual = "ref3_residual_diagnostic.csv"
        assert (runs["deep"] / residual).read_bytes() == (runs["shallow"] / residual).read_bytes()

    def test_repeated_checkpoint_is_written_once(self, tmp_path):
        """Checkpoints [8, 4, 4, 16, 2] analyze as the set 2, 4, 8, 16: one
        row per curve and k."""
        config = write_config(tmp_path, ref3_dict(checkpoints=[8, 4, 4, 16, 2]))
        out = tmp_path / "out"
        assert main(["analyze", "--quiet", "--config", config, "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in (out / "ref3_curves_exact.csv").read_text().splitlines()[1:]]
        for node in ("cen", "1", "2", "3"):
            assert [k for name, k in rows if name == node] == ["2", "4", "8", "16"]
        analysis = json.loads((out / "ref3_analysis.json").read_text())
        assert analysis["checkpoints"] == [2, 4, 8, 16]

    def test_rate_block_past_the_last_checkpoint(self, tmp_path):
        """Checkpoints [1, 2, 4, 8] still give the rate block at k_early = 100 and
        k_late = 500, which analyze visits without writing curve rows there, and
        its nodes are compare_detectors' on a trajectory stepped through every k,
        which reaches 500 by other roundings: within 1e-12 relative, and within
        1e-12 C absolute for a gap, a difference of two rates near C."""
        config = write_config(tmp_path, ref3_dict(checkpoints=[1, 2, 4, 8]))
        out = tmp_path / "out"
        assert main(["analyze", "--quiet", "--config", config, "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in (out / "ref3_curves_exact.csv").read_text().splitlines()[1:]]
        for node in ("cen", "1", "2", "3"):
            assert [k for name, k in rows if name == node] == ["1", "2", "4", "8"]
        analysis = json.loads((out / "ref3_analysis.json").read_text())
        parsed = scenario_from_file(config)
        stepped = compare_detectors(parsed.build_model(), parsed.build_schedule(), parsed.thresholds)
        assert (analysis["k_early"], analysis["k_late"], analysis["verdict"]) == (100, 500, "pass")
        assert len(analysis["nodes"]) == len(stepped["nodes"]) == 3
        for got, want in zip(analysis["nodes"], stepped["nodes"]):
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, float):
                    floor = 1e-12 * analysis["chernoff_information"] if key.startswith("gap") else 0.0
                    assert math.isclose(got[key], value, rel_tol=1e-12, abs_tol=floor), (want["node"], key)
                else:
                    assert got[key] == value, (want["node"], key)

    def test_failed_rate_verdict_is_reported_not_an_exit_code(self, tmp_path):
        """ref3 at k_early = 100 and k_late = 101, where node 1's gap grows: the
        verdict is fail, and analyze exits 0, as its decay check passed."""
        data = ref3_dict()
        data["experiment"]["thresholds"] = {"k_early": 100, "k_late": 101, "gap_tolerance": 0.05}
        out = tmp_path / "out"
        assert main(["analyze", "--quiet", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
        analysis = json.loads((out / "ref3_analysis.json").read_text())
        assert analysis["decay"]["passed"] is True
        assert analysis["verdict"] == "fail"
        assert analysis["nodes"][0]["gap_shrinks"] is False

    def test_decay_violation_leaves_report_and_exits_one(self, tmp_path, monkeypatch, capsys):
        real = cli.check_geometric_decay

        def failing(schedule):
            witness = {"j": 1, "k": 2, "gap": 1, "value": 0.5, "bound": 0.25}
            return dataclasses.replace(real(schedule), passed=False, worst_ratio=2.0, worst_witness=witness)

        monkeypatch.setattr(cli, "check_geometric_decay", failing)
        out = tmp_path / "out"
        config = str(SCENARIO_DIR / "identity2.json")
        code = main(["analyze", "--quiet", "--config", config, "--out", str(out)])
        assert code == 1
        assert "decay envelope exceeded" in capsys.readouterr().err
        decay = json.loads((out / "identity2_analysis.json").read_text())["decay"]
        assert decay["passed"] is False
        assert decay["worst_witness"]["value"] == 0.5
        manifest = json.loads((out / "identity2_analyze_manifest.json").read_text())
        assert sorted(manifest["files"]) == [
            f"identity2_{suffix}" for suffix in ("analysis.json", "curves_exact.csv", "residual_diagnostic.csv")
        ]

    def test_ring256_matches_the_benchmark_reference(self, tmp_path, monkeypatch):
        """The benchmark's 256-node ring of two alternating matchings, written by
        perfbench's own ``ring_config``, steps through row-padded factors, its
        exact curves match perfbench's reference within perfbench's tolerances,
        and analyze exits 0 on it with a failed rate verdict."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        run, checks = importlib.import_module("run"), importlib.import_module("checks")
        config = write_config(tmp_path, run.ring_config(), name="ring256.json")
        assert all(type(op) is _PaddedRows for op in scenario_from_file(config).build_schedule().operators())
        assert main(["analyze", "--quiet", "--config", config, "--out", str(tmp_path / "out")]) == 0
        curves = tmp_path / "out" / "ring256_curves_exact.csv"
        assert checks.curve_mismatches(curves, checks.exact_reference_path("exact-ring256")) == []
        # the ring has not mixed by k_late = 500: the rate verdict fails, and the
        # exit code, the decay check's, stays 0
        analysis = json.loads((tmp_path / "out" / "ring256_analysis.json").read_text())
        assert (analysis["decay"]["passed"], analysis["verdict"]) == (True, "fail")

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


class TestArtifactWriter:
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_manifest_digests_match_bytes_on_disk(self, command, tmp_path, monkeypatch):
        monkeypatch.setenv("CDL_THREADS", "1")
        out = tmp_path / "out"
        argv = [command, "--quiet", "--config", str(SCENARIO_DIR / "ref3.json"), "--out", str(out)]
        if command == "simulate":
            argv += ["--trials", "2000"]
        assert main(argv) == 0
        manifest_path = out / f"ref3_{command}_manifest.json"
        files = json.loads(manifest_path.read_text())["files"]
        on_disk = sorted(p.name for p in out.iterdir())
        assert sorted([*files, manifest_path.name]) == on_disk
        for name, digest in files.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name

    def test_failed_chunk_leaves_no_partial_file(self, tmp_path):
        """A chunk that raises leaves no new file, no temporary file, and an earlier file whole."""
        config = scenario_from_file(SCENARIO_DIR / "ref3.json")
        ws = cli._Workspace(SCENARIO_DIR / "ref3.json", config, str(tmp_path), quiet=True)
        kept = ws.write("kept.csv", ["a,b\n", "1,2\n"])

        def chunks():
            yield "first chunk\n"
            raise RuntimeError("formatter failed")

        for suffix in ("broken.csv", "kept.csv"):
            with pytest.raises(RuntimeError, match="formatter failed"):
                ws.write(suffix, chunks())
        assert [p.name for p in tmp_path.iterdir()] == [kept.name]
        assert kept.read_text() == "a,b\n1,2\n"
        assert ws.written == [(kept, hashlib.sha256(b"a,b\n1,2\n").hexdigest())]

    def test_residual_csv_matches_per_cell_formatter(self, tmp_path, ring_config):
        """On the padded path, at a size the corpus lacks (the 64-node ring),
        analyze's summary is the per-cell formatter's rows at its checkpoints,
        read off a trajectory over its visit set, folded by max |a| and max |b|,
        lowest node on ties; test_scripts checks the fold on the corpus."""
        config_path = ring_config(64, 64)
        out = tmp_path / "out"
        assert main(["analyze", "--quiet", "--config", config_path, "--out", str(out)]) == 0

        config = scenario_from_file(config_path)
        model, schedule = config.build_model(), config.build_schedule()
        traj = propagate_moments(model, schedule, config.thresholds.visits(config.checkpoints))
        residual = mixing_residual_curves(model, schedule, traj, config.checkpoints[1:])  # 2, 4, ..., 64
        expected = fold_residual_csv(per_cell_residual_csv(residual))
        written = (out / f"{config.name}_residual_diagnostic.csv").read_bytes()
        assert written == expected.encode()


class TestRateRule:
    @pytest.mark.parametrize("name", CORPUS)
    def test_analysis_and_comparison_agree(self, name, corpus_run):
        """One rate rule in both commands: the artifacts share the header and the
        rate block, and agree on every key they share."""
        out = corpus_run(name)
        analysis = json.loads((out / f"{name}_analysis.json").read_text())
        comparison = json.loads((out / f"{name}_comparison.json").read_text())
        shared = analysis.keys() & comparison.keys()
        assert {"nodes", "verdict", "centralized", "k_early", "k_late", "gap_tolerance", "verdict_note"} <= shared
        assert {key: analysis[key] for key in shared} == {key: comparison[key] for key in shared}
        assert analysis["verdict"] == "pass"

    def test_both_commands_visit_one_set_of_k(self, tmp_path, monkeypatch, ring_config):
        """The visit rule: each command propagates once, over its checkpoints,
        k_early and k_late and no other k, so analyze and simulate jump and step
        alike and read one set of moments."""
        visits = []

        def recorded(model, schedule, ks, *args, **kwargs):
            visits.append(list(ks))
            return propagate_moments(model, schedule, ks, *args, **kwargs)

        for module in (cli, experiment):
            monkeypatch.setattr(module, "propagate_moments", recorded)
        ref3, ring = str(SCENARIO_DIR / "ref3.json"), ring_config(64, 1024)
        runs = (["analyze", "--config", ref3], ["simulate", "--config", ref3, "--trials", "10"], ["analyze", "--config", ring])
        for argv in runs:
            assert main([*argv, "--quiet", "--out", str(tmp_path)]) == 0
        expected = []
        for config in (scenario_from_file(ref3), scenario_from_file(ring)):
            expected.append(sorted({*config.checkpoints, config.thresholds.k_early, config.thresholds.k_late}))
        assert visits == [expected[0], expected[0], expected[1]]
        assert expected[1] == [1, 2, 4, 8, 16, 32, 64, 100, 128, 256, 500, 512, 1024]

    @pytest.mark.parametrize("command", ["validate", "analyze", "simulate"])
    def test_assumption_is_validated_once(self, command, tmp_path, monkeypatch):
        """One report a command, and the weight checks behind it run once:
        build_schedule measures them and every later reader takes its report."""
        calls = {"validate_assumption": [], "_weight_issues": []}

        def counted(name, real):
            def count(schedule):
                calls[name].append(schedule)
                return real(schedule)
            return count

        validate = counted("validate_assumption", experiment.validate_assumption)
        for module in (experiment, network):
            monkeypatch.setattr(module, "validate_assumption", validate)
        monkeypatch.setattr(network, "_weight_issues", counted("_weight_issues", network._weight_issues))
        argv = [command, "--quiet", "--config", str(SCENARIO_DIR / "ref3.json")]
        extra = {"validate": [], "analyze": ["--out", str(tmp_path)], "simulate": ["--out", str(tmp_path), "--trials", "10"]}
        assert main(argv + extra[command]) == 0
        assert {name: len(found) for name, found in calls.items()} == {"validate_assumption": 1, "_weight_issues": 1}


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
        assert report["paired_gap"] <= 1e-9

    @pytest.mark.parametrize("name", CORPUS)
    def test_artifacts_do_not_depend_on_thread_count(self, name, tmp_path, monkeypatch, capsys):
        """Every file is the same bytes at 1 and 2 threads, and the manifest holds their
        digests; the count is printed, not written."""
        config = str(SCENARIO_DIR / f"{name}.json")
        files = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CDL_THREADS", threads)
            out = tmp_path / threads
            assert main(["simulate", "--trials", "4096", "--seed", "0", "--config", config, "--out", str(out)]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == f"verdict=pass agreement=True threads={threads} -> exit 0"
            files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        manifest = f"{name}_simulate_manifest.json"
        assert sorted(files[0]) == [f"{name}_comparison.json", f"{name}_curves_mc.csv", manifest]
        assert files[0] == files[1]
        assert "threads" not in json.loads(files[0][f"{name}_comparison.json"])
        digests = json.loads(files[0][manifest])["files"]
        assert digests == {file: hashlib.sha256(data).hexdigest() for file, data in files[0].items() if file != manifest}

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

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--seed", "-1"], ["--trials", "5", "--seed", "-1"]])
    def test_out_of_range_flag_is_a_config_error(self, flags, tmp_path, capsys):
        """Exit 2 naming the flag, as the same value in the file would; 1 means a failed verdict.

        The last flag given is the bad one, and the error names it alone.
        """
        out = tmp_path / "out"
        code = main(["simulate", "--quiet", "--config", str(SCENARIO_DIR / "n1.json"), "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {' '.join(flags[-2:])}:")
        assert not out.exists()

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


class TestSensorWithoutLikelihoodWeight:
    """A sensor with innovation weight w_i = (C^-1 (m1 - m0))_i = 0 has eta_i = 0, so
    until mixing reaches it its statistic is its mean, 0, at variance 0.  Ties decide
    the null: alpha = 0 and beta = 1 there, which the Monte Carlo counts give exactly."""

    @pytest.mark.parametrize(
        "name, m1, certain",
        [
            ("correlated2", [1.0, 0.5], {("2", "1")}),  # w = (1, 0)
            ("ref3", [1.5, 1.5, 0.75], {("3", "1"), ("3", "2")}),  # w = (1, 1, 0); W(1) leaves node 3 alone
        ],
    )
    def test_both_commands_report_it(self, name, m1, certain, tmp_path, monkeypatch):
        monkeypatch.setenv("CDL_THREADS", "1")
        data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        data["model"]["m1"] = m1
        config, out = write_config(tmp_path, data), str(tmp_path)
        assert main(["analyze", "--quiet", "--config", config, "--out", out]) == 0
        # simulate's exit code is its agreement rule's on the other cells; that it wrote
        # its artifacts shows the certain cells raised nothing
        main(["simulate", "--quiet", "--config", config, "--out", out, "--trials", "4096"])
        rows = {}
        for source in ("exact", "mc"):
            for row in csv.DictReader(open(tmp_path / f"{name}_curves_{source}.csv")):
                rows.setdefault((row["node"], row["k"]), {})[source] = row
        split = {key for key, both in rows.items() if both["exact"]["alpha"] != both["exact"]["beta"]}
        assert split == certain
        for key in certain:
            exact, mc = rows[key]["exact"], rows[key]["mc"]
            assert (exact["alpha"], exact["beta"], exact["pe"]) == ("0.0", "1.0", "0.5")
            assert (mc["alpha"], mc["beta"], mc["pe"]) == ("0.0", "1.0", "0.5")
        report = json.loads((tmp_path / f"{name}_comparison.json").read_text())
        assert report["verdict"] == "pass"
        assert math.isfinite(report["agreement"]["worst_pull"])  # a certain cell off by one count reads inf
