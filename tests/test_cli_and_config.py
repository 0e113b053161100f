"""Tests for the CLI entry point and the experiment runner."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.runner import EXPERIMENTS, run_all


class TestRunner:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_all(["not-an-experiment"])

    def test_selected_subset_runs(self):
        outputs = run_all(["handshake"])
        assert list(outputs) == ["handshake"]
        assert "T_handshake" in outputs["handshake"]

    def test_registry_names_are_stable(self):
        assert {"fig5", "fig6", "handshake"} <= set(EXPERIMENTS)

    def test_obs_dir_writes_per_experiment_and_merged_artifacts(self, tmp_path):
        from repro.obs.validate import validate_artifact_dir

        obs_dir = tmp_path / "obs"
        outputs = run_all(["handshake"], obs_dir=str(obs_dir))
        assert list(outputs) == ["handshake"]
        # one sub-directory per experiment, plus the merged roll-up
        assert not validate_artifact_dir(obs_dir / "handshake")
        assert not validate_artifact_dir(obs_dir)
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["merged_from"] == ["handshake"]


class TestCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "fig6" in out

    def test_run_single_experiment(self, capsys):
        assert main(["handshake"]) == 0
        out = capsys.readouterr().out
        assert "=== handshake" in out
        assert "T_handshake" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert not args.list

