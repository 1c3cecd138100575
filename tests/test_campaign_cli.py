"""The `python -m repro campaign ...` command group, end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_smoke(tmp_path, name="cli-smoke", jobs="1"):
    return main([
        "campaign", "run",
        "--scenario", "comm",
        "--replicates", "2",
        "--jobs", jobs,
        "--name", name,
        "--store", str(tmp_path),
    ])


class TestParser:
    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run"])
        assert args.jobs == 1
        assert args.store == ".campaigns"
        assert args.replicates == 1
        assert not args.full

    def test_compare_threshold(self):
        args = build_parser().parse_args(
            ["campaign", "compare", "a", "b", "--threshold", "0.1"]
        )
        assert args.threshold == 0.1

    def test_tournament_compare_is_campaign_compare_at_zero_tolerance(self):
        from repro.cli import cmd_campaign_compare

        args = build_parser().parse_args(["campaign", "tournament", "compare", "a", "b"])
        assert args.func is cmd_campaign_compare
        assert args.threshold == 0.0


class TestRunResolution:
    """``ResultStore.get_run``: exact id, then a unique manifest name."""

    @staticmethod
    def _store(tmp_path, names):
        from repro.campaign import ResultStore

        for run_id, name in names.items():
            (tmp_path / run_id).mkdir()
            (tmp_path / run_id / "manifest.json").write_text(
                json.dumps({"name": name, "created_at": run_id})
            )
        return ResultStore(tmp_path)

    def test_exact_id_then_unique_name(self, tmp_path):
        store = self._store(tmp_path, {"a-1": "alpha", "b-2": "beta", "beta": "gamma"})
        assert store.get_run("a-1").run_id == "a-1"
        assert store.get_run("alpha").run_id == "a-1"
        # An exact run id wins over another run's manifest name.
        assert store.get_run("beta").run_id == "beta"

    def test_ambiguous_name_is_an_error(self, tmp_path):
        from repro.errors import ReproError

        store = self._store(tmp_path, {"a-1": "dup", "a-2": "dup"})
        with pytest.raises(ReproError, match=r"run name 'dup' is ambiguous in .*: a-1, a-2"):
            store.get_run("dup")

    def test_unknown_name_is_an_error(self, tmp_path):
        from repro.errors import ReproError

        store = self._store(tmp_path, {"a-1": "alpha"})
        with pytest.raises(ReproError, match="unknown run 'omega'.*known: a-1"):
            store.get_run("omega")


class TestEndToEnd:
    def test_run_report_validate_compare(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert run_smoke(store) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "executed" in out

        assert main(["campaign", "validate", "latest", "--store", str(store)]) == 0
        assert "is valid" in capsys.readouterr().out

        assert main(["campaign", "report", "latest", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "vmat_bytes" in out and "stderr" in out

        assert main([
            "campaign", "compare", "latest", "latest",
            "--store", str(store), "--threshold", "0",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_runs_by_name(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_smoke(store, name="first", jobs="2")
        run_smoke(store, name="second", jobs="1")
        capsys.readouterr()
        assert main([
            "campaign", "compare", "first", "second",
            "--store", str(store), "--threshold", "0",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_rerun_resumes(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_smoke(store)
        capsys.readouterr()
        assert run_smoke(store) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "4 resumed" in out

    def test_report_writes_bench_payload(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_smoke(store, name="a")
        run_smoke(store, name="b")
        output = tmp_path / "BENCH_campaign.json"
        code = main([
            "campaign", "report", "b-" + _run_suffix(store, "b"),
            "--store", str(store),
            "--output", str(output),
            "--baseline", "a-" + _run_suffix(store, "a"),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["baseline_run_id"].startswith("a-")
        assert "speedup_vs_baseline" in payload
        assert payload["groups"]

    def test_spec_file_round_trip(self, tmp_path, capsys):
        from repro.campaign import CampaignSpec, ScenarioSpec

        spec = CampaignSpec(
            name="from-file",
            replicates=1,
            scenarios=(ScenarioSpec("comm", {"nodes": (1_000,), "synopses": (100,)}),),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        store = tmp_path / "store"
        code = main([
            "campaign", "run", "--spec", str(spec_path), "--store", str(store),
        ])
        assert code == 0
        assert "from-file" in capsys.readouterr().out

    def test_list_shows_runs_and_scenarios(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_smoke(store)
        capsys.readouterr()
        assert main(["campaign", "list", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out
        assert "fig7" in out  # registered scenarios are listed

    def test_unknown_scenario_is_a_clean_error(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "--scenario", "not-real",
            "--store", str(tmp_path),
        ])
        assert code == 1
        assert "ERROR  unknown scenario" in capsys.readouterr().err


def _run_suffix(store, name):
    """Find the spec-hash suffix of the single run named ``name``."""
    for child in store.iterdir():
        if child.name.startswith(name + "-"):
            return child.name.split("-", 1)[1]
    raise AssertionError(f"no run named {name} in {store}")
