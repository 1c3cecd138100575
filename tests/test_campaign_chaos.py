"""The ``chaos`` scenario and the fault-plan CLI surface.

These are the campaign-facing guarantees of :mod:`repro.faults`: the
scenario is registered with a CI-sized reduced grid, a chaos cell is a
pure function of ``(params, seed)``, whole chaos runs replay to
byte-identical result stores, and a plan file rides into the grid via
``campaign run --fault-plan``.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ScenarioSpec,
    available_scenarios,
    compare_runs,
    get_scenario,
    run_campaign,
)
from repro.cli import main
from repro.errors import ConfigError

CELL_PARAMS = {"nodes": 16, "profile": "crash", "executions": 2}


def chaos_spec(name: str, profile: str = "crash") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        seed=7,
        scenarios=(
            ScenarioSpec(
                "chaos",
                {"nodes": (16,), "profile": (profile,), "executions": (2,)},
            ),
        ),
    )


class TestScenario:
    def test_registered_with_reduced_grid(self):
        assert "chaos" in available_scenarios()
        scenario = get_scenario("chaos")
        assert scenario.reduced_grid  # CI smoke slice exists
        assert set(scenario.reduced_grid["profile"]) <= {
            "crash", "partition", "burst", "clock", "mixed"
        }

    def test_cell_is_deterministic(self):
        scenario = get_scenario("chaos")
        a = scenario.run(dict(CELL_PARAMS), seed=11)
        b = scenario.run(dict(CELL_PARAMS), seed=11)
        assert a == b
        assert a["revocations"] == 0.0
        assert a["results_produced"] + a["inconclusive"] == CELL_PARAMS["executions"]

    def test_rejects_non_square_node_count(self):
        with pytest.raises(ConfigError, match="perfect square"):
            get_scenario("chaos").run(
                {"nodes": 15, "profile": "crash", "executions": 1}, seed=1
            )

    def test_explicit_fault_plan_axis_overrides_profile(self):
        from repro.faults import BurstLoss, FaultPlan
        from repro.seeding import canonical_json

        plan = FaultPlan(
            "handmade", events=(BurstLoss(loss_rate=0.3, start=1, end=40),)
        )
        params = dict(CELL_PARAMS, fault_plan=canonical_json(plan.to_dict()))
        metrics = get_scenario("chaos").run(params, seed=3)
        assert metrics["faults_injected"] >= 1.0
        assert metrics["revocations"] == 0.0


class TestRunDeterminism:
    def test_two_runs_produce_identical_stores(self, tmp_path):
        """The chaos step of the campaign-smoke CI job, inline: replay and diff at zero tolerance."""
        store = ResultStore(tmp_path)
        first = run_campaign(chaos_spec("chaos-a"), store, jobs=1)
        second = run_campaign(chaos_spec("chaos-b"), store, jobs=1)
        assert first.failed == 0 and second.failed == 0
        report = compare_runs(
            store.get_run(first.run_id), store.get_run(second.run_id), threshold=0.0
        )
        assert report.passed, report.regressions


class TestFaultsCli:
    def test_example_validate_describe_round_trip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main([
            "faults", "example", "--profile", "mixed", "--nodes", "16",
            "--depth-bound", "6", "--seed", "3", "--output", str(plan_path),
        ]) == 0
        capsys.readouterr()

        assert main(["faults", "validate", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "chaos-mixed" in out

        assert main(["faults", "describe", str(plan_path)]) == 0
        assert "clock-drift" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "events": [{"kind": "meteor"}]}))
        assert main(["faults", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize("plan", [{"events": []}, {"name": "x", "events": [{"kind": ["crash"]}]}])
    def test_validate_rejects_malformed_plans_typed(self, tmp_path, capsys, plan):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(plan))
        assert main(["faults", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_campaign_run_accepts_fault_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main([
            "faults", "example", "--profile", "burst", "--nodes", "16",
            "--depth-bound", "6", "--output", str(plan_path),
        ]) == 0
        store = tmp_path / "store"
        assert main([
            "campaign", "run", "--scenario", "chaos",
            "--name", "plan-smoke", "--jobs", "1", "--store", str(store),
            "--fault-plan", str(plan_path),
        ]) == 0
        capsys.readouterr()
        runs = ResultStore(store).list_runs()
        assert len(runs) == 1
        records = runs[0].load_results()
        assert records and all(
            "fault_plan" in r["params"] and r["status"] == "ok" for r in records
        )
