"""The adversary-tournament harness (:mod:`repro.campaign.tournament`).

What the tournament promises on top of the generic campaign machinery:

* the ``tournament`` scenario is registered with full and reduced grids
  covering the whole zoo, and a cell is a pure function of
  ``(params, seed)``;
* honest-node-safety and revocation-progress are **in-cell oracles** —
  a violation raises, failing the cell, and (negative control) a cell
  patched to revoke an honest sensor actually fails;
* ``build_tournament_spec`` validates every axis value before any
  worker spawns;
* whole grids replay to bit-identical stores at any ``--jobs``;
* ``rank_run`` orders strategies by mean damage-per-latency and joins
  zoo metadata, and the CLI wraps run/report/compare end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import ZOO
from repro.campaign import (
    ResultStore,
    available_scenarios,
    build_tournament_spec,
    compare_runs,
    get_scenario,
    rank_run,
    render_ranking,
    run_campaign,
    summarize_run,
    tournament_bench_payload,
)
from repro.cli import main
from repro.errors import ConfigError, ReproError

CELL_PARAMS = {
    "strategy": "drop-minimum",
    "predtest": "truthful",
    "topology": "line-10",
    "profile": "none",
    "executions": 2,
}


def smoke_spec(name: str, strategies=("drop-minimum", "spurious-veto")):
    return build_tournament_spec(
        strategies=strategies,
        predtests=("truthful", "deny"),
        topologies=("line-10",),
        profiles=("none",),
        executions=2,
        name=name,
        seed=7,
    )


class TestScenario:
    def test_registered_and_grids_cover_the_zoo(self):
        assert "tournament" in available_scenarios()
        scenario = get_scenario("tournament")
        assert set(scenario.grid["strategy"]) == set(ZOO)
        assert scenario.reduced_grid  # CI smoke slice exists
        assert set(scenario.reduced_grid["strategy"]) <= set(ZOO)

    def test_cell_is_deterministic(self):
        scenario = get_scenario("tournament")
        a = scenario.run(dict(CELL_PARAMS), seed=11)
        b = scenario.run(dict(CELL_PARAMS), seed=11)
        assert a == b
        assert a["honest_revoked"] == 0.0
        assert a["invariant_violations"] == 0.0
        assert a["damage_per_latency"] == a["damage"] / max(
            a["detection_latency_intervals"], 1
        )

    def test_detected_cell_reports_latency_below_total(self):
        metrics = get_scenario("tournament").run(dict(CELL_PARAMS), seed=11)
        assert metrics["detected"] == 1.0
        assert metrics["revocations"] >= 1.0
        assert metrics["detection_latency_intervals"] <= metrics["total_intervals"]

    def test_unknown_strategy_fails_the_cell(self):
        with pytest.raises(ConfigError, match="unknown tournament strategy"):
            get_scenario("tournament").run(
                dict(CELL_PARAMS, strategy="zero-day"), seed=1
            )

    def test_honest_revocation_fails_the_cell(self, monkeypatch):
        # Negative control for the in-cell oracle: weaken veto-MAC
        # verification (the skip-veto-mac mutant's patch) so a forged
        # veto drags its claimed honest sensor into a walk it must
        # fail — the cell has to raise, not return metrics.
        from repro.core import confirmation

        monkeypatch.setattr(confirmation, "verify_mac", lambda *a, **k: True)
        with pytest.raises(ReproError, match="invariant violation|honest sensors"):
            get_scenario("tournament").run(
                dict(CELL_PARAMS, strategy="spurious-veto", predtest="deny"),
                seed=11,
            )


class TestSpecValidation:
    def test_default_spec_enters_the_full_zoo(self):
        spec = build_tournament_spec()
        grid = spec.scenarios[0].grid
        assert tuple(grid["strategy"]) == tuple(sorted(ZOO))
        assert grid["profile"] == ("none",)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"strategies": ("zero-day",)}, "unknown strategies"),
            ({"topologies": ("torus-9000",)}, "unknown tournament topology"),
            ({"profiles": ("solar-flare",)}, "unknown fault profiles"),
        ],
    )
    def test_bad_axis_values_rejected_before_spawn(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            build_tournament_spec(**kwargs)


class TestRunDeterminism:
    def test_parallel_and_inline_stores_identical(self, tmp_path):
        """The `make tournament-smoke` CI gate, inline: two runs, zero tolerance."""
        store = ResultStore(tmp_path)
        parallel = run_campaign(smoke_spec("t-a"), store, jobs=2)
        inline = run_campaign(smoke_spec("t-b"), store, jobs=1)
        assert parallel.failed == 0 and inline.failed == 0
        report = compare_runs(
            store.get_run(parallel.run_id), store.get_run(inline.run_id), threshold=0.0
        )
        assert report.passed, report.regressions
        # Cell identity, not store order: record-for-record equality.
        key = lambda r: r["cell_id"]
        records_a = sorted(store.get_run(parallel.run_id).load_results(), key=key)
        records_b = sorted(store.get_run(inline.run_id).load_results(), key=key)
        for a, b in zip(records_a, records_b):
            assert a["seed"] == b["seed"]
            assert a["metrics"] == b["metrics"]


class TestRanking:
    def _run(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_campaign(
            smoke_spec("t-rank", strategies=("passive", "drop-minimum", "relay-drop")),
            store,
            jobs=1,
        )
        assert result.failed == 0
        return store.get_run(result.run_id)

    def test_rank_orders_by_score_and_joins_metadata(self, tmp_path):
        run = self._run(tmp_path)
        rows = rank_run(run)
        assert [r["strategy"] for r in rows][-1] != "relay-drop"  # silence profits
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)
        by_name = {r["strategy"]: r for r in rows}
        assert by_name["passive"]["score"] == 0.0
        assert by_name["passive"]["contract"] == "harmless"
        assert by_name["relay-drop"]["score"] > 0.0
        assert by_name["relay-drop"]["detected"] == 0.0
        for row in rows:
            assert row["family"] == ZOO[row["strategy"]].family
            assert row["capability"] == ZOO[row["strategy"]].capability
            assert row["cells"] == 2  # 2 predtests x 1 topology x 1 profile

    def test_render_and_bench_payload(self, tmp_path):
        run = self._run(tmp_path)
        rows = rank_run(run)
        rendered = render_ranking(rows)
        assert "tournament ranking" in rendered
        assert "relay-drop" in rendered
        payload = tournament_bench_payload(summarize_run(run), rows)
        assert payload["kind"] == "tournament"
        assert payload["cells_failed"] == 0
        assert payload["ranking"] == [dict(r) for r in rows]
        json.dumps(payload)  # must be JSON-serializable as committed

    def test_empty_ranking_renders_placeholder(self):
        assert render_ranking([]) == "no tournament records to rank"


class TestCli:
    def test_run_report_compare_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "campaign", "tournament", "run",
            "--strategy", "drop-minimum,spurious-veto",
            "--predtest", "truthful,deny",
            "--topology", "line-10",
            "--profile", "none",
            "--executions", "2",
            "--store", store,
            "--jobs", "1",
        ]
        assert main(args + ["--name", "cli-a"]) == 0
        assert main(args + ["--name", "cli-b"]) == 0
        capsys.readouterr()

        output = tmp_path / "bench.json"
        assert main([
            "campaign", "tournament", "report", "latest",
            "--store", store, "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "tournament ranking" in out
        payload = json.loads(output.read_text())
        assert payload["kind"] == "tournament"
        assert payload["cells_ok"] == 4  # 2 strategies x 2 predtests x 1 topology

        runs = ResultStore(store).list_runs()
        run_ids = [r.run_id for r in runs]
        assert main([
            "campaign", "tournament", "compare", run_ids[0], run_ids[1],
            "--store", store, "--threshold", "0",
        ]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
