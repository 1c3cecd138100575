"""Tests for :mod:`repro.invariants` — catalog, monitor, offline, mutants.

Three layers:

* unit tests of each catalog invariant against synthetic
  :class:`ExecutionView` snapshots (every rule has a passing and a
  failing view, including the reachable-honest-component subtleties);
* integration tests running the online :class:`InvariantMonitor` over
  honest and attacked sessions (which must stay clean on correct code),
  plus save/reload parity with the offline trace checker;
* the mutation smoke-check: every deliberately weakened protocol
  variant must be flagged by at least one expected invariant while its
  unpatched baseline stays clean — the catalog's own regression test.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import Adversary, make_strategy
from repro.campaign import ResultStore
from repro.errors import ReproError
from repro.invariants import (
    EXECUTION_INVARIANTS,
    STORE_INVARIANTS,
    AggregateErrorBound,
    ChaosBenignSafety,
    ClockSyncDelta,
    ExecutionView,
    Fig7ThetaMonotonicity,
    Fig8SynopsisErrorBound,
    HonestNodeSafety,
    InvariantMonitor,
    InvariantViolationError,
    PositiveProofRevocation,
    RevocationProgress,
    RoundsConstantBound,
    StoreSeedDerivation,
    check_execution,
    check_run,
    check_store,
    check_trace_file,
    classify_reason,
    mutation_smoke,
)
from repro.topology import line_topology
from repro.tracing import TraceEvent, Tracer

STORES_CI = Path(__file__).resolve().parent.parent / "stores" / "ci"


def make_view(**overrides) -> ExecutionView:
    """A clean baseline view; tests override what they attack."""
    defaults = dict(
        query="min",
        outcome="result",
        depth_bound=9,
        instances=1,
        malicious=frozenset(),
        faults_active=False,
        adversary_active=False,
        estimate=1.0,
        honest_true=1.0,
        overall_true=1.0,
        reachable_honest_true=1.0,
        reachable_honest_count=9,
    )
    defaults.update(overrides)
    return ExecutionView(**defaults)


def revocation(what: str, target: int, reason: str) -> dict:
    return {"kind": "revocation", "what": what, "target": target, "reason": reason}


# ----------------------------------------------------------------------
# Reason classification
# ----------------------------------------------------------------------
class TestClassifyReason:
    @pytest.mark.parametrize("reason", [
        "claimed interval-L receipt",
        "originated junk at max level",
        "originated spurious veto",
    ])
    def test_positive(self, reason: str) -> None:
        assert classify_reason(reason) == "positive"

    @pytest.mark.parametrize("reason", [
        "refused Figure-5 search",
        "no consistent admitter (Figure 6)",
        "nobody admits forwarding junk veto",
    ])
    def test_absence(self, reason: str) -> None:
        assert classify_reason(reason) == "absence"

    @pytest.mark.parametrize("reason", [
        "ring of sensor 4",
        "threshold theta=3 reached",
    ])
    def test_structural(self, reason: str) -> None:
        assert classify_reason(reason) == "structural"

    def test_unknown(self) -> None:
        assert classify_reason("because I felt like it") == "unknown"


# ----------------------------------------------------------------------
# Catalog invariants on synthetic views
# ----------------------------------------------------------------------
class TestHonestNodeSafety:
    inv = HonestNodeSafety()

    def test_malicious_sensor_revocation_is_fine(self) -> None:
        view = make_view(
            outcome="veto-pinpoint",
            malicious=frozenset({4}),
            adversary_active=True,
            revocations=(revocation("sensor", 4, "originated spurious veto"),),
        )
        assert self.inv.check(view) == []

    def test_honest_sensor_revocation_flagged(self) -> None:
        view = make_view(
            outcome="veto-pinpoint",
            malicious=frozenset({4}),
            adversary_active=True,
            revocations=(revocation("sensor", 5, "originated spurious veto"),),
        )
        found = self.inv.check(view)
        assert len(found) == 1
        assert "honest sensor 5" in found[0].detail

    def test_key_revocation_without_adversary_flagged(self) -> None:
        view = make_view(
            outcome="junk-aggregation-pinpoint",
            revocations=(revocation("key", 12, "nobody admits forwarding junk"),),
        )
        assert any(
            "no adversary" in v.detail for v in self.inv.check(view)
        )


class TestPositiveProofRevocation:
    inv = PositiveProofRevocation()

    def test_unknown_reason_flagged(self) -> None:
        view = make_view(
            outcome="veto-pinpoint",
            revocations=(revocation("sensor", 4, "vibes"),),
        )
        assert any("unrecognized" in v.detail for v in self.inv.check(view))

    def test_absence_reason_under_faults_flagged(self) -> None:
        view = make_view(
            outcome="junk-aggregation-pinpoint",
            faults_active=True,
            revocations=(revocation("key", 3, "refused Figure-5 search"),),
        )
        assert any("benign mode must defer" in v.detail for v in self.inv.check(view))

    def test_absence_reason_without_faults_is_fine(self) -> None:
        view = make_view(
            outcome="junk-aggregation-pinpoint",
            revocations=(revocation("key", 3, "refused Figure-5 search"),),
        )
        assert self.inv.check(view) == []

    def test_positive_reason_under_faults_is_fine(self) -> None:
        view = make_view(
            outcome="veto-pinpoint",
            faults_active=True,
            revocations=(revocation("sensor", 4, "originated spurious veto"),),
        )
        assert self.inv.check(view) == []

    def test_result_with_revocations_flagged(self) -> None:
        view = make_view(
            outcome="result",
            revocations=(revocation("sensor", 4, "originated spurious veto"),),
        )
        assert any("produced a result" in v.detail for v in self.inv.check(view))


class TestRevocationProgress:
    inv = RevocationProgress()

    def test_result_is_fine(self) -> None:
        assert self.inv.check(make_view(outcome="result")) == []

    def test_inconclusive_without_faults_flagged(self) -> None:
        view = make_view(outcome="inconclusive", inconclusive_reason="timeout")
        assert any("inconclusive" in v.detail for v in self.inv.check(view))

    def test_inconclusive_under_faults_allowed(self) -> None:
        view = make_view(
            outcome="inconclusive", faults_active=True, inconclusive_reason="timeout"
        )
        assert self.inv.check(view) == []

    def test_pinpoint_without_revocation_flagged(self) -> None:
        view = make_view(outcome="veto-pinpoint", revocations=())
        assert any("without revoking" in v.detail for v in self.inv.check(view))

    def test_pinpoint_with_revocation_is_fine(self) -> None:
        view = make_view(
            outcome="veto-pinpoint",
            revocations=(revocation("sensor", 4, "originated spurious veto"),),
        )
        assert self.inv.check(view) == []


class TestAggregateErrorBound:
    inv = AggregateErrorBound()

    def test_exact_min_result_is_fine(self) -> None:
        view = make_view(estimate=1.0, honest_true=1.0, overall_true=0.5,
                         reachable_honest_true=1.0)
        assert self.inv.check(view) == []

    def test_min_above_reachable_honest_flagged(self) -> None:
        view = make_view(estimate=7.0, honest_true=1.0, overall_true=0.5,
                         reachable_honest_true=1.0)
        assert any("escapes" in v.detail for v in self.inv.check(view))

    def test_min_below_every_reading_flagged(self) -> None:
        view = make_view(estimate=0.1, honest_true=1.0, overall_true=0.5)
        assert any("escapes" in v.detail for v in self.inv.check(view))

    def test_reachable_fallback_loosens_bound(self) -> None:
        # Honest minimum owner got disconnected by an earlier revocation:
        # the result may legitimately exceed honest_true, up to the
        # reachable honest minimum.
        view = make_view(estimate=101.0, honest_true=1.0, overall_true=1.0,
                         reachable_honest_true=101.0, reachable_honest_count=3)
        assert self.inv.check(view) == []

    def test_zero_reachable_honest_skips(self) -> None:
        # Every honest sensor stranded: the result promises nothing.
        view = make_view(estimate=float("inf"), honest_true=1.0, overall_true=1.0,
                         reachable_honest_true=None, reachable_honest_count=0)
        assert self.inv.check(view) == []

    def test_max_mirrored(self) -> None:
        good = make_view(query="max", estimate=9.0, honest_true=9.0,
                         overall_true=12.0, reachable_honest_true=9.0)
        assert self.inv.check(good) == []
        bad = make_view(query="max", estimate=5.0, honest_true=9.0,
                        overall_true=12.0, reachable_honest_true=9.0)
        assert any("MAX" in v.detail for v in self.inv.check(bad))

    def test_faulty_executions_skip(self) -> None:
        view = make_view(estimate=50.0, honest_true=1.0, overall_true=1.0,
                         faults_active=True)
        assert self.inv.check(view) == []

    def test_synopsis_within_envelope_is_fine(self) -> None:
        view = make_view(query="count", instances=64, estimate=100.0,
                         honest_true=100.0, overall_true=100.0)
        assert self.inv.check(view) == []

    def test_synopsis_gross_error_flagged(self) -> None:
        view = make_view(query="count", instances=64, estimate=500.0,
                         honest_true=100.0, overall_true=100.0)
        assert any("relative error" in v.detail for v in self.inv.check(view))


class TestClockSyncDelta:
    """The §III bound read from the clock columns of a real network."""

    @pytest.fixture
    def network(self):
        return build_deployment(
            config=small_test_config(depth_bound=8), topology=line_topology(8), seed=3
        ).network

    def test_deployed_clocks_are_fine(self, network) -> None:
        view = ExecutionView(query="min", outcome="result", network=network)
        assert ClockSyncDelta().check(view) == []

    def test_offset_past_half_delta_flagged(self, network) -> None:
        half = network.config.clock.max_error / 2
        network.clocks.offsets[2] = -half
        network.clocks.offsets[5] = half * 1.01  # just past the bound
        view = ExecutionView(query="min", outcome="result", network=network)
        violations = ClockSyncDelta().check(view)
        assert len(violations) == 1
        assert violations[0].context["max_error"] == pytest.approx(2.01 * half)
        assert violations[0].context["delta"] == network.config.clock.max_error

    def test_silent_while_drift_is_active(self, network) -> None:
        half = network.config.clock.max_error / 2
        network.clocks.offsets[2] = -half
        network.clocks.offsets[5] = half * 1.01
        network.clocks.drift[6] = 0.3  # an injected excursion is the fault
        view = ExecutionView(query="min", outcome="result", network=network)
        assert ClockSyncDelta().check(view) == []


class TestOnlineOnlyInvariantsSkipOffline:
    def test_network_free_view_runs_clean(self) -> None:
        # Clock/broadcast/edge-MAC checks need live state; a view built
        # from a trace file alone must not trip them.
        view = make_view(network=None)
        assert check_execution(view) == []

    def test_catalog_names_unique(self) -> None:
        names = [inv.name for inv in EXECUTION_INVARIANTS] + [
            inv.name for inv in STORE_INVARIANTS
        ]
        assert len(names) == len(set(names))
        assert all(inv.section for inv in EXECUTION_INVARIANTS)


# ----------------------------------------------------------------------
# Online monitor over real sessions
# ----------------------------------------------------------------------
def run_monitored_session(malicious=frozenset(), strategy=None, executions=3,
                          seed=7):
    topology = line_topology(10)
    deployment = build_deployment(
        config=small_test_config(depth_bound=12),
        topology=topology,
        malicious_ids=set(malicious),
        seed=seed,
    )
    network = deployment.network
    adversary = None
    if malicious:
        adversary = Adversary(network, make_strategy(strategy, "truthful"), seed=seed)
    protocol = VMATProtocol(network, adversary=adversary)
    tracer = Tracer.attach(network)
    monitor = InvariantMonitor.attach(tracer, network)
    readings = {i: 100.0 + i for i in topology.sensor_ids}
    readings[7] = 1.0
    outcomes = []
    for _ in range(executions):
        outcomes.append(protocol.execute(MinQuery(), readings).outcome.value)
    monitor.check_now()
    monitor.detach()
    return tracer, monitor, outcomes


class TestInvariantMonitor:
    def test_honest_session_clean(self) -> None:
        tracer, monitor, outcomes = run_monitored_session()
        assert outcomes == ["result"] * 3
        assert monitor.executions_checked == 3
        assert monitor.violations == []

    def test_attacked_session_clean_on_correct_code(self) -> None:
        _, monitor, outcomes = run_monitored_session(
            malicious={4}, strategy="junk-minimum"
        )
        assert monitor.violations == []
        assert monitor.executions_checked == 3
        # The attack was actually exercised: at least one pinpoint ran.
        assert any(o != "result" for o in outcomes)

    def test_detach_stops_observation(self) -> None:
        tracer, monitor, _ = run_monitored_session(executions=1)
        checked = monitor.executions_checked
        tracer.record("execution-start", query="min", depth_bound=9)
        tracer.record("execution-end", outcome="inconclusive")
        monitor.check_now()
        assert monitor.executions_checked == checked

    def test_raise_mode(self) -> None:
        monitor = InvariantMonitor(on_violation="raise")
        monitor.on_event(TraceEvent(0, "execution-start", {"query": "min"}))
        monitor.on_event(TraceEvent(1, "execution-end", {"outcome": "inconclusive"}))
        with pytest.raises(InvariantViolationError) as excinfo:
            monitor.check_now()
        assert any(
            v.invariant == "revocation-progress" for v in excinfo.value.violations
        )

    def test_rejects_bad_mode(self) -> None:
        with pytest.raises(ReproError):
            InvariantMonitor(on_violation="ignore")


class TestOfflineTraceParity:
    def test_saved_trace_checks_identically(self, tmp_path) -> None:
        tracer, monitor, _ = run_monitored_session(
            malicious={4}, strategy="spurious-veto"
        )
        path = tmp_path / "session.jsonl"
        tracer.save(path)
        checked, violations = check_trace_file(path)
        assert checked == monitor.executions_checked
        assert violations == []


# ----------------------------------------------------------------------
# Store-scope invariants
# ----------------------------------------------------------------------
class _FakeSpec:
    seed = 7


def record_for(scenario: str, metrics: dict, params: dict, seed=None) -> dict:
    from repro.campaign.spec import derive_cell_seed

    return {
        "scenario": scenario,
        "cell_id": f"{scenario}-test",
        "params": params,
        "metrics": metrics,
        "status": "ok",
        "seed": seed if seed is not None
        else derive_cell_seed(_FakeSpec.seed, scenario, params),
    }


class TestStoreInvariants:
    def test_seed_derivation_mismatch_flagged(self) -> None:
        record = record_for("chaos", {}, {"executions": 2}, seed=12345)
        found = StoreSeedDerivation().check_record(_FakeSpec(), record)
        assert len(found) == 1

    def test_chaos_revocation_flagged(self) -> None:
        record = record_for(
            "chaos",
            {"revocations": 1.0, "results_produced": 1.0, "inconclusive": 1.0},
            {"executions": 2},
        )
        found = ChaosBenignSafety().check_record(_FakeSpec(), record)
        assert any("revocations" in v.detail for v in found)

    def test_chaos_unaccounted_execution_flagged(self) -> None:
        record = record_for(
            "chaos",
            {"revocations": 0.0, "results_produced": 1.0, "inconclusive": 0.0},
            {"executions": 2},
        )
        found = ChaosBenignSafety().check_record(_FakeSpec(), record)
        assert any("accounts for" in v.detail for v in found)

    def test_fig7_monotonicity_flagged(self) -> None:
        record = record_for(
            "fig7",
            {"misrevoked_at_theta_max": 2.0, "misrevoked_at_theta_1": 1.0,
             "safe_theta": 3.0},
            {"theta_max": 12},
        )
        found = Fig7ThetaMonotonicity().check_record(_FakeSpec(), record)
        assert len(found) == 1

    def test_fig7_safe_theta_sentinel_ok(self) -> None:
        record = record_for(
            "fig7",
            {"misrevoked_at_theta_max": 0.0, "misrevoked_at_theta_1": 1.0,
             "safe_theta": -1.0},
            {"theta_max": 12},
        )
        assert Fig7ThetaMonotonicity().check_record(_FakeSpec(), record) == []

    def test_fig8_unordered_percentiles_flagged(self) -> None:
        record = record_for(
            "fig8",
            {"avg_rel_error": 0.05, "p50_rel_error": 0.2, "p90_rel_error": 0.1,
             "p99_rel_error": 0.3},
            {"synopses": 64},
        )
        found = Fig8SynopsisErrorBound().check_record(_FakeSpec(), record)
        assert any("unordered" in v.detail for v in found)

    def test_rounds_bound_flagged(self) -> None:
        record = record_for("rounds", {"vmat_rounds": 40.0}, {"nodes": 30})
        found = RoundsConstantBound().check_record(_FakeSpec(), record)
        assert len(found) == 1

    def test_skips_failed_records(self) -> None:
        record = record_for("rounds", {"vmat_rounds": 40.0}, {"nodes": 30})
        record["status"] = "error"
        assert not RoundsConstantBound().applies_to(record)
        # ... but seed integrity still applies to failed cells.
        assert StoreSeedDerivation().applies_to(record)


class TestCommittedStores:
    def test_ci_stores_pass_catalog(self) -> None:
        store = ResultStore(STORES_CI)
        results = check_store(store)
        assert len(results) >= 4
        scenarios = set()
        for run_id, (records, violations) in results.items():
            assert violations == [], f"{run_id}: {[str(v) for v in violations]}"
            assert records > 0
            scenarios.update(
                r["scenario"] for r in store.get_run(run_id).load_results()
            )
        assert {"chaos", "fig7", "fig8", "rounds"} <= scenarios

    def test_check_run_reports_tampering(self, tmp_path) -> None:
        import json
        import shutil

        store = ResultStore(STORES_CI)
        run = store.list_runs()[0]
        copy_root = tmp_path / "store"
        shutil.copytree(STORES_CI, copy_root)
        run_dir = copy_root / run.run_id
        results_file = run_dir / "results.jsonl"
        lines = results_file.read_text().splitlines()
        record = json.loads(lines[0])
        record["seed"] = record["seed"] + 1
        lines[0] = json.dumps(record)
        results_file.write_text("\n".join(lines) + "\n")
        tampered = ResultStore(copy_root).get_run(run.run_id)
        _, violations = check_run(tampered)
        assert violations, "tampered seed must be detected"


# ----------------------------------------------------------------------
# Mutation smoke-check
# ----------------------------------------------------------------------
class TestMutationSmoke:
    def test_every_mutant_caught(self) -> None:
        reports = mutation_smoke(seed=7)
        assert len(reports) == 8
        for report in reports:
            assert report.baseline_clean, (
                f"{report.name}: baseline provocation was dirty"
            )
            assert report.caught, (
                f"{report.name}: weakened protocol survived the catalog "
                f"(expected {report.expected}, outcomes {report.outcomes})"
            )
