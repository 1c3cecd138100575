"""Fault injection: determinism, loss accounting, benign-failure safety.

The contract under test is twofold.  **Determinism**: a run is a pure
function of ``(plan, seed)`` — two fresh deployments under the same
plan produce byte-identical :meth:`~repro.metrics.Metrics.to_dict`
snapshots, and an *empty* plan reproduces the injector-free run
bit-for-bit.  **Safety**: benign failures (crash, partition, loss,
drift) degrade executions — messages are lost, outcomes may go
inconclusive — but never revoke an honest sensor.
"""

from __future__ import annotations

import math

import pytest

from repro import ExecutionOutcome, MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.faults import (
    BroadcastDelay,
    BroadcastLoss,
    BurstLoss,
    ClockDrift,
    Duplicate,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    Partition,
)
from repro.net.message import TreeBeacon
from repro.topology import grid_topology
from repro.tracing import Tracer

GRID = 4  # 4x4 grid, base station 0 at the corner, sensors 1..15
DEPTH = 2 * (GRID - 1)


def deploy(seed=7):
    return build_deployment(
        config=small_test_config(depth_bound=DEPTH + 2),
        topology=grid_topology(GRID, GRID),
        seed=seed,
    )


def readings(deployment):
    return {i: 20.0 + (i % 7) for i in deployment.topology.sensor_ids}


def run_executions(plan, *, seed=7, executions=2, tracer=False):
    deployment = deploy(seed)
    network = deployment.network
    if plan is not None:
        FaultInjector(plan, seed=seed).attach(network)
    trace = Tracer.attach(network) if tracer else None
    protocol = VMATProtocol(network)
    results = [protocol.execute(MinQuery(), readings(deployment)) for _ in range(executions)]
    return network, results, trace


class ScriptedRng:
    """Stands in for the injector's stream with a fixed draw script."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.consumed = 0

    def random(self):
        self.consumed += 1
        return self.draws.pop(0)


CRASH_PLAN = FaultPlan(
    "crash-only",
    events=(
        NodeCrash(node=5, start=2, end=8),
        NodeCrash(node=11, start=4, end=10),
    ),
)


class TestDeterminism:
    def test_same_plan_same_seed_identical_metrics(self):
        net_a, _, _ = run_executions(CRASH_PLAN, seed=7)
        net_b, _, _ = run_executions(CRASH_PLAN, seed=7)
        assert net_a.metrics.to_dict() == net_b.metrics.to_dict()

    def test_seed_changes_the_run(self):
        plan = FaultPlan(
            "burst", events=(BurstLoss(loss_rate=0.4, start=1, end=60),)
        )
        net_a, _, _ = run_executions(plan, seed=7)
        net_b, _, _ = run_executions(plan, seed=8)
        assert net_a.metrics.to_dict() != net_b.metrics.to_dict()

    def test_empty_plan_matches_injector_free_run_exactly(self):
        """An attached no-op injector must not perturb a single byte."""
        net_bare, results_bare, _ = run_executions(None)
        net_noop, results_noop, _ = run_executions(FaultPlan("noop"))
        assert net_bare.metrics.to_dict() == net_noop.metrics.to_dict()
        assert [r.estimate for r in results_bare] == [r.estimate for r in results_noop]
        assert net_noop.metrics.faults_injected == {}


class TestBenignSafety:
    def test_crash_only_plan_never_revokes(self):
        network, results, _ = run_executions(CRASH_PLAN, executions=3)
        assert all(not r.revocations for r in results)
        assert network.metrics.crash_intervals > 0
        assert network.metrics.messages_lost > 0
        assert network.metrics.faults_injected["crash"] == 2

    def test_crashed_node_abstains_from_vetoing(self):
        network, _, _ = run_executions(CRASH_PLAN, executions=1)
        assert network.node_columns.crash_suspected[5]

    def test_total_partition_goes_inconclusive_not_revoked(self):
        plan = FaultPlan(
            "island",
            events=(Partition(nodes=tuple(range(1, GRID * GRID)), start=1, end=10_000),),
        )
        network, results, _ = run_executions(plan, executions=1)
        result = results[0]
        assert result.outcome is ExecutionOutcome.INCONCLUSIVE
        assert not result.revocations
        assert result.inconclusive_reason
        assert network.metrics.partition_intervals > 0

    def test_drift_past_the_guard_band_loses_frames_not_nodes(self):
        plan = FaultPlan(
            "late-clock",
            events=(ClockDrift(node=6, drift=5.0, start=1, end=10_000),),
        )
        network, results, _ = run_executions(plan, executions=2)
        assert all(not r.revocations for r in results)
        assert network.metrics.faults_injected["late-frame"] > 0

    def test_missed_broadcast_marks_node_suspected_not_revoked(self):
        plan = FaultPlan("deaf", events=(BroadcastLoss(round=1, nodes=(7,)),))
        network, results, _ = run_executions(plan, executions=1)
        assert not results[0].revocations
        assert network.node_columns.crash_suspected[7]
        assert network.metrics.faults_injected["broadcast-loss"] == 1
        assert network.metrics.faults_injected["broadcast-miss"] >= 1

    def test_duplicates_keep_the_protocol_idempotent(self):
        plan = FaultPlan(
            "echo", events=(Duplicate(probability=0.6, start=1, end=10_000),)
        )
        net_dup, results, _ = run_executions(plan, executions=2)
        net_bare, bare_results, _ = run_executions(None, executions=2)
        assert [r.estimate for r in results] == [r.estimate for r in bare_results]
        assert all(not r.revocations for r in results)
        assert net_dup.metrics.faults_injected["duplicate"] > 0


class TestClockColumns:
    """The injector writes and reads the network's clock columns."""

    def test_overlapping_drift_events_sum_and_clear(self):
        plan = FaultPlan(
            "drift-overlap",
            events=(
                ClockDrift(node=6, drift=0.25, start=2, end=6),
                ClockDrift(node=6, drift=0.5, start=4, end=8),
            ),
        )
        network = deploy().network
        injector = FaultInjector(plan, seed=0).attach(network)
        seen = []
        for interval in range(1, 10):
            injector.on_interval_begin("test", interval)
            seen.append(float(network.clocks.drift[6]))
        assert seen == [0.0, 0.25, 0.25, 0.75, 0.75, 0.5, 0.5, 0.0, 0.0]
        assert not network.clocks.drift.any()

    def test_drift_outside_the_topology_is_ignored(self):
        plan = FaultPlan(
            "drift-nowhere",
            events=(
                ClockDrift(node=GRID * GRID, drift=0.5, start=1, end=3),
                ClockDrift(node=-1, drift=0.5, start=1, end=3),
            ),
        )
        network = deploy().network
        injector = FaultInjector(plan, seed=0).attach(network)
        for interval in range(1, 4):
            injector.on_interval_begin("test", interval)
            assert not network.clocks.drift.any()
            assert injector.clock_interval_shift(GRID * GRID) == 0

    def test_interval_shift_starts_past_half_an_interval(self):
        network = deploy().network
        injector = FaultInjector(FaultPlan("noop"), seed=0).attach(network)
        clocks = network.clocks
        length = network.config.clock.interval_length
        clocks.offsets[6] = 0.0
        for drift, shift in [
            (0.0, 0),
            (length / 2, 0),
            (math.nextafter(length / 2, math.inf), 1),
            (-math.nextafter(length / 2, math.inf), 1),
            (1.4 * length, 1),
            (1.6 * length, 2),
        ]:
            clocks.drift[6] = drift
            assert injector.clock_interval_shift(6) == shift, drift
        # The sum is what counts: offset and drift each under half.
        clocks.offsets[6] = 0.3 * length
        clocks.drift[6] = 0.3 * length
        assert injector.clock_interval_shift(6) == 1


class TestLossAccounting:
    def test_messages_lost_equals_per_receiver_drops(self):
        """Three receivers, three draws; exactly the sub-rate draws drop."""
        deployment = deploy()
        network = deployment.network
        plan = FaultPlan(
            "burst", events=(BurstLoss(loss_rate=0.5, start=1, end=100),)
        )
        injector = FaultInjector(plan, seed=0).attach(network)
        injector.rng = ScriptedRng([0.9, 0.1, 0.9])  # only the 2nd draw drops
        phase = network.new_phase("probe", 3)
        phase.begin_interval(1)
        receivers = network.secure_neighbors(5)[:3]
        assert len(receivers) == 3
        phase.send(5, receivers, TreeBeacon(origin=5, hop_count=1), interval=1)
        assert injector.rng.consumed == 3  # one independent draw per receiver
        assert network.metrics.messages_lost == 1
        assert network.metrics.faults_injected["burst-loss-drop"] == 1
        # Airtime is charged for the dropped copy too: the sender cannot
        # know the receiver's radio faded.
        assert network.metrics.messages_sent[5] == 3

    def test_crashed_sender_burns_no_airtime(self):
        deployment = deploy()
        network = deployment.network
        plan = FaultPlan("dead-tx", events=(NodeCrash(node=5, start=1, end=100),))
        FaultInjector(plan, seed=0).attach(network)
        phase = network.new_phase("probe", 3)
        phase.begin_interval(1)
        receivers = network.secure_neighbors(5)[:2]
        phase.send(5, receivers, TreeBeacon(origin=5, hop_count=1), interval=1)
        assert network.metrics.messages_lost == len(receivers)
        assert network.metrics.messages_sent[5] == 0
        assert network.metrics.bytes_sent[5] == 0

    def test_dead_receiver_still_costs_the_sender(self):
        deployment = deploy()
        network = deployment.network
        down = network.secure_neighbors(0)[0]
        plan = FaultPlan("dead-rx", events=(NodeCrash(node=down, start=1, end=100),))
        FaultInjector(plan, seed=0).attach(network)
        phase = network.new_phase("probe", 3)
        phase.begin_interval(1)
        phase.send(0, [down], TreeBeacon(origin=0, hop_count=1), interval=1)
        assert network.metrics.messages_lost == 1
        assert network.metrics.messages_sent[0] == 1
        assert network.metrics.bytes_sent[0] > 0
        assert network.metrics.messages_received[down] == 0

    def test_duplicate_charges_the_receive_side_only(self):
        deployment = deploy()
        network = deployment.network
        plan = FaultPlan(
            "echo", events=(Duplicate(probability=0.5, start=1, end=100),)
        )
        injector = FaultInjector(plan, seed=0).attach(network)
        injector.rng = ScriptedRng([0.1])  # the one delivery duplicates
        receiver = network.secure_neighbors(0)[0]
        phase = network.new_phase("probe", 3)
        phase.begin_interval(1)
        phase.send(0, [receiver], TreeBeacon(origin=0, hop_count=1), interval=1)
        assert network.metrics.messages_sent[0] == 1
        assert network.metrics.messages_received[receiver] == 2
        assert len(phase.inbox(receiver, 1)) == 2


class TestObservability:
    def test_tracer_sees_fault_activations(self):
        _, _, trace = run_executions(CRASH_PLAN, executions=1, tracer=True)
        kinds = {e.fields["fault"] for e in trace.of_kind("fault")}
        assert "crash" in kinds

    def test_broadcast_delay_is_charged_as_flooding_rounds(self):
        plan = FaultPlan("slow", events=(BroadcastDelay(round=1, extra_rounds=2.0),))
        net_slow, _, _ = run_executions(plan, executions=1)
        net_fast, _, _ = run_executions(None, executions=1)
        assert (
            net_slow.metrics.flooding_rounds
            == net_fast.metrics.flooding_rounds + 2.0
        )
        assert net_slow.metrics.faults_injected["broadcast-delay"] == 1

    def test_injector_clock_is_monotone(self):
        injector = FaultInjector(FaultPlan("noop"), seed=0)
        injector.advance_to(5)
        injector.advance_to(3)
        assert injector.now == 5
